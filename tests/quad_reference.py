"""Slow reference for the path model's split integer operators.

``QuadScalar`` is a pair a + b*sqrt(lam) of Fractions, and
``ReferenceOperator`` a sparse matrix of such pairs with the public
interface of ``path_algebra.SparseOperator``.  Patched in for
``SparseOperator``, it reruns every suite entry by entry, so its reports
must match the integer operators' byte for byte.  Its tail embedding
``lift`` follows the definition path by path: the floor-N entry at
(x + t, y + t) carries the floor-M entry at (x, y), for each floor-N path
y + t.  Its window certificate ``is_window_local`` compares each group of
entries with the whole class of paths it must cover.

Its ``flip_projection`` builds E/F by the ring formula
(``suite_reference.projection``), where the integer operators use the
closed form.

``sqrt_fraction``, ``embed_root`` and ``rank`` read an operator's rank by
Gaussian elimination over Q; the tests compare it with traces and supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from suite_reference import projection

from fareybratteli.path_algebra import SparseOperator


@dataclass(frozen=True, slots=True)
class QuadScalar:
    """a + b*sqrt(lam) with exact rational components."""

    a: Fraction
    b: Fraction
    lam: Fraction

    @staticmethod
    def of(value, lam: Fraction) -> "QuadScalar":
        return QuadScalar(Fraction(value), Fraction(0), lam)

    @staticmethod
    def root(lam: Fraction, scale=1) -> "QuadScalar":
        """scale * sqrt(lam)."""
        return QuadScalar(Fraction(0), Fraction(scale), lam)

    def _match(self, other: "QuadScalar") -> None:
        if self.lam != other.lam:
            raise ValueError(f"mixed scalar rings: sqrt({self.lam}) vs sqrt({other.lam})")

    def __add__(self, other: "QuadScalar") -> "QuadScalar":
        self._match(other)
        return QuadScalar(self.a + other.a, self.b + other.b, self.lam)

    def __sub__(self, other: "QuadScalar") -> "QuadScalar":
        self._match(other)
        return QuadScalar(self.a - other.a, self.b - other.b, self.lam)

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b, self.lam)

    def __mul__(self, other: "QuadScalar") -> "QuadScalar":
        self._match(other)
        if not self.b:
            if not other.b:  # both rational: one multiply instead of five
                return QuadScalar(self.a * other.a, self.b, self.lam)
            return QuadScalar(self.a * other.a, self.a * other.b, self.lam)
        if not other.b:
            return QuadScalar(self.a * other.a, self.b * other.a, self.lam)
        return QuadScalar(
            self.a * other.a + self.b * other.b * self.lam,
            self.a * other.b + self.b * other.a,
            self.lam,
        )

    def inverse(self) -> "QuadScalar":
        norm = self.a * self.a - self.b * self.b * self.lam
        if norm == 0:
            raise ZeroDivisionError(f"{self} is not invertible in the pair ring")
        return QuadScalar(self.a / norm, -self.b / norm, self.lam)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __str__(self) -> str:
        return f"{self.a}+{self.b}*sqrt({self.lam})"


class ReferenceOperator:
    """Sparse matrix with ``QuadScalar`` entries, built from the same
    (A + sqrt(lam)*B)/d integer data that ``SparseOperator`` takes."""

    def __init__(self, ctx, lam: Fraction, A: dict, B: dict | None = None, d: int = 1):
        B = B or {}
        entries = {}
        for key in A.keys() | B.keys():
            entries[key] = QuadScalar(Fraction(A.get(key, 0), d), Fraction(B.get(key, 0), d), lam)
        self._init(ctx, lam, entries)

    def _init(self, ctx, lam: Fraction, entries: dict) -> None:
        self.ctx, self.lam = ctx, lam
        self.quads = {key: val for key, val in entries.items() if val}
        for i, j in self.quads:
            if ctx.endpoint[i] != ctx.endpoint[j]:
                raise ValueError(f"entry ({i}, {j}) leaves the endpoint blocks")

    @classmethod
    def _of(cls, ctx, lam: Fraction, entries: dict) -> "ReferenceOperator":
        op = cls.__new__(cls)
        op._init(ctx, lam, entries)
        return op

    @classmethod
    def zero(cls, ctx, lam):
        return cls(ctx, lam, {})

    @classmethod
    def identity(cls, ctx, lam):
        return cls(ctx, lam, {(i, i): 1 for i in range(ctx.dim)})

    @classmethod
    def diagonal(cls, ctx, lam, keep):
        return cls(ctx, lam, {(i, i): 1 for i, p in enumerate(ctx.paths) if keep(p)})

    def lift(self, ctx):
        if ctx is self.ctx:
            return self
        if ctx.floor <= self.ctx.floor:
            raise ValueError("lifts go to a higher floor")
        head = self.ctx.floor + 1
        below: dict[int, list] = {}  # floor-M path index -> floor-N paths extending it
        for p in ctx.paths:
            below.setdefault(self.ctx.index[p[:head]], []).append(p)
        out = {}
        for (i, j), val in self.quads.items():
            x = self.ctx.paths[i]
            for p in below[j]:
                out[(ctx.index[x + p[head:]], ctx.index[p])] = val
        return self._of(ctx, self.lam, out)

    def _common(self, other):
        if self.ctx.floor < other.ctx.floor:
            return self.lift(other.ctx), other
        return self, other.lift(self.ctx)

    def __add__(self, other):
        x, y = self._common(other)
        out = dict(x.quads)
        for key, val in y.quads.items():
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
        return self._of(x.ctx, self.lam, out)

    def __neg__(self):
        return self._of(self.ctx, self.lam, {key: -val for key, val in self.quads.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        x, y = self._common(other)
        rows: dict[int, list] = {}
        for (j, k), val in y.quads.items():
            rows.setdefault(j, []).append((k, val))
        out: dict = {}
        for (i, j), a in x.quads.items():
            for k, b in rows.get(j, ()):
                cur = out.get((i, k))
                out[(i, k)] = a * b if cur is None else cur + a * b
        return self._of(x.ctx, self.lam, out)

    def scale(self, value, root: bool = False):
        s = QuadScalar.root(self.lam, value) if root else QuadScalar.of(value, self.lam)
        return self._of(self.ctx, self.lam, {key: s * val for key, val in self.quads.items()})

    def adjoint(self):
        return self._of(self.ctx, self.lam, {(j, i): val for (i, j), val in self.quads.items()})

    def __eq__(self, other):
        return isinstance(other, ReferenceOperator) and self.ctx is other.ctx and self.quads == other.quads

    def is_zero(self) -> bool:
        return not self.quads

    def is_projection(self) -> bool:
        return self == self.adjoint() and self * self == self

    def projection_witness(self, top=None):
        op = self if top is None else self.lift(top)
        skew = [key for key, val in op.quads.items() if op.quads.get(key[::-1]) != val]
        if skew:
            row, col = min(skew)
            return {"row": row, "col": col, "value": str(op.quads[(row, col)])}
        return (self * self).first_entry_of_difference(self, top)

    def max_nonzeros(self, other: int) -> int:
        return max(other, len(self.quads))

    def is_window_local(self, writes, reads) -> bool:
        """The certificate read off its definition: entries grouped by
        (p|reads, q|writes), each group one value, its columns the whole
        class of paths p with that p|reads."""
        paths = self.ctx.paths
        outside = [c for c in range(self.ctx.floor + 1) if c not in writes]
        values, columns = {}, {}
        for (i, j), val in self.quads.items():
            q, p = paths[i], paths[j]
            if any(p[c] != q[c] for c in outside):
                return False
            key = (tuple(p[c] for c in reads), tuple(q[c] for c in writes))
            if values.setdefault(key, val) != val:
                return False
            columns.setdefault(key, set()).add(p)
        return all(cols == {p for p in paths if tuple(p[c] for c in reads) == a} for (a, _), cols in columns.items())

    def support(self) -> set:
        return set(self.quads)

    @property
    def entries(self) -> dict:
        return {key: str(val) for key, val in self.quads.items()}

    def witness(self, top=None):
        if not self.quads:
            return None
        op = self if top is None else self.lift(top)
        row, col = min(op.quads)
        return {"row": row, "col": col, "value": str(op.quads[(row, col)])}

    def first_entry_of_difference(self, other, top=None):
        return (self - other).witness(top)

    def flip_projection(self, window):
        """E or F built from this flip by ring operations (``window`` is not
        read: the reference checks every certificate on its entries)."""
        return projection(self, self.lam)

    def with_negated_entry(self, key):
        out = dict(self.quads)
        if key in out:
            out[key] = -out[key]
        return self._of(self.ctx, self.lam, out)


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact rational square root, or None if x is not a perfect square."""
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


def embed_root(op: SparseOperator) -> SparseOperator:
    """For square lam, fold b*sqrt(lam) into the rational component."""
    root = sqrt_fraction(op.lam)
    if root is None:
        raise ValueError(f"{op.lam} is not a perfect square")
    n, m = root.numerator, root.denominator
    A = {key: m * val for key, val in op.A.items()}
    for key, val in op.B.items():
        A[key] = A.get(key, 0) + n * val
    return SparseOperator(op.ctx, op.lam, A, None, op.d * m)


def rank(op: SparseOperator) -> int:
    """Exact rank by Gaussian elimination over Q.

    For square lam the root is folded in first.  Otherwise Q(sqrt(lam))
    is a quadratic field, and the rank is half the rational rank of the
    real form [[q A, p B], [q B, q A]] with lam = p/q."""
    if sqrt_fraction(op.lam) is not None:
        return _rational_rank(embed_root(op).A)
    p, q, n = op.lam.numerator, op.lam.denominator, op.ctx.dim
    real = {}
    for (i, j), val in op.A.items():
        real[(i, j)] = real[(i + n, j + n)] = q * val
    for (i, j), val in op.B.items():
        real[(i, j + n)] = p * val
        real[(i + n, j)] = q * val
    return _rational_rank(real) // 2


def _rational_rank(entries: dict) -> int:
    rank = 0
    rows: dict[int, dict[int, Fraction]] = {}
    for (i, j), val in entries.items():
        rows.setdefault(i, {})[j] = Fraction(val)
    pending = list(rows.values())
    while pending:
        row = pending.pop()
        rank += 1
        pivot = min(row)
        inv = 1 / row[pivot]
        reduced = {c: inv * v for c, v in row.items()}
        remaining = []
        for other in pending:
            if pivot in other:
                factor = other[pivot]
                new = dict(other)
                for c, v in reduced.items():
                    val = new.get(c, 0) - factor * v
                    if val:
                        new[c] = val
                    else:
                        new.pop(c, None)
                if new:
                    remaining.append(new)
            else:
                remaining.append(other)
        pending = remaining
    return rank
