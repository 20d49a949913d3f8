"""Slow reference for the path model's split integer operators.

``QuadScalar`` is a pair a + b*sqrt(lam) of Fractions, and
``ReferenceOperator`` a sparse matrix of such pairs with the public
interface of ``path_algebra.SparseOperator``.  Patched in for
``SparseOperator``, it reruns every suite entry by entry, so its reports
must match the integer operators' byte for byte.  Its tail embedding
``lift`` follows the definition path by path: the floor-N entry at
(x + t, y + t) carries the floor-M entry at (x, y), for each floor-N path
y + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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

    def max_nonzeros(self, other: int) -> int:
        return max(other, len(self.quads))

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

    def with_negated_entry(self, key):
        out = dict(self.quads)
        if key in out:
            out[key] = -out[key]
        return self._of(self.ctx, self.lam, out)
