"""Finite-floor path model of the diagram and its projection relations.

A path is the tuple of horizontal coordinates (xi_0, ..., xi_N) of a
monotone walk from the augmentation root (whose coordinate is fixed at 0)
down to floor N; consecutive coordinates satisfy |2*xi_n - xi_{n+1}| <= 1.
Matrix units T(xi, eta) act on the free module over the path set by
rerouting the head of a path, so operators are sparse matrices indexed by
path pairs with a common endpoint; every operator built here stays inside
those endpoint blocks and the block sizes reproduce the tree denominators.

Scalars live in Q(sqrt(lam)) for a fixed positive rational lam = p/q.  An
operator is stored in split integer form (A + x*B)/d: x = sqrt(lam) stays
formal, A and B are sparse matrices of plain ints and d is one positive
common denominator, kept canonical so that equality is dict equality.
Products are integer sparse matmuls; x*x = p/q is folded in by the integer
factors p and q, and the B terms are skipped when both factors are
rational, as every generator is.  An operator keeps the row index of its A
and B parts once it has been a right factor, and its adjoint once it has
been asked for (linked both ways, weakly back), so the generators and E/F
projections that every suite multiplies by and transposes are indexed
once.  Every identity verified in this module is decided exactly, with no
tolerances.  Scalars appear only at the boundary (entries, witnesses,
traces), as the text ``a+b*sqrt(lam)``.  For square lam the pair
arithmetic is still the formal quotient ring, and ``embed_root`` folds B
into A via the rational root as a consistency check.

The three suite runners return machine-readable reports:

- ``verify_relation_suite``: the idempotent family (R1), the support and
  intertwining laws of the diamond flips (R2)-(R4), the vanishing products,
  the nonzero-product whitelist, far-floor commutation, the braid
  triples, and the partition of unity by matrix units, summed in one pass
  over the paths.  The support laws (1 - x)y = 0 are formed as y - xy,
  as are the dominance residues, so no product meets the dense identity.
- ``yang_baxter_check``: R_n(s) = 1 + s*v_n.  In any ring the difference
  of the two sides is st(a^2 - b^2) + st(s+t)(aba - bab) with a = v_n and
  b = v_{n+1}, so the two coefficient operators are built once per n and
  decide the identity for all s and t; the grid only names the points
  reported.
- ``verify_braiding_suite``: projection properties of E_n/F_n, their
  orthogonality, commutation at distance >= 2, the eight triple-product
  identities, the eight vanishing mixed products, the product expansions,
  and positive-semidefinite dominance established by exhibiting
  tau*E_n - E_n E_m E_n as tau times an exact self-adjoint idempotent.

Generators for a given (N, lam) are built once per ``Representation`` and
shared read-only; suite checks are independent of one another.
"""

from __future__ import annotations

import json
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Iterable

__all__ = [
    "Check",
    "PathContext",
    "Report",
    "Representation",
    "SparseOperator",
    "enumerate_paths",
    "flip_isometry",
    "generator",
    "path_context",
    "path_matrix_unit",
    "random_sign_mutation",
    "run_all_suites",
    "sqrt_fraction",
    "tl_projection",
    "verify_braiding_suite",
    "verify_relation_suite",
    "yang_baxter_check",
]

MAX_PATH_FLOOR = 9  # 3**N + 1 paths

Path = tuple[int, ...]


def _xi(path: Path, n: int) -> int:
    """Coordinate at floor n, with the root floor fixed at 0."""
    return 0 if n < 0 else path[n]


def enumerate_paths(floor: int) -> tuple[Path, ...]:
    """All monotone paths from the root to the given floor, lexicographic."""
    ctx = path_context(floor)
    return ctx.paths


@lru_cache(maxsize=None)
def path_context(floor: int) -> "PathContext":
    return PathContext(floor)


class PathContext:
    """Shared read-only path enumeration for one floor."""

    def __init__(self, floor: int):
        if not 0 <= floor <= MAX_PATH_FLOOR:
            raise ValueError(f"floor must lie in 0..{MAX_PATH_FLOOR}")
        self.floor = floor
        paths: list[Path] = []
        stack: list[Path] = [(1,), (0,)]
        while stack:
            p = stack.pop()
            n = len(p) - 1
            if n == floor:
                paths.append(p)
                continue
            top = 2 ** (n + 1)
            for c in (2 * p[-1] + 1, 2 * p[-1], 2 * p[-1] - 1):
                if 0 <= c <= top:
                    stack.append(p + (c,))
        paths.sort()
        self.paths = tuple(paths)
        self.index = {p: i for i, p in enumerate(self.paths)}
        self.endpoint = tuple(p[-1] for p in self.paths)
        self.dim = len(self.paths)


def sqrt_fraction(x: Fraction) -> Fraction | None:
    """Exact rational square root, or None if x is not a perfect square."""
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    if n * n == x.numerator and d * d == x.denominator:
        return Fraction(n, d)
    return None


Entries = dict[tuple[int, int], int]
Rows = dict[int, tuple[tuple[int, int], ...]]


class SparseOperator:
    """Sparse matrix over Q(sqrt(lam)) indexed by floor-N paths.

    The value is (A + x*B) / d with x = sqrt(lam) kept formal: ``A`` and
    ``B`` map (i, j) to nonzero ints and ``d`` is a positive int.  The form
    is canonical (no zero entries, gcd(d, every entry) == 1), so equal
    operators have equal fields.  Entries couple only paths with the same
    endpoint; this block structure is checked whenever an operator is built.
    """

    __slots__ = ("ctx", "lam", "A", "B", "d", "_row_index", "_adjoint", "__weakref__")

    def __init__(self, ctx: PathContext, lam: Fraction, A: Entries, B: Entries | None = None, d: int = 1):
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        A = {key: val for key, val in A.items() if val}
        B = {key: val for key, val in B.items() if val} if B else {}
        g = gcd(d, *A.values(), *B.values())
        if g != 1:
            d //= g
            A = {key: val // g for key, val in A.items()}
            B = {key: val // g for key, val in B.items()}
        endpoint = ctx.endpoint
        for part in (A, B):
            for i, j in part:
                if endpoint[i] != endpoint[j]:
                    raise ValueError(f"entry ({i}, {j}) leaves the endpoint blocks")
        self.ctx, self.lam, self.A, self.B, self.d = ctx, lam, A, B, d
        self._row_index: tuple[Rows, Rows] | None = None
        self._adjoint: SparseOperator | weakref.ref | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: PathContext, lam: Fraction) -> "SparseOperator":
        return SparseOperator(ctx, lam, {})

    @staticmethod
    def identity(ctx: PathContext, lam: Fraction) -> "SparseOperator":
        return SparseOperator(ctx, lam, {(i, i): 1 for i in range(ctx.dim)})

    @staticmethod
    def diagonal(ctx: PathContext, lam: Fraction, keep: Callable[[Path], bool]) -> "SparseOperator":
        return SparseOperator(ctx, lam, {(i, i): 1 for i, p in enumerate(ctx.paths) if keep(p)})

    # -- ring operations ----------------------------------------------------

    def _match(self, other: "SparseOperator") -> None:
        if self.ctx is not other.ctx or self.lam != other.lam:
            raise ValueError("operators live in different representations")

    def _combine(self, other: "SparseOperator", sign: int) -> "SparseOperator":
        """self + sign*other over the least common denominator."""
        self._match(other)
        g = gcd(self.d, other.d)
        mine, theirs = other.d // g, sign * (self.d // g)
        parts = []
        for left, right in ((self.A, other.A), (self.B, other.B)):
            out = dict(left) if mine == 1 else {key: mine * val for key, val in left.items()}
            for key, val in right.items():
                out[key] = out.get(key, 0) + theirs * val
            parts.append(out)
        return SparseOperator(self.ctx, self.lam, parts[0], parts[1], self.d * mine)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, -1)

    def __neg__(self) -> "SparseOperator":
        return self.scale(-1)

    def _rows(self) -> tuple[Rows, Rows]:
        """Row indexes {row: ((col, val), ...)} of A and B, built on first
        use as a right factor; equality and hashing never look at them."""
        if self._row_index is None:
            self._row_index = (_row_index(self.A), _row_index(self.B))
        return self._row_index

    def __mul__(self, other: "SparseOperator") -> "SparseOperator":
        self._match(other)
        d = self.d * other.d
        rows_a, rows_b = other._rows()
        if not (self.B or other.B):
            return SparseOperator(self.ctx, self.lam, _matmul({}, self.A, rows_a, 1), None, d)
        # (A1 + x B1)(A2 + x B2) = A1 A2 + (p/q) B1 B2 + x (A1 B2 + B1 A2), lam = p/q
        p, q = self.lam.numerator, self.lam.denominator
        A = _matmul(_matmul({}, self.A, rows_a, q), self.B, rows_b, p)
        B = _matmul(_matmul({}, self.A, rows_b, q), self.B, rows_a, q)
        return SparseOperator(self.ctx, self.lam, A, B, d * q)

    def scale(self, value, root: bool = False) -> "SparseOperator":
        """Multiply by a rational value, or by value*sqrt(lam) when ``root``."""
        c = Fraction(value)
        n, m = c.numerator, c.denominator
        if not root:
            A = {key: n * val for key, val in self.A.items()}
            B = {key: n * val for key, val in self.B.items()}
            return SparseOperator(self.ctx, self.lam, A, B, self.d * m)
        # x (A + x B) = (p/q) B + x A
        p, q = self.lam.numerator, self.lam.denominator
        A = {key: n * p * val for key, val in self.B.items()}
        B = {key: n * q * val for key, val in self.A.items()}
        return SparseOperator(self.ctx, self.lam, A, B, self.d * m * q)

    def adjoint(self) -> "SparseOperator":
        """The transpose, built on first use and linked both ways, so
        ``op.adjoint().adjoint() is op`` while op lives; equality and
        hashing never look at the link, and every operator built from this
        one starts without."""
        # entries lie in Q(sqrt(lam)) inside the reals, so * is plain
        # transposition; the Galois map sqrt(lam) -> -sqrt(lam) plays no role
        star = self._adjoint
        if type(star) is weakref.ref:
            star = star()
        if star is None:
            A = {(j, i): val for (i, j), val in self.A.items()}
            B = {(j, i): val for (i, j), val in self.B.items()}
            star = SparseOperator(self.ctx, self.lam, A, B, self.d)
            # the link back is weak: a strong pair is a reference cycle, which
            # only the cyclic collector frees, and temporaries' pairs piled up
            # to 2.4 MB more peak RSS over the suites at floors 4-6
            star._adjoint, self._adjoint = weakref.ref(self), star
        return star

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SparseOperator)
            and self.ctx is other.ctx
            and self.lam == other.lam
            and self.d == other.d
            and self.A == other.A
            and self.B == other.B
        )

    def __hash__(self) -> int:  # operators are de-facto immutable
        return hash((id(self.ctx), self.lam, self.d, frozenset(self.A.items()), frozenset(self.B.items())))

    def is_zero(self) -> bool:
        return not (self.A or self.B)

    def is_projection(self) -> bool:
        return self == self.adjoint() and self * self == self

    # -- scalars at the boundary -------------------------------------------

    def _text(self, a: int, b: int) -> str:
        return f"{Fraction(a, self.d)}+{Fraction(b, self.d)}*sqrt({self.lam})"

    def support(self) -> set[tuple[int, int]]:
        return self.A.keys() | self.B.keys()

    @property
    def entries(self) -> dict[tuple[int, int], str]:
        """Nonzero entries as exact text ``a+b*sqrt(lam)``."""
        return {key: self._text(self.A.get(key, 0), self.B.get(key, 0)) for key in self.support()}

    def trace(self) -> str:
        a = sum(val for (i, j), val in self.A.items() if i == j)
        b = sum(val for (i, j), val in self.B.items() if i == j)
        return self._text(a, b)

    def witness(self) -> dict | None:
        """Row, column and value of the least nonzero entry, or None."""
        if self.is_zero():
            return None
        row, col = min(self.support())
        return {"row": row, "col": col, "value": self._text(self.A.get((row, col), 0), self.B.get((row, col), 0))}

    def first_entry_of_difference(self, other: "SparseOperator") -> dict | None:
        return None if self == other else (self - other).witness()

    def with_negated_entry(self, key: tuple[int, int]) -> "SparseOperator":
        """Copy with the entry at ``key`` negated (unchanged where it is 0)."""
        A, B = dict(self.A), dict(self.B)
        for part in (A, B):
            if key in part:
                part[key] = -part[key]
        return SparseOperator(self.ctx, self.lam, A, B, self.d)

    def embed_root(self) -> "SparseOperator":
        """For square lam, fold b*sqrt(lam) into the rational component."""
        root = sqrt_fraction(self.lam)
        if root is None:
            raise ValueError(f"{self.lam} is not a perfect square")
        n, m = root.numerator, root.denominator
        A = {key: m * val for key, val in self.A.items()}
        for key, val in self.B.items():
            A[key] = A.get(key, 0) + n * val
        return SparseOperator(self.ctx, self.lam, A, None, self.d * m)

    def rank(self) -> int:
        """Exact rank by Gaussian elimination over Q.

        For square lam the root is folded in first.  Otherwise Q(sqrt(lam))
        is a quadratic field, and the rank is half the rational rank of the
        real form [[q A, p B], [q B, q A]] with lam = p/q."""
        if sqrt_fraction(self.lam) is not None:
            return _rational_rank(self.embed_root().A)
        p, q, n = self.lam.numerator, self.lam.denominator, self.ctx.dim
        real = {}
        for (i, j), val in self.A.items():
            real[(i, j)] = real[(i + n, j + n)] = q * val
        for (i, j), val in self.B.items():
            real[(i, j + n)] = p * val
            real[(i + n, j)] = q * val
        return _rational_rank(real) // 2


def _row_index(entries: Entries) -> Rows:
    rows: dict[int, list[tuple[int, int]]] = {}
    for (j, k), val in entries.items():
        rows.setdefault(j, []).append((k, val))
    # tuples hold no spare capacity, and an index lives as long as its operator
    return {j: tuple(hits) for j, hits in rows.items()}


def _matmul(out: Entries, left: Entries, rows: Rows, factor: int) -> Entries:
    """Accumulate factor * left @ right into out and return it, with the
    right factor given by its row index."""
    if not (left and rows):
        return out
    get = out.get
    for (i, j), a in left.items():
        hits = rows.get(j)
        if hits:
            a *= factor
            for k, b in hits:
                key = (i, k)
                out[key] = get(key, 0) + a * b
    return out


def _rational_rank(entries: Entries) -> int:
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


def path_matrix_unit(ctx: PathContext, lam: Fraction, head: Path, tail_head: Path) -> SparseOperator:
    """The embedded matrix unit T(head, tail_head): reroutes every floor-N
    path starting with ``tail_head`` onto ``head``; both prefixes must end
    at the same vertex."""
    r = len(head) - 1
    if len(tail_head) != len(head) or head[-1] != tail_head[-1]:
        raise ValueError("matrix units need equal-floor prefixes with a common endpoint")
    entries = {}
    for j, p in enumerate(ctx.paths):
        if p[: r + 1] == tail_head:
            entries[(ctx.index[head + p[r + 1 :]], j)] = 1
    return SparseOperator(ctx, lam, entries)


# ---------------------------------------------------------------------------
# generators


class Representation:
    """All generators of the floor-N model over Q(sqrt(lam)), built once.

    Valid index ranges at floor N: e_1..e_N, f_0..f_N, g_0..g_N (diagonal
    edge-class projections), the diamond flips v_0..v_{N-1} and w_1..w_{N-1},
    and the derived projections E_0..E_{N-1}, F_1..F_{N-1}.
    """

    def __init__(self, floor: int, lam: Fraction):
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("lam must be a positive rational")
        self.floor = floor
        self.lam = lam
        self.ctx = path_context(floor)
        self._gens: dict[tuple[str, int], SparseOperator] = {}
        self._tl: dict[tuple[str, int], SparseOperator] = {}
        for n in range(1, floor + 1):
            self._gens[("e", n)] = self._edge_projection(n, -1)
        for n in range(floor + 1):
            self._gens[("f", n)] = self._edge_projection(n, +1)
            self._gens[("g", n)] = self._edge_projection(n, 0)
        for n in range(floor):
            self._gens[("v", n)] = self._flip(n, +1)
        for n in range(1, floor):
            self._gens[("w", n)] = self._flip(n, -1)

    def _edge_projection(self, n: int, offset: int) -> SparseOperator:
        return SparseOperator.diagonal(
            self.ctx, self.lam, lambda p: _xi(p, n) == 2 * _xi(p, n - 1) + offset
        )

    def _flip(self, n: int, sign: int) -> SparseOperator:
        """Diamond flip at floor n: sources sit on the straight edge with the
        floor-(n+1) coordinate at 4*xi_{n-1} + sign; targets move xi_n to
        2*xi_{n-1} + sign.  sign +1 builds v_n, sign -1 builds w_n."""
        entries = {}
        for j, p in enumerate(self.ctx.paths):
            base = _xi(p, n - 1)
            if p[n] == 2 * base and p[n + 1] == 4 * base + sign:
                target = p[:n] + (2 * base + sign,) + p[n + 1 :]
                entries[(self.ctx.index[target], j)] = 1
        return SparseOperator(self.ctx, self.lam, entries)

    # -- access --------------------------------------------------------------

    def has(self, kind: str, n: int) -> bool:
        return (kind, n) in self._gens

    def gen(self, kind: str, n: int) -> SparseOperator:
        try:
            return self._gens[(kind, n)]
        except KeyError:
            raise ValueError(f"{kind}_{n} is not defined at floor {self.floor}") from None

    def identity(self) -> SparseOperator:
        return SparseOperator.identity(self.ctx, self.lam)

    def tau(self) -> Fraction:
        return self.lam / (1 + self.lam) ** 2

    def tl(self, kind: str, n: int) -> SparseOperator:
        """E_n (from v_n) or F_n (from w_n)."""
        if kind not in ("E", "F"):
            raise ValueError(f"unknown projection kind {kind!r}")
        key = (kind, n)
        if key not in self._tl:
            u = self.gen("v" if kind == "E" else "w", n)
            unit = Fraction(1, 1 + self.lam)
            self._tl[key] = (
                (u.adjoint() * u).scale(unit)
                + u.scale(unit, root=True)
                + u.adjoint().scale(unit, root=True)
                + (u * u.adjoint()).scale(unit * self.lam)
            )
        return self._tl[key]

    def with_sign_flip(self, kind: str, n: int, entry: tuple[int, int]) -> "Representation":
        """Copy of the representation with one generator entry negated."""
        mutated = object.__new__(Representation)
        mutated.floor, mutated.lam, mutated.ctx = self.floor, self.lam, self.ctx
        mutated._gens = dict(self._gens)
        mutated._tl = {}
        victim = self.gen(kind, n)
        if entry not in victim.support():
            raise ValueError(f"{kind}_{n} has no entry at {entry}")
        mutated._gens[(kind, n)] = victim.with_negated_entry(entry)
        return mutated


@lru_cache(maxsize=8)
def _representation(floor: int, lam: Fraction) -> Representation:
    return Representation(floor, lam)


def generator(kind: str, n: int, floor: int, lam=Fraction(1)) -> SparseOperator:
    """Edge-class projection e/f/g at index n in the floor-N model."""
    if kind not in ("e", "f", "g"):
        raise ValueError(f"unknown generator kind {kind!r}")
    return _representation(floor, Fraction(lam)).gen(kind, n)


def flip_isometry(kind: str, n: int, floor: int, lam=Fraction(1)) -> SparseOperator:
    """Diamond flip v/w at index n in the floor-N model."""
    if kind not in ("v", "w"):
        raise ValueError(f"unknown isometry kind {kind!r}")
    return _representation(floor, Fraction(lam)).gen(kind, n)


def tl_projection(kind: str, n: int, floor: int, lam) -> SparseOperator:
    """Temperley-Lieb-type projection E_n or F_n over Q(sqrt(lam))."""
    return _representation(floor, Fraction(lam)).tl(kind, n)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Check:
    equation: str
    indices: dict
    status: str
    witness: dict | None = None

    @staticmethod
    def equality(equation: str, indices: dict, left: SparseOperator, right: SparseOperator) -> "Check":
        witness = left.first_entry_of_difference(right)
        return Check(equation, indices, "pass" if witness is None else "fail", witness)

    @staticmethod
    def vanishes(equation: str, indices: dict, op: SparseOperator) -> "Check":
        witness = op.witness()
        return Check(equation, indices, "pass" if witness is None else "fail", witness)

    @staticmethod
    def nonzero(equation: str, indices: dict, op: SparseOperator) -> "Check":
        if op.is_zero():
            return Check(equation, indices, "fail", {"row": -1, "col": -1, "value": "0"})
        return Check(equation, indices, "pass")


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != "pass"]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    def to_json(self) -> str:
        payload = []
        for c in self.checks:
            item = {"equation": c.equation, "indices": c.indices, "status": c.status}
            if c.witness is not None:
                item["witness"] = c.witness
            payload.append(item)
        return json.dumps(payload)


# ---------------------------------------------------------------------------
# suites


def _diagonal_family(rep: Representation) -> list[tuple[str, int, SparseOperator]]:
    out = []
    for n in range(1, rep.floor + 1):
        out.append(("e", n, rep.gen("e", n)))
    for n in range(rep.floor + 1):
        out.append(("f", n, rep.gen("f", n)))
        out.append(("g", n, rep.gen("g", n)))
    return out


def _isometry_family(rep: Representation) -> list[tuple[str, int, SparseOperator]]:
    out = [("v", n, rep.gen("v", n)) for n in range(rep.floor)]
    out += [("w", n, rep.gen("w", n)) for n in range(1, rep.floor)]
    return out


def verify_relation_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """(R1)-(R4), the vanishing products, the nonzero whitelist, far-floor
    commutation (the locality of the model), the braid triples, and the
    partition of unity by embedded matrix units.

    Needs floor >= 4 so that every index family contributes instances."""
    if floor < 4:
        raise ValueError("the relation suite needs floor >= 4")
    rep = rep or _representation(floor, Fraction(lam))
    one = rep.identity()
    report = Report()
    add = report.checks.append

    # (R1): self-adjoint idempotents summing to 1, mutually commuting
    diag = _diagonal_family(rep)
    for kind, n, p in diag:
        status = "pass" if p.is_projection() else "fail"
        add(Check("R1", {"kind": kind, "n": n}, status))
    for n in range(rep.floor + 1):
        total = rep.gen("f", n) + rep.gen("g", n)
        if n >= 1:
            total = total + rep.gen("e", n)
        add(Check.equality("R1", {"sum_at": n}, total, one))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            k1, n1, p1 = diag[i]
            k2, n2, p2 = diag[j]
            add(
                Check.vanishes(
                    "R1", {"commutator": f"{k1}{n1},{k2}{n2}"}, p1 * p2 - p2 * p1
                )
            )

    # (R2): support laws
    for n in range(rep.floor):
        v = rep.gen("v", n)
        f, g = rep.gen("f", n), rep.gen("g", n)
        e1, f1 = rep.gen("e", n + 1), rep.gen("f", n + 1)
        add(Check.vanishes("R2", {"family": "v", "n": n, "law": "(1-f_n)v_n"}, _one_minus_times(f, v)))
        add(Check.vanishes("R2", {"family": "v", "n": n, "law": "(1-e_n+1)v_n"}, _one_minus_times(e1, v)))
        add(Check.vanishes("R2", {"family": "v", "n": n, "law": "v_n(1-g_n)"}, _times_one_minus(v, g)))
        add(Check.vanishes("R2", {"family": "v", "n": n, "law": "v_n(1-f_n+1)"}, _times_one_minus(v, f1)))
    for n in range(1, rep.floor):
        w = rep.gen("w", n)
        e, g = rep.gen("e", n), rep.gen("g", n)
        e1, f1 = rep.gen("e", n + 1), rep.gen("f", n + 1)
        add(Check.vanishes("R2", {"family": "w", "n": n, "law": "(1-e_n)w_n"}, _one_minus_times(e, w)))
        add(Check.vanishes("R2", {"family": "w", "n": n, "law": "(1-f_n+1)w_n"}, _one_minus_times(f1, w)))
        add(Check.vanishes("R2", {"family": "w", "n": n, "law": "w_n(1-g_n)"}, _times_one_minus(w, g)))
        add(Check.vanishes("R2", {"family": "w", "n": n, "law": "w_n(1-e_n+1)"}, _times_one_minus(w, e1)))

    # (R3): intertwining
    for n in range(rep.floor):
        v = rep.gen("v", n)
        add(Check.equality("R3", {"family": "v", "n": n, "law": "v g = f v"}, v * rep.gen("g", n), rep.gen("f", n) * v))
        add(
            Check.equality(
                "R3", {"family": "v", "n": n, "law": "v f' = e' v"}, v * rep.gen("f", n + 1), rep.gen("e", n + 1) * v
            )
        )
    for n in range(1, rep.floor):
        w = rep.gen("w", n)
        add(Check.equality("R3", {"family": "w", "n": n, "law": "w g = e w"}, w * rep.gen("g", n), rep.gen("e", n) * w))
        add(
            Check.equality(
                "R3", {"family": "w", "n": n, "law": "w e' = f' w"}, w * rep.gen("e", n + 1), rep.gen("f", n + 1) * w
            )
        )

    # (R4): initial and final supports
    for n in range(rep.floor):
        v = rep.gen("v", n)
        add(Check.equality("R4", {"family": "v", "n": n, "law": "v*v"}, v.adjoint() * v, rep.gen("g", n) * rep.gen("f", n + 1)))
        add(Check.equality("R4", {"family": "v", "n": n, "law": "vv*"}, v * v.adjoint(), rep.gen("f", n) * rep.gen("e", n + 1)))
    for n in range(1, rep.floor):
        w = rep.gen("w", n)
        add(Check.equality("R4", {"family": "w", "n": n, "law": "w*w"}, w.adjoint() * w, rep.gen("g", n) * rep.gen("e", n + 1)))
        add(Check.equality("R4", {"family": "w", "n": n, "law": "ww*"}, w * w.adjoint(), rep.gen("e", n) * rep.gen("f", n + 1)))

    # vanishing products between adjacent and equal indices
    def op(kind: str, n: int, star: bool) -> SparseOperator | None:
        if not rep.has(kind, n):
            return None
        base = rep.gen(kind, n)
        return base.adjoint() if star else base

    vanishing = []
    for n in range(rep.floor):
        vanishing += [
            ("v_n+1 v_n", ("v", n + 1, False), ("v", n, False)),
            ("v_n v_n", ("v", n, False), ("v", n, False)),
            ("v_n+1 v_n*", ("v", n + 1, False), ("v", n, True)),
            ("v_n-1 v_n*", ("v", n - 1, False), ("v", n, True)),
            ("v_n+1* v_n", ("v", n + 1, True), ("v", n, False)),
            ("v_n-1* v_n", ("v", n - 1, True), ("v", n, False)),
            ("w_n+1 w_n", ("w", n + 1, False), ("w", n, False)),
            ("w_n w_n", ("w", n, False), ("w", n, False)),
            ("w_n+1 w_n*", ("w", n + 1, False), ("w", n, True)),
            ("w_n-1 w_n*", ("w", n - 1, False), ("w", n, True)),
            ("w_n+1* w_n", ("w", n + 1, True), ("w", n, False)),
            ("w_n-1* w_n", ("w", n - 1, True), ("w", n, False)),
            ("v_n w_n", ("v", n, False), ("w", n, False)),
            ("v_n+1 w_n", ("v", n + 1, False), ("w", n, False)),
            ("v_n-1 w_n", ("v", n - 1, False), ("w", n, False)),
            ("w_n v_n", ("w", n, False), ("v", n, False)),
            ("w_n+1 v_n", ("w", n + 1, False), ("v", n, False)),
            ("w_n-1 v_n", ("w", n - 1, False), ("v", n, False)),
            ("v_n w_n*", ("v", n, False), ("w", n, True)),
            ("v_n+1 w_n*", ("v", n + 1, False), ("w", n, True)),
            ("v_n-1 w_n*", ("v", n - 1, False), ("w", n, True)),
            ("v_n* w_n", ("v", n, True), ("w", n, False)),
            # note: v_n* w_{n-1} is NOT zero (its adjoint is the whitelisted
            # w_{n-1}* v_n); the doubly-starred neighbours do vanish
            ("v_n* w_n+1*", ("v", n, True), ("w", n + 1, True)),
            ("v_n* w_n-1*", ("v", n, True), ("w", n - 1, True)),
        ]
    for law, (k1, n1, s1), (k2, n2, s2) in vanishing:
        a, b = op(k1, n1, s1), op(k2, n2, s2)
        if a is None or b is None:
            continue
        add(Check.vanishes("6.1", {"law": law, "n": min(n1, n2)}, a * b))

    # the nonzero-product whitelist among adjacent-index isometries
    whitelist = {("v", False, "v", False), ("w", False, "w", False), ("w", True, "v", False), ("v", True, "w", False)}
    for n in range(rep.floor - 1):
        for k1 in ("v", "w"):
            for s1 in (False, True):
                for k2 in ("v", "w"):
                    for s2 in (False, True):
                        a, b = op(k1, n, s1), op(k2, n + 1, s2)
                        if a is None or b is None:
                            continue
                        name = f"{k1}{'*' if s1 else ''}_n {k2}{'*' if s2 else ''}_n+1"
                        if (k1, s1, k2, s2) in whitelist:
                            add(Check.nonzero("whitelist", {"product": name, "n": n}, a * b))
                        else:
                            add(Check.vanishes("whitelist", {"product": name, "n": n}, a * b))

    # locality: operators two or more floors apart commute
    isos = _isometry_family(rep)
    for k1, n1, a in isos:
        for k2, n2, b in isos:
            if n2 - n1 >= 2:
                for s1, x in (("", a), ("*", a.adjoint())):
                    for s2, y in (("", b), ("*", b.adjoint())):
                        add(
                            Check.vanishes(
                                "locality",
                                {"commutator": f"{k1}{s1}{n1},{k2}{s2}{n2}"},
                                x * y - y * x,
                            )
                        )
        for kind, r, p in diag:
            if r <= n1 - 1 or r >= n1 + 2:
                add(Check.vanishes("locality", {"commutator": f"{k1}{n1},{kind}{r}"}, a * p - p * a))

    # braid triples (both sides vanish) and the 6.3 list
    for kind in ("v", "w"):
        lowest = 0 if kind == "v" else 1
        for n in range(lowest, rep.floor - 1):
            a, b = rep.gen(kind, n), rep.gen(kind, n + 1)
            add(Check.equality("braid", {"family": kind, "n": n}, a * b * a, b * a * b))
            add(Check.vanishes("6.3", {"family": kind, "law": "x_n x_n+1 x_n", "n": n}, a * b * a))
            add(Check.vanishes("6.3", {"family": kind, "law": "x_n+1 x_n x_n+1", "n": n}, b * a * b))

    # partition of unity by the embedded floor-r matrix units
    for r in range(rep.floor):
        add(Check.equality("unit-partition", {"r": r}, _unit_partition(rep, r), one))

    return report


def _one_minus_times(x: SparseOperator, y: SparseOperator) -> SparseOperator:
    """(1 - x) y, written y - x y so that no product meets the identity."""
    return y - x * y


def _times_one_minus(y: SparseOperator, x: SparseOperator) -> SparseOperator:
    """y (1 - x), written y - y x."""
    return y - y * x


def _unit_partition(rep: Representation, r: int) -> SparseOperator:
    """The sum of the diagonal matrix units T(x, x) over the floor-r
    prefixes x, in one pass: T(x, x) keeps exactly the paths through x, so
    each bucket of paths sharing a prefix adds its diagonal units to one
    entries dict."""
    buckets: dict[Path, list[int]] = {}
    for j, p in enumerate(rep.ctx.paths):
        buckets.setdefault(p[: r + 1], []).append(j)
    entries: Entries = {}
    for members in buckets.values():
        for j in members:
            entries[(j, j)] = entries.get((j, j), 0) + 1
    return SparseOperator(rep.ctx, rep.lam, entries)


def yang_baxter_check(floor: int, lam=Fraction(1), pairs: Iterable[tuple] | None = None, rep: Representation | None = None) -> Report:
    """R_n(s) R_{n+1}(s+t) R_n(t) == R_{n+1}(t) R_n(s+t) R_{n+1}(s) with
    R_n(s) = 1 + s*v_n, reported at each point (s, t) of a rational grid.

    With a = v_n and b = v_{n+1}, expanding both sides in any ring leaves
    LHS - RHS = st(a^2 - b^2) + st(s+t)(aba - bab): the constant, linear
    and ab/ba terms cancel.  So the two coefficient operators are built
    once per n, and each point's check is on that exact difference: its
    status and witness are those of the two triple products compared
    directly.  The identity holds for all s, t iff both coefficients
    vanish; the default grid {0, 1, 2} x {0, 1, 2} decides that, since at
    (1, 1) and (1, 2) the difference is (a^2 - b^2) + 2(aba - bab) and
    2(a^2 - b^2) + 6(aba - bab).  The grid only names the points reported.

    Needs floor >= 2 so that a pair v_n, v_n+1 exists.
    """
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    rep = rep or _representation(floor, Fraction(lam))
    if pairs is None:
        pairs = [(s, t) for s in (0, 1, 2) for t in (0, 1, 2)]
    pairs = [(Fraction(s), Fraction(t)) for s, t in pairs]
    report = Report()
    for n in range(rep.floor - 1):
        a, b = rep.gen("v", n), rep.gen("v", n + 1)
        ab = a * b
        square = a * a - b * b
        cube = ab * a - b * ab
        for s, t in pairs:
            difference = square.scale(s * t) + cube.scale(s * t * (s + t))
            report.checks.append(Check.vanishes("6.4", {"n": n, "s": str(s), "t": str(t)}, difference))
    return report


def verify_braiding_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """Projection properties of E/F, orthogonality, distance-2 commutation,
    the eight triple-product identities with exact right-hand sides, the
    vanishing mixed products, the product expansions, and the dominance
    tau*E_n - E_n E_m E_n == tau * (exact self-adjoint idempotent).

    Needs floor >= 4 so that consecutive triples fit."""
    if floor < 4:
        raise ValueError("the braiding suite needs floor >= 4")
    rep = rep or _representation(floor, Fraction(lam))
    lam = rep.lam
    tau = rep.tau()
    report = Report()
    add = report.checks.append

    projections = [("E", n) for n in range(rep.floor)] + [("F", n) for n in range(1, rep.floor)]
    for kind, n in projections:
        p = rep.tl(kind, n)
        add(Check("6.5" if kind == "E" else "6.6", {"kind": kind, "n": n, "law": "projection"},
                  "pass" if p.is_projection() else "fail"))

    # 6.7: E_n and F_n are orthogonal
    for n in range(1, rep.floor):
        e_proj, f_proj = rep.tl("E", n), rep.tl("F", n)
        add(Check.vanishes("6.7", {"n": n, "law": "E F"}, e_proj * f_proj))
        add(Check.vanishes("6.7", {"n": n, "law": "F E"}, f_proj * e_proj))

    # 6.8: commutation at distance >= 2
    for k1, n1 in projections:
        for k2, n2 in projections:
            if n2 - n1 >= 2:
                a, b = rep.tl(k1, n1), rep.tl(k2, n2)
                add(Check.vanishes("6.8", {"commutator": f"{k1}{n1},{k2}{n2}"}, a * b - b * a))

    # 6.9 - 6.12: triple products with exact right-hand sides
    for n in range(rep.floor - 1):
        e_lo, e_hi = rep.tl("E", n), rep.tl("E", n + 1)
        if n + 2 <= rep.floor:
            add(Check.equality("6.9", {"n": n, "law": "E_n E_n+1 E_n"},
                               e_lo * e_hi * e_lo, (e_lo * rep.gen("e", n + 2)).scale(tau)))
        add(Check.equality("6.9", {"n": n, "law": "E_n+1 E_n E_n+1"},
                           e_hi * e_lo * e_hi, (e_hi * rep.gen("g", n)).scale(tau)))
    for n in range(1, rep.floor - 1):
        f_lo, f_hi = rep.tl("F", n), rep.tl("F", n + 1)
        if n + 2 <= rep.floor:
            add(Check.equality("6.10", {"n": n, "law": "F_n F_n+1 F_n"},
                               f_lo * f_hi * f_lo, (f_lo * rep.gen("f", n + 2)).scale(tau)))
        add(Check.equality("6.10", {"n": n, "law": "F_n+1 F_n F_n+1"},
                           f_hi * f_lo * f_hi, (f_hi * rep.gen("g", n)).scale(tau)))
    for n in range(rep.floor - 1):
        e_lo = rep.tl("E", n)
        f_hi = rep.tl("F", n + 1)
        if n + 2 <= rep.floor:
            add(Check.equality("6.11", {"n": n, "law": "E_n F_n+1 E_n"},
                               e_lo * f_hi * e_lo, (e_lo * rep.gen("f", n + 2)).scale(lam * tau)))
        if n >= 1 and n + 2 <= rep.floor:
            f_lo, e_hi = rep.tl("F", n), rep.tl("E", n + 1)
            add(Check.equality("6.11", {"n": n, "law": "F_n E_n+1 F_n"},
                               f_lo * e_hi * f_lo, (f_lo * rep.gen("e", n + 2)).scale(lam * tau)))
    for n in range(1, rep.floor - 1):
        e_hi, f_lo = rep.tl("E", n + 1), rep.tl("F", n)
        add(Check.equality("6.12", {"n": n, "law": "E_n+1 F_n E_n+1"},
                           e_hi * f_lo * e_hi, (e_hi * rep.gen("e", n)).scale(lam * tau)))
    for n in range(rep.floor - 1):
        f_hi, e_lo = rep.tl("F", n + 1), rep.tl("E", n)
        add(Check.equality("6.12", {"n": n, "law": "F_n+1 E_n F_n+1"},
                           f_hi * e_lo * f_hi, (f_hi * rep.gen("f", n)).scale(lam * tau)))

    # 6.13 / 6.14: vanishing mixed products
    for n in range(1, rep.floor - 1):
        e_lo, e_hi = rep.tl("E", n), rep.tl("E", n + 1)
        f_lo, f_hi = rep.tl("F", n), rep.tl("F", n + 1)
        for law, prod in (
            ("E_n E_n+1 F_n", e_lo * e_hi * f_lo),
            ("E_n F_n+1 F_n", e_lo * f_hi * f_lo),
            ("E_n+1 E_n F_n+1", e_hi * e_lo * f_hi),
            ("E_n+1 F_n F_n+1", e_hi * f_lo * f_hi),
        ):
            add(Check.vanishes("6.13", {"n": n, "law": law}, prod))
        for law, prod in (
            ("F_n E_n+1 E_n", f_lo * e_hi * e_lo),
            ("F_n F_n+1 E_n", f_lo * f_hi * e_lo),
            ("F_n+1 E_n E_n+1", f_hi * e_lo * e_hi),
            ("F_n+1 F_n E_n+1", f_hi * f_lo * e_hi),
        ):
            add(Check.vanishes("6.14", {"n": n, "law": law}, prod))

    # 6.15 / 6.16: the two-factor expansions of E_n E_n+1 and E_n+1 E_n
    unit = Fraction(1, (1 + lam) ** 2)
    for n in range(rep.floor - 1):
        v_lo, v_hi = rep.gen("v", n), rep.gen("v", n + 1)
        e_lo, e_hi = rep.tl("E", n), rep.tl("E", n + 1)
        left_factor = v_lo.adjoint() * v_lo + v_lo.scale(1, root=True)
        right_factor = v_hi + (v_hi * v_hi.adjoint()).scale(1, root=True)
        add(Check.equality("6.15", {"n": n}, e_lo * e_hi, (left_factor * right_factor).scale(unit, root=True)))
        add(Check.equality("6.16", {"n": n}, e_hi * e_lo, (e_lo * e_hi).adjoint()))

    # dominance: tau E_n - E_n E_m E_n is tau times an exact projection
    for n in range(rep.floor - 1):
        e_lo, e_hi = rep.tl("E", n), rep.tl("E", n + 1)
        if n + 2 <= rep.floor:
            residue = _times_one_minus(e_lo, rep.gen("e", n + 2))
            ok = residue.is_projection()
            add(Check("dominance", {"n": n, "law": "E_n(1-e_n+2) projection"}, "pass" if ok else "fail"))
            add(Check.equality("dominance", {"n": n, "law": "tau E_n - E_n E_n+1 E_n"},
                               e_lo.scale(tau) - e_lo * e_hi * e_lo, residue.scale(tau)))
        residue = _times_one_minus(e_hi, rep.gen("g", n))
        ok = residue.is_projection()
        add(Check("dominance", {"n": n, "law": "E_n+1(1-g_n) projection"}, "pass" if ok else "fail"))
        add(Check.equality("dominance", {"n": n, "law": "tau E_n+1 - E_n+1 E_n E_n+1"},
                           e_hi.scale(tau) - e_hi * e_lo * e_hi, residue.scale(tau)))

    return report


def run_all_suites(floor: int, lam, rep: Representation | None = None) -> Report:
    rep = rep or _representation(floor, Fraction(lam))
    report = verify_relation_suite(floor, lam, rep)
    report.extend(yang_baxter_check(floor, lam, rep=rep))
    report.extend(verify_braiding_suite(floor, lam, rep))
    return report


def random_sign_mutation(rep: Representation, rng: random.Random) -> tuple[Representation, dict]:
    """Flip the sign of one uniformly chosen nonzero entry of one generator."""
    kinds = [("e", n) for n in range(1, rep.floor + 1)]
    kinds += [("f", n) for n in range(rep.floor + 1)]
    kinds += [("g", n) for n in range(rep.floor + 1)]
    kinds += [("v", n) for n in range(rep.floor)]
    kinds += [("w", n) for n in range(1, rep.floor)]
    kind, n = kinds[rng.randrange(len(kinds))]
    entries = sorted(rep.gen(kind, n).support())
    entry = entries[rng.randrange(len(entries))]
    info = {"kind": kind, "n": n, "row": entry[0], "col": entry[1]}
    return rep.with_sign_flip(kind, n, entry), info
