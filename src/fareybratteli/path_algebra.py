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
  triples, and the partition of unity by the floor-r matrix units,
  summed at floor r, their home floor.  The support laws (1 - x)y = 0 are
  formed as y - xy, as are the dominance residues, so no product meets
  the dense identity.
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

Floors and the tail embedding.  A floor-M path is the head of every floor-N
path that extends it, and X -> X (x) 1 on path tails (``lift``) is the
canonical embedding iota of the floor-M model into the floor-N model: the
floor-N entry (x + t, y + t) carries X's entry (x, y) for every tail t
continuing from their common endpoint.  iota is a unital, injective
*-homomorphism, so an identity among operators defined at floor M holds at
floor N exactly when it holds at floor M.  Each generator is therefore
built once at its home floor, the lowest floor that holds it (n for e_n,
f_n and g_n; n + 1 for v_n, w_n and the projections E_n, F_n built from
them), and arithmetic across floors lifts the lower operand through iota,
memoised per target floor.  Each suite check is decided at the highest
home floor among its operators; a failing check reads its witness at
floor N, through iota, so witnesses name the same floor-N rows and columns
as a floor-N evaluation would.  The public accessors (``gen``, ``tl``,
``generator``, ``flip_isometry``, ``tl_projection``) return floor-N
operators.  A mutant's flipped generator lives at floor N, so the checks
that read it are decided there.

Generators for a given (N, lam) are built once per ``Representation`` and
shared read-only; suite checks are independent of one another.
"""

from __future__ import annotations

import json
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
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


@lru_cache(maxsize=None)
def _extensions(low: PathContext, high: PathContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per floor-M path, the index of its first floor-N extension and the
    number of its extensions.  Paths sort lexicographically, so the
    extensions of one path are consecutive and ordered by their tails, and
    the tails continuing from one endpoint are the same for every path that
    ends there: the k-th extensions of two paths with a common endpoint
    share their tail."""
    head = low.floor + 1
    starts, counts = [0] * low.dim, [0] * low.dim
    index = low.index
    for j, p in enumerate(high.paths):
        i = index[p[:head]]
        if not counts[i]:
            starts[i] = j
        counts[i] += 1
    return tuple(starts), tuple(counts)


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
    """Sparse matrix over Q(sqrt(lam)) indexed by the paths of one floor.

    The value is (A + x*B) / d with x = sqrt(lam) kept formal: ``A`` and
    ``B`` map (i, j) to nonzero ints and ``d`` is a positive int.  The form
    is canonical (no zero entries, gcd(d, every entry) == 1), so equal
    operators have equal fields.  Entries couple only paths with the same
    endpoint; this block structure is checked whenever an operator is built.
    Sums and products of operators at different floors lift the lower one
    through the tail embedding (``lift``); equality stays strict, within
    one path context.
    """

    __slots__ = ("ctx", "lam", "A", "B", "d", "_row_index", "_adjoint", "_lifts", "__weakref__")

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
        self._lifts: dict[PathContext, SparseOperator] | None = None

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

    def lift(self, ctx: PathContext) -> "SparseOperator":
        """The tail embedding X -> X (x) 1 into the floor of ``ctx``: the
        entry (x, y) is copied to (x + t, y + t) for every tail t that
        continues from the common endpoint of x and y.  Linear in the
        output's nonzeros, built on first use per target floor and kept;
        equality, hashing and products never look at the kept lifts."""
        if ctx is self.ctx:
            return self
        if ctx.floor <= self.ctx.floor:
            raise ValueError(f"no tail embedding of floor {self.ctx.floor} into this floor-{ctx.floor} context")
        if self._lifts is None:
            self._lifts = {}
        out = self._lifts.get(ctx)
        if out is None:
            starts, counts = _extensions(self.ctx, ctx)
            A, B = (
                {(starts[i] + k, starts[j] + k): val for (i, j), val in part.items() for k in range(counts[j])}
                for part in (self.A, self.B)
            )
            out = self._lifts[ctx] = SparseOperator(ctx, self.lam, A, B, self.d)
        return out

    def _common(self, other: "SparseOperator") -> tuple["SparseOperator", "SparseOperator"]:
        """Both operands at the higher of their floors, the lower one lifted."""
        if self.lam != other.lam:
            raise ValueError("operators live in different representations")
        if self.ctx.floor < other.ctx.floor:
            return self.lift(other.ctx), other
        return self, other.lift(self.ctx)

    def _combine(self, other: "SparseOperator", sign: int) -> "SparseOperator":
        """self + sign*other over the least common denominator."""
        x, y = self._common(other)
        g = gcd(x.d, y.d)
        mine, theirs = y.d // g, sign * (x.d // g)
        parts = []
        for left, right in ((x.A, y.A), (x.B, y.B)):
            out = dict(left) if mine == 1 else {key: mine * val for key, val in left.items()}
            for key, val in right.items():
                out[key] = out.get(key, 0) + theirs * val
            parts.append(out)
        return SparseOperator(x.ctx, x.lam, parts[0], parts[1], x.d * mine)

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
        x, y = self._common(other)
        d = x.d * y.d
        rows_a, rows_b = y._rows()
        if not (x.B or y.B):
            return SparseOperator(x.ctx, x.lam, _matmul({}, x.A, rows_a, 1), None, d)
        # (A1 + x B1)(A2 + x B2) = A1 A2 + (p/q) B1 B2 + x (A1 B2 + B1 A2), lam = p/q
        p, q = x.lam.numerator, x.lam.denominator
        A = _matmul(_matmul({}, x.A, rows_a, q), x.B, rows_b, p)
        B = _matmul(_matmul({}, x.A, rows_b, q), x.B, rows_a, q)
        return SparseOperator(x.ctx, x.lam, A, B, d * q)

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
        """Self-adjoint and idempotent.  Self-adjointness is read off the
        entries, so no transposed copy is built or kept."""
        return _symmetric(self.A) and _symmetric(self.B) and self * self == self

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

    def witness(self, top: PathContext | None = None) -> dict | None:
        """Row, column and value of the least nonzero entry, or None; with
        ``top``, of the operator lifted to that floor."""
        if self.is_zero():
            return None
        op = self if top is None else self.lift(top)
        row, col = min(op.support())
        return {"row": row, "col": col, "value": op._text(op.A.get((row, col), 0), op.B.get((row, col), 0))}

    def first_entry_of_difference(self, other: "SparseOperator", top: PathContext | None = None) -> dict | None:
        """None when the two are equal at their common floor, else the
        witness of their difference (at floor ``top`` when given)."""
        left, right = self._common(other)
        return None if left == right else (left - right).witness(top)

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


def _symmetric(entries: Entries) -> bool:
    get = entries.get
    return all(get((j, i)) == val for (i, j), val in entries.items())


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


# ---------------------------------------------------------------------------
# generators


def _edge_projection(ctx: PathContext, lam: Fraction, n: int, offset: int) -> SparseOperator:
    """e_n, f_n or g_n (offset -1, +1, 0): the paths whose edge into floor n
    leaves xi_{n-1} towards 2*xi_{n-1} + offset."""
    return SparseOperator.diagonal(ctx, lam, lambda p: _xi(p, n) == 2 * _xi(p, n - 1) + offset)


def _flip(ctx: PathContext, lam: Fraction, n: int, sign: int) -> SparseOperator:
    """Diamond flip at floor n: sources sit on the straight edge with the
    floor-(n+1) coordinate at 4*xi_{n-1} + sign; targets move xi_n to
    2*xi_{n-1} + sign.  sign +1 builds v_n, sign -1 builds w_n."""
    entries = {}
    for j, p in enumerate(ctx.paths):
        base = _xi(p, n - 1)
        if p[n] == 2 * base and p[n + 1] == 4 * base + sign:
            target = p[:n] + (2 * base + sign,) + p[n + 1 :]
            entries[(ctx.index[target], j)] = 1
    return SparseOperator(ctx, lam, entries)


# The generator index ranges, one row per kind: (kind, lowest index, reach,
# build function, its sign).  At floor N the indices run from the lowest one
# to N - reach; kind_n reads the path down to floor n + reach, its home floor.
_GENERATORS = (
    ("e", 1, 0, _edge_projection, -1),
    ("f", 0, 0, _edge_projection, +1),
    ("g", 0, 0, _edge_projection, 0),
    ("v", 0, 1, _flip, +1),
    ("w", 1, 1, _flip, -1),
)


def _generator_keys(floor: int, kinds: str = "efgvw") -> list[tuple[str, int]]:
    """(kind, n) of every generator of the given kinds at floor N, in the
    order of the table and then of n."""
    return [(kind, n) for kind, low, reach, _, _ in _GENERATORS if kind in kinds for n in range(low, floor - reach + 1)]


def _projection_keys(floor: int) -> list[tuple[str, int]]:
    """E_n for every v_n, then F_n for every w_n."""
    return [("E" if kind == "v" else "F", n) for kind, n in _generator_keys(floor, "vw")]


def _projection(u: SparseOperator, lam: Fraction) -> SparseOperator:
    """E_n from u = v_n, or F_n from u = w_n, at the floor of u."""
    unit = Fraction(1, 1 + lam)
    return (
        (u.adjoint() * u).scale(unit)
        + u.scale(unit, root=True)
        + u.adjoint().scale(unit, root=True)
        + (u * u.adjoint()).scale(unit * lam)
    )


class Representation:
    """All generators of the floor-N model over Q(sqrt(lam)), built once.

    Valid index ranges at floor N (``_GENERATORS``): e_1..e_N, f_0..f_N,
    g_0..g_N (diagonal edge-class projections), the diamond flips
    v_0..v_{N-1} and w_1..w_{N-1}, and the derived projections
    E_0..E_{N-1}, F_1..F_{N-1}.  Each is kept at its home floor and lifted
    to floor N by the public accessors.
    """

    def __init__(self, floor: int, lam: Fraction):
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("lam must be a positive rational")
        self.floor = floor
        self.lam = lam
        self.ctx = path_context(floor)
        # each generator at its home floor, or at floor N once a mutant flips it
        self._gens: dict[tuple[str, int], SparseOperator] = {}
        self._tl: dict[tuple[str, int], SparseOperator] = {}
        for kind, low, reach, build, sign in _GENERATORS:
            for n in range(low, floor - reach + 1):
                self._gens[(kind, n)] = build(path_context(n + reach), lam, n, sign)

    # -- access --------------------------------------------------------------

    def has(self, kind: str, n: int) -> bool:
        return (kind, n) in self._gens

    def _home(self, kind: str, n: int) -> SparseOperator:
        """Generator kind_n, or the projection E_n / F_n, at its home floor:
        the one accessor through which the suites read operators."""
        if kind in ("E", "F"):
            key = (kind, n)
            if key not in self._tl:
                self._tl[key] = _projection(self._home("v" if kind == "E" else "w", n), self.lam)
            return self._tl[key]
        try:
            return self._gens[(kind, n)]
        except KeyError:
            raise ValueError(f"{kind}_{n} is not defined at floor {self.floor}") from None

    def gen(self, kind: str, n: int) -> SparseOperator:
        """Generator kind_n (e, f, g, v or w) at floor N."""
        if kind in ("E", "F"):
            raise ValueError(f"{kind}_{n} is not defined at floor {self.floor}")
        return self._home(kind, n).lift(self.ctx)

    def identity(self) -> SparseOperator:
        return SparseOperator.identity(self.ctx, self.lam)

    def tau(self) -> Fraction:
        return self.lam / (1 + self.lam) ** 2

    def tl(self, kind: str, n: int) -> SparseOperator:
        """E_n (from v_n) or F_n (from w_n) at floor N."""
        if kind not in ("E", "F"):
            raise ValueError(f"unknown projection kind {kind!r}")
        return self._home(kind, n).lift(self.ctx)

    def with_sign_flip(self, kind: str, n: int, entry: tuple[int, int]) -> "Representation":
        """Copy of the representation with one floor-N generator entry
        negated; the flipped generator lives at floor N, and every E/F whose
        v/w is unchanged is shared with this representation."""
        victim = self.gen(kind, n)
        if entry not in victim.support():
            raise ValueError(f"{kind}_{n} has no entry at {entry}")
        mutated = object.__new__(Representation)
        mutated.floor, mutated.lam, mutated.ctx = self.floor, self.lam, self.ctx
        mutated._gens = dict(self._gens)
        mutated._gens[(kind, n)] = victim.with_negated_entry(entry)
        stale = {"v": ("E", n), "w": ("F", n)}.get(kind)
        mutated._tl = {key: self._home(*key) for key in _projection_keys(self.floor) if key != stale}
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
    """One decided identity.  ``floor`` is where it was decided: the highest
    floor among its operators.  A failure's witness is read at floor ``top``
    when one is given, so that it names floor-N rows and columns."""

    equation: str
    indices: dict
    status: str
    witness: dict | None = None
    floor: int | None = field(default=None, compare=False)

    @staticmethod
    def equality(equation: str, indices: dict, left: SparseOperator, right: SparseOperator,
                 top: PathContext | None = None) -> "Check":
        witness = left.first_entry_of_difference(right, top)
        floor = max(left.ctx.floor, right.ctx.floor)
        return Check(equation, indices, "pass" if witness is None else "fail", witness, floor)

    @staticmethod
    def vanishes(equation: str, indices: dict, op: SparseOperator, top: PathContext | None = None) -> "Check":
        witness = op.witness(top)
        return Check(equation, indices, "pass" if witness is None else "fail", witness, op.ctx.floor)

    @staticmethod
    def nonzero(equation: str, indices: dict, op: SparseOperator) -> "Check":
        if op.is_zero():
            return Check(equation, indices, "fail", {"row": -1, "col": -1, "value": "0"}, op.ctx.floor)
        return Check(equation, indices, "pass", None, op.ctx.floor)

    @staticmethod
    def projection(equation: str, indices: dict, op: SparseOperator) -> "Check":
        return Check(equation, indices, "pass" if op.is_projection() else "fail", None, op.ctx.floor)


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

    def decided_at(self) -> dict[int, int]:
        """How many checks were decided at each floor."""
        counts: dict[int, int] = {}
        for c in self.checks:
            counts[c.floor] = counts.get(c.floor, 0) + 1
        return dict(sorted(counts.items()))

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


def _readers(rep: Representation):
    """What every suite reads through: operators at their home floors, and
    equality and vanishing checks whose failures name floor-N witnesses."""
    return rep._home, partial(Check.equality, top=rep.ctx), partial(Check.vanishes, top=rep.ctx)


def _family(rep: Representation, kinds: str) -> list[tuple[str, int, SparseOperator]]:
    """(kind, n, operator at its home floor) for the generators of the given kinds."""
    return [(kind, n, rep._home(kind, n)) for kind, n in _generator_keys(rep.floor, kinds)]


def verify_relation_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """(R1)-(R4), the vanishing products, the nonzero whitelist, far-floor
    commutation (the locality of the model), the braid triples, and the
    partition of unity by embedded matrix units.

    Needs floor >= 4 so that every index family contributes instances."""
    if floor < 4:
        raise ValueError("the relation suite needs floor >= 4")
    rep = rep or _representation(floor, Fraction(lam))
    home, equality, vanishes = _readers(rep)
    one = SparseOperator.identity(path_context(0), rep.lam)  # lifts to what it meets
    report = Report()
    add = report.checks.append

    # (R1): self-adjoint idempotents summing to 1, mutually commuting; the
    # e's first, then f_n and g_n side by side
    diag = sorted(_family(rep, "efg"), key=lambda item: (item[0] != "e", item[1]))
    for kind, n, p in diag:
        add(Check.projection("R1", {"kind": kind, "n": n}, p))
    for n in range(rep.floor + 1):
        total = home("f", n) + home("g", n)
        if n >= 1:
            total = total + home("e", n)
        add(equality("R1", {"sum_at": n}, total, one))
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            k1, n1, p1 = diag[i]
            k2, n2, p2 = diag[j]
            add(
                vanishes(
                    "R1", {"commutator": f"{k1}{n1},{k2}{n2}"}, p1 * p2 - p2 * p1
                )
            )

    # (R2): support laws
    for n in range(rep.floor):
        v = home("v", n)
        f, g = home("f", n), home("g", n)
        e1, f1 = home("e", n + 1), home("f", n + 1)
        add(vanishes("R2", {"family": "v", "n": n, "law": "(1-f_n)v_n"}, _one_minus_times(f, v)))
        add(vanishes("R2", {"family": "v", "n": n, "law": "(1-e_n+1)v_n"}, _one_minus_times(e1, v)))
        add(vanishes("R2", {"family": "v", "n": n, "law": "v_n(1-g_n)"}, _times_one_minus(v, g)))
        add(vanishes("R2", {"family": "v", "n": n, "law": "v_n(1-f_n+1)"}, _times_one_minus(v, f1)))
    for n in range(1, rep.floor):
        w = home("w", n)
        e, g = home("e", n), home("g", n)
        e1, f1 = home("e", n + 1), home("f", n + 1)
        add(vanishes("R2", {"family": "w", "n": n, "law": "(1-e_n)w_n"}, _one_minus_times(e, w)))
        add(vanishes("R2", {"family": "w", "n": n, "law": "(1-f_n+1)w_n"}, _one_minus_times(f1, w)))
        add(vanishes("R2", {"family": "w", "n": n, "law": "w_n(1-g_n)"}, _times_one_minus(w, g)))
        add(vanishes("R2", {"family": "w", "n": n, "law": "w_n(1-e_n+1)"}, _times_one_minus(w, e1)))

    # (R3): intertwining
    for n in range(rep.floor):
        v = home("v", n)
        add(equality("R3", {"family": "v", "n": n, "law": "v g = f v"}, v * home("g", n), home("f", n) * v))
        add(
            equality(
                "R3", {"family": "v", "n": n, "law": "v f' = e' v"}, v * home("f", n + 1), home("e", n + 1) * v
            )
        )
    for n in range(1, rep.floor):
        w = home("w", n)
        add(equality("R3", {"family": "w", "n": n, "law": "w g = e w"}, w * home("g", n), home("e", n) * w))
        add(
            equality(
                "R3", {"family": "w", "n": n, "law": "w e' = f' w"}, w * home("e", n + 1), home("f", n + 1) * w
            )
        )

    # (R4): initial and final supports
    for n in range(rep.floor):
        v = home("v", n)
        add(equality("R4", {"family": "v", "n": n, "law": "v*v"}, v.adjoint() * v, home("g", n) * home("f", n + 1)))
        add(equality("R4", {"family": "v", "n": n, "law": "vv*"}, v * v.adjoint(), home("f", n) * home("e", n + 1)))
    for n in range(1, rep.floor):
        w = home("w", n)
        add(equality("R4", {"family": "w", "n": n, "law": "w*w"}, w.adjoint() * w, home("g", n) * home("e", n + 1)))
        add(equality("R4", {"family": "w", "n": n, "law": "ww*"}, w * w.adjoint(), home("e", n) * home("f", n + 1)))

    # vanishing products between adjacent and equal indices
    def op(kind: str, n: int, star: bool) -> SparseOperator | None:
        if not rep.has(kind, n):
            return None
        base = home(kind, n)
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
        add(vanishes("6.1", {"law": law, "n": min(n1, n2)}, a * b))

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
                            add(vanishes("whitelist", {"product": name, "n": n}, a * b))

    # locality: operators two or more floors apart commute
    isos = _family(rep, "vw")
    for k1, n1, a in isos:
        for k2, n2, b in isos:
            if n2 - n1 >= 2:
                for s1, x in (("", a), ("*", a.adjoint())):
                    for s2, y in (("", b), ("*", b.adjoint())):
                        add(
                            vanishes(
                                "locality",
                                {"commutator": f"{k1}{s1}{n1},{k2}{s2}{n2}"},
                                x * y - y * x,
                            )
                        )
        for kind, r, p in diag:
            if r <= n1 - 1 or r >= n1 + 2:
                add(vanishes("locality", {"commutator": f"{k1}{n1},{kind}{r}"}, a * p - p * a))

    # braid triples (both sides vanish) and the 6.3 list
    for kind in ("v", "w"):
        lowest = 0 if kind == "v" else 1
        for n in range(lowest, rep.floor - 1):
            a, b = home(kind, n), home(kind, n + 1)
            add(equality("braid", {"family": kind, "n": n}, a * b * a, b * a * b))
            add(vanishes("6.3", {"family": kind, "law": "x_n x_n+1 x_n", "n": n}, a * b * a))
            add(vanishes("6.3", {"family": kind, "law": "x_n+1 x_n x_n+1", "n": n}, b * a * b))

    # partition of unity by the embedded floor-r matrix units
    for r in range(rep.floor):
        add(equality("unit-partition", {"r": r}, _unit_partition(rep, r), one))

    return report


def _one_minus_times(x: SparseOperator, y: SparseOperator) -> SparseOperator:
    """(1 - x) y, written y - x y so that no product meets the identity."""
    return y - x * y


def _times_one_minus(y: SparseOperator, x: SparseOperator) -> SparseOperator:
    """y (1 - x), written y - y x."""
    return y - y * x


def _unit_partition(rep: Representation, r: int) -> SparseOperator:
    """The sum of the diagonal matrix units T(x, x) over the floor-r
    prefixes x, built at floor r, the home of the floor-r units: there each
    prefix is a whole path and T(x, x) its diagonal unit, which the tail
    embedding carries to the floor-N unit keeping the paths through x."""
    ctx = path_context(r)
    entries: Entries = {}
    for x in ctx.paths:
        i = ctx.index[x]
        entries[(i, i)] = entries.get((i, i), 0) + 1
    return SparseOperator(ctx, rep.lam, entries)


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
    home, _, vanishes = _readers(rep)
    report = Report()
    for n in range(rep.floor - 1):
        a, b = home("v", n), home("v", n + 1)
        ab = a * b
        square = a * a - b * b
        cube = ab * a - b * ab
        for s, t in pairs:
            difference = square.scale(s * t) + cube.scale(s * t * (s + t))
            report.checks.append(vanishes("6.4", {"n": n, "s": str(s), "t": str(t)}, difference))
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
    home, equality, vanishes = _readers(rep)
    lam = rep.lam
    tau = rep.tau()
    report = Report()
    add = report.checks.append

    projections = _projection_keys(rep.floor)
    for kind, n in projections:
        add(Check.projection("6.5" if kind == "E" else "6.6", {"kind": kind, "n": n, "law": "projection"},
                             home(kind, n)))

    # 6.7: E_n and F_n are orthogonal
    for n in range(1, rep.floor):
        e_proj, f_proj = home("E", n), home("F", n)
        add(vanishes("6.7", {"n": n, "law": "E F"}, e_proj * f_proj))
        add(vanishes("6.7", {"n": n, "law": "F E"}, f_proj * e_proj))

    # 6.8: commutation at distance >= 2
    for k1, n1 in projections:
        for k2, n2 in projections:
            if n2 - n1 >= 2:
                a, b = home(k1, n1), home(k2, n2)
                add(vanishes("6.8", {"commutator": f"{k1}{n1},{k2}{n2}"}, a * b - b * a))

    # 6.9 - 6.12: triple products with exact right-hand sides
    for n in range(rep.floor - 1):
        e_lo, e_hi = home("E", n), home("E", n + 1)
        if n + 2 <= rep.floor:
            add(equality("6.9", {"n": n, "law": "E_n E_n+1 E_n"},
                         e_lo * e_hi * e_lo, (e_lo * home("e", n + 2)).scale(tau)))
        add(equality("6.9", {"n": n, "law": "E_n+1 E_n E_n+1"},
                     e_hi * e_lo * e_hi, (e_hi * home("g", n)).scale(tau)))
    for n in range(1, rep.floor - 1):
        f_lo, f_hi = home("F", n), home("F", n + 1)
        if n + 2 <= rep.floor:
            add(equality("6.10", {"n": n, "law": "F_n F_n+1 F_n"},
                         f_lo * f_hi * f_lo, (f_lo * home("f", n + 2)).scale(tau)))
        add(equality("6.10", {"n": n, "law": "F_n+1 F_n F_n+1"},
                     f_hi * f_lo * f_hi, (f_hi * home("g", n)).scale(tau)))
    for n in range(rep.floor - 1):
        e_lo = home("E", n)
        f_hi = home("F", n + 1)
        if n + 2 <= rep.floor:
            add(equality("6.11", {"n": n, "law": "E_n F_n+1 E_n"},
                         e_lo * f_hi * e_lo, (e_lo * home("f", n + 2)).scale(lam * tau)))
        if n >= 1 and n + 2 <= rep.floor:
            f_lo, e_hi = home("F", n), home("E", n + 1)
            add(equality("6.11", {"n": n, "law": "F_n E_n+1 F_n"},
                         f_lo * e_hi * f_lo, (f_lo * home("e", n + 2)).scale(lam * tau)))
    for n in range(1, rep.floor - 1):
        e_hi, f_lo = home("E", n + 1), home("F", n)
        add(equality("6.12", {"n": n, "law": "E_n+1 F_n E_n+1"},
                     e_hi * f_lo * e_hi, (e_hi * home("e", n)).scale(lam * tau)))
    for n in range(rep.floor - 1):
        f_hi, e_lo = home("F", n + 1), home("E", n)
        add(equality("6.12", {"n": n, "law": "F_n+1 E_n F_n+1"},
                     f_hi * e_lo * f_hi, (f_hi * home("f", n)).scale(lam * tau)))

    # 6.13 / 6.14: vanishing mixed products
    for n in range(1, rep.floor - 1):
        e_lo, e_hi = home("E", n), home("E", n + 1)
        f_lo, f_hi = home("F", n), home("F", n + 1)
        for law, prod in (
            ("E_n E_n+1 F_n", e_lo * e_hi * f_lo),
            ("E_n F_n+1 F_n", e_lo * f_hi * f_lo),
            ("E_n+1 E_n F_n+1", e_hi * e_lo * f_hi),
            ("E_n+1 F_n F_n+1", e_hi * f_lo * f_hi),
        ):
            add(vanishes("6.13", {"n": n, "law": law}, prod))
        for law, prod in (
            ("F_n E_n+1 E_n", f_lo * e_hi * e_lo),
            ("F_n F_n+1 E_n", f_lo * f_hi * e_lo),
            ("F_n+1 E_n E_n+1", f_hi * e_lo * e_hi),
            ("F_n+1 F_n E_n+1", f_hi * f_lo * e_hi),
        ):
            add(vanishes("6.14", {"n": n, "law": law}, prod))

    # 6.15 / 6.16: the two-factor expansions of E_n E_n+1 and E_n+1 E_n
    unit = Fraction(1, (1 + lam) ** 2)
    for n in range(rep.floor - 1):
        v_lo, v_hi = home("v", n), home("v", n + 1)
        e_lo, e_hi = home("E", n), home("E", n + 1)
        left_factor = v_lo.adjoint() * v_lo + v_lo.scale(1, root=True)
        right_factor = v_hi + (v_hi * v_hi.adjoint()).scale(1, root=True)
        add(equality("6.15", {"n": n}, e_lo * e_hi, (left_factor * right_factor).scale(unit, root=True)))
        add(equality("6.16", {"n": n}, e_hi * e_lo, (e_lo * e_hi).adjoint()))

    # dominance: tau E_n - E_n E_m E_n is tau times an exact projection
    for n in range(rep.floor - 1):
        e_lo, e_hi = home("E", n), home("E", n + 1)
        if n + 2 <= rep.floor:
            residue = _times_one_minus(e_lo, home("e", n + 2))
            add(Check.projection("dominance", {"n": n, "law": "E_n(1-e_n+2) projection"}, residue))
            add(equality("dominance", {"n": n, "law": "tau E_n - E_n E_n+1 E_n"},
                         e_lo.scale(tau) - e_lo * e_hi * e_lo, residue.scale(tau)))
        residue = _times_one_minus(e_hi, home("g", n))
        add(Check.projection("dominance", {"n": n, "law": "E_n+1(1-g_n) projection"}, residue))
        add(equality("dominance", {"n": n, "law": "tau E_n+1 - E_n+1 E_n E_n+1"},
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
    kinds = _generator_keys(rep.floor)
    kind, n = kinds[rng.randrange(len(kinds))]
    entries = sorted(rep.gen(kind, n).support())
    entry = entries[rng.randrange(len(entries))]
    info = {"kind": kind, "n": n, "row": entry[0], "col": entry[1]}
    return rep.with_sign_flip(kind, n, entry), info
