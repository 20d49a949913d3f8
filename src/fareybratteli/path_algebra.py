"""Finite-floor path model of the diagram and its projection relations.

A path is the tuple of horizontal coordinates (xi_0, ..., xi_N) of a
monotone walk from the augmentation root (whose coordinate is fixed at 0)
down to floor N; consecutive coordinates satisfy |2*xi_n - xi_{n+1}| <= 1.
Matrix units T(xi, eta) reroute the head of a path, so operators are sparse
matrices on path pairs with a common endpoint; the endpoint block sizes
reproduce the tree denominators.

Scalars live in Q(sqrt(lam)), lam = p/q.  An operator is stored in split
integer form (A + x*B)/d, x = sqrt(lam) formal, A and B sparse int matrices,
d a positive common denominator, canonical so that equality is dict
equality.  Products are integer sparse matmuls with x*x = p/q folded in,
reading the right factor through row indexes kept on it; a row with one
entry, as every row of the suites' right factors has, is indexed as its
bare (col, val) pair.  A ring operation on canonical block operators gives
a block operator, so sums, scalings and products go through the trusted
``_derived`` (zeros dropped only when a scan finds one, then lowest terms)
and lifts, adjoints and E/F through ``_canonical`` (their entries are
canonical already); the endpoint-block check stays on every constructor that
takes outside input.
Every identity is decided exactly; scalars appear only at the boundary
(entries, witnesses, traces) as the text ``a+b*sqrt(lam)``.

Floors.  X -> X (x) 1 on path tails (``lift``) is the canonical unital,
injective *-embedding iota of the floor-M model into the floor-N model, so
an identity among floor-M operators holds at floor N exactly when it holds
at floor M.  Each generator is built once at its home floor (n for e_n, f_n,
g_n; n + 1 for v_n, w_n and the E_n, F_n built from them); arithmetic lifts
the lower operand, each check is decided at the highest home floor among
its operators, and a failing one reads its witness at floor N.

The suites are data: ``verify_relation_suite``, ``yang_baxter_check`` and
``verify_braiding_suite`` are each a table of rows built once per floor:
equation id, indices, kind of check (equality, commutes, vanishes,
nonzero, projection) and operand nodes.  A node is a hashable tuple of one of five
kinds, the *-ring the suites need: a letter (kind, n) is a generator or E/F
at its home floor, ("*", x) an adjoint, ("·", x, y) a product,
("+", ((scalar, x), ...)) a linear combination and ("1", r) the identity of
floor r, which lifts to whatever it meets.  A commutation row (R1,
locality, 6.8) passes without products when its two letters carry window
certificates that are apart (below).  Otherwise it is the equality
xy = yx, a starred far-floor one compares the adjoints of products the
unstarred rows form, and only a failing row forms xy - yx, for its
witness.  A support law (1 - x) y or y (1 - x) is y - xy or y - yx.  The
floor-r matrix units T(x, x) sum to the floor-r identity, and the unital
tail embedding carries it to every higher floor, so the unit-partition row
of floor r compares ("1", r) with ("1", 0).  A scalar (c, i, j) is
c sqrt(lam)^i / (1 + lam)^j, so a table serves every lam.  One evaluator
decides the rows through ``Representation._home``; a node that several rows
share (E_n E_n+1 in 6.9, 6.13, 6.15, 6.16 and dominance, or f_n v_n in R2
and R3) is built once per evaluation.

E and F in closed form.  A flip u (v_n or w_n) is a signed partial
permutation whose sources s and targets t are disjoint, so u*u and u u* are
the diagonal projections on the sources and on the targets, and with
lam = p/q, E = (u*u + x u + x u* + lam u u*) / (1 + lam) is A = q on each
source's diagonal and p on each target's, B = q u(t, s) at (t, s) and
(s, t), d = p + q: canonical, as gcd(p, q) = 1.  One pass over the entries
of u replaces two products, four scalings and three sums.

Window certificates.  Each kind writes and reads a window of coordinates
(``_GENERATORS``): v_n, w_n, E_n and F_n write xi_n and read xi_{n-1..n+1};
e_n, f_n and g_n write nothing and read xi_{n-1..n}.  X is window-local
for (W, R), W inside R, when every entry (q, p) has q = p off W, its A and
B values depend only on the key (p|R, q|W), and each key holds for every
path of its R-class (counted against the class sizes of the floor).  Then
X = sum c(a, b) T_{a->b}, with T_{a->b} setting W to b on each path p with
p|R = a.  Lemma: if X and Y are window-local for (W_x, R_x) and (W_y, R_y)
with W_x, R_y disjoint and W_y, R_x disjoint, then XY = YX.  Sketch:
Y e_p = sum_b c_y(p|R_y, b) e_p[W_y:=b], and p[W_y:=b] lies in the
R_x-class of p, so X applies the same keys and values to it as to p:
XY e_p = sum_{b, b'} c_y(p|R_y, b) c_x(p|R_x, b') e_p[W_y:=b][W_x:=b'],
symmetric in X and Y because the writes are disjoint and scalars commute.
The tail embedding keeps a certificate (tails are neither read nor
written, and each key covers every tail), and so does the adjoint (the key
(q|R, p|W) of an entry of X* and (p|R, q|W) determine each other), so such
a row passes at the higher floor of its letters.  Closure: the operators
window-local for one (W, R) are closed under sums, scalars, adjoints and
products (T_{a->b} T_{a'->b'} is T_{a'->b} when a'[W:=b'] = a and 0
otherwise, as W lies inside R), so E_n and F_n, built from their flip by
those operations, inherit its certificate for the same window without their
entries being read.  Every other certificate is checked once on the
operator's exact entries and kept on it; a mutant's flipped generator is
checked on its own entries (and its E/F too, when it fails), and a row it
fails is multiplied out.

A linear combination evaluates only its nonzero terms and lifts the sum to
the highest floor among all its terms, so a check's floor and witness do
not change; on the unmutated model both 6.4 coefficients vanish, and no
6.4 row scales or adds anything.

A mutant reuses its parent's verdicts.  ``with_sign_flip`` records the
parent and the changed keys: the flipped generator, and E_n or F_n for a
flip of v_n or w_n.  A mutant re-decides the rows whose read set (the
letters of their operands) meets its changed keys and takes every other
check from its parent, which decides such a row once and keeps it.
"""

from __future__ import annotations

import json
import random
import weakref
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import gcd
from typing import Callable, Iterable, Sequence

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
    """Per floor-M path, the index of its first floor-N extension and their
    number.  Paths sort lexicographically, so the extensions of one path are
    consecutive and ordered by their tails, and the k-th extensions of two
    paths with a common endpoint share their tail."""
    head = low.floor + 1
    starts, counts = [0] * low.dim, [0] * low.dim
    index = low.index
    for j, p in enumerate(high.paths):
        i = index[p[:head]]
        if not counts[i]:
            starts[i] = j
        counts[i] += 1
    return tuple(starts), tuple(counts)


Entries = dict[tuple[int, int], int]
Rows = dict[int, tuple]  # row -> (col, val), or (None, ((col, val), ...)) for several entries


class SparseOperator:
    """Sparse matrix over Q(sqrt(lam)) indexed by the paths of one floor.

    The value is (A + x*B) / d with x = sqrt(lam) kept formal: ``A`` and
    ``B`` map (i, j) to nonzero ints and ``d`` is a positive int.  The form
    is canonical (no zero entries, gcd(d, every entry) == 1), so equal
    operators have equal fields.  Entries couple only paths with the same
    endpoint; this block structure is checked by every constructor that
    takes outside input (``SparseOperator(...)``, ``zero``, ``identity``,
    ``diagonal``, ``with_negated_entry``).  Ring operations, lifts, adjoints
    and ``flip_projection`` keep it by construction and build their results
    through the trusted ``_derived`` and ``_canonical``.  Sums and products
    of operators at different floors lift the lower one through the tail
    embedding (``lift``); equality stays strict, within one path context.
    """

    __slots__ = ("ctx", "lam", "A", "B", "d", "_row_index", "_adjoint", "_lifts", "_local", "__weakref__")

    def __init__(self, ctx: PathContext, lam: Fraction, A: Entries, B: Entries | None = None, d: int = 1):
        if d <= 0:
            raise ValueError(f"denominator must be positive, got {d}")
        A = {key: val for key, val in A.items() if val}
        B = {key: val for key, val in B.items() if val} if B else {}
        endpoint = ctx.endpoint
        for part in (A, B):
            for i, j in part:
                if endpoint[i] != endpoint[j]:
                    raise ValueError(f"entry ({i}, {j}) leaves the endpoint blocks")
        self._set(ctx, lam, *_lowest_terms(A, B, d))

    def _set(self, ctx: PathContext, lam: Fraction, A: Entries, B: Entries, d: int) -> None:
        self.ctx, self.lam, self.A, self.B, self.d = ctx, lam, A, B, d
        self._row_index: tuple[Rows, Rows] | None = None
        self._adjoint: SparseOperator | weakref.ref | None = None
        self._lifts: dict[PathContext, SparseOperator] | None = None
        self._local: tuple | None = None

    @classmethod
    def _canonical(cls, ctx: PathContext, lam: Fraction, A: Entries, B: Entries, d: int) -> "SparseOperator":
        """The trusted constructor: A and B are fresh dicts of a canonical
        block operator (a lift, an adjoint, E or F in closed form), taken as
        they are."""
        op = object.__new__(cls)
        op._set(ctx, lam, A, B, d)
        return op

    @classmethod
    def _derived(cls, ctx: PathContext, lam: Fraction, A: Entries, B: Entries, d: int) -> "SparseOperator":
        """The trusted constructor for a ring operation (sum, scaling,
        product) on block operators, whose result is block: fresh dicts with
        d > 0, brought to lowest terms; the zero filter runs only when a scan
        finds a zero."""
        if 0 in A.values():
            A = {key: val for key, val in A.items() if val}
        if B and 0 in B.values():
            B = {key: val for key, val in B.items() if val}
        return cls._canonical(ctx, lam, *_lowest_terms(A, B, d))

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
        """The tail embedding X -> X (x) 1 into the floor of ``ctx``: entry
        (x, y) goes to (x + t, y + t) for every tail t from the common endpoint
        of x and y.  Built on first use per floor and kept, outside equality."""
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
            out = self._lifts[ctx] = self._canonical(ctx, self.lam, A, B, self.d)
        return out

    def _common(self, other: "SparseOperator") -> tuple["SparseOperator", "SparseOperator"]:
        """Both operands at the higher of their floors, the lower one lifted."""
        if self.lam is not other.lam and self.lam != other.lam:
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
        return x._derived(x.ctx, x.lam, parts[0], parts[1], x.d * mine)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, 1)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self._combine(other, -1)

    def __neg__(self) -> "SparseOperator":
        return self.scale(-1)

    def _rows(self) -> tuple[Rows, Rows]:
        """Row indexes of A and B, built on first use: {row: (col, val)} for a
        row with one entry, {row: (None, ((col, val), ...))} for several."""
        if self._row_index is None:
            self._row_index = (_row_index(self.A), _row_index(self.B))
        return self._row_index

    def __mul__(self, other: "SparseOperator") -> "SparseOperator":
        x, y = self._common(other)
        d = x.d * y.d
        rows_a, rows_b = y._rows()
        if not (x.B or y.B):
            return x._derived(x.ctx, x.lam, _matmul({}, x.A, rows_a, 1), {}, d)
        # (A1 + x B1)(A2 + x B2) = A1 A2 + (p/q) B1 B2 + x (A1 B2 + B1 A2), lam = p/q
        p, q = x.lam.numerator, x.lam.denominator
        A = _matmul(_matmul({}, x.A, rows_a, q), x.B, rows_b, p)
        B = _matmul(_matmul({}, x.A, rows_b, q), x.B, rows_a, q)
        return x._derived(x.ctx, x.lam, A, B, d * q)

    def scale(self, value, root: bool = False) -> "SparseOperator":
        """Multiply by a rational value, or by value*sqrt(lam) when ``root``."""
        c = Fraction(value)
        n, m = c.numerator, c.denominator
        if not root:
            A = {key: n * val for key, val in self.A.items()}
            B = {key: n * val for key, val in self.B.items()}
            return self._derived(self.ctx, self.lam, A, B, self.d * m)
        # x (A + x B) = (p/q) B + x A
        p, q = self.lam.numerator, self.lam.denominator
        A = {key: n * p * val for key, val in self.B.items()}
        B = {key: n * q * val for key, val in self.A.items()}
        return self._derived(self.ctx, self.lam, A, B, self.d * m * q)

    def adjoint(self) -> "SparseOperator":
        """The transpose (entries are real, so * is plain transposition), built
        on first use and linked both ways: ``op.adjoint().adjoint() is op``
        while op lives; equality and hashing never look at the link."""
        star = self._adjoint
        if type(star) is weakref.ref:
            star = star()
        if star is None:
            A = {(j, i): val for (i, j), val in self.A.items()}
            B = {(j, i): val for (i, j), val in self.B.items()}
            star = self._canonical(self.ctx, self.lam, A, B, self.d)
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
        """Self-adjoint (read off the entries, no transpose kept) and idempotent."""
        return self.projection_witness() is None

    def projection_witness(self, top: PathContext | None = None) -> dict | None:
        """None for a projection.  Otherwise the least nonzero entry (lifted
        to ``top``) that differs from its transposed entry, or, for a
        self-adjoint operator, the least nonzero entry of X^2 - X."""
        if _symmetric(self.A) and _symmetric(self.B):
            return (self * self).first_entry_of_difference(self, top)
        op = self if top is None else self.lift(top)
        at = lambda key: (op.A.get(key, 0), op.B.get(key, 0))  # noqa: E731
        row, col = min(key for key in op.support() if at(key) != at(key[::-1]))
        return {"row": row, "col": col, "value": op._text(*at((row, col)))}

    def is_window_local(self, writes: range, reads: range) -> bool:
        """Whether the operator is sum c(a, b) T_{a->b} over a = p|reads and
        b = q|writes (``writes`` inside ``reads``): every entry (q, p) has
        q = p outside ``writes``, its A and B values depend on (a, b) alone,
        and each key (a, b) holds for every path p with p|reads = a.
        Checked on the entries on first use and kept, outside equality."""
        kept = self._local
        if kept is None or kept[0] != (writes, reads):
            kept = self._local = ((writes, reads), _window_local(self, writes, reads))
        return kept[1]

    # -- scalars at the boundary -------------------------------------------

    def _text(self, a: int, b: int) -> str:
        return f"{Fraction(a, self.d)}+{Fraction(b, self.d)}*sqrt({self.lam})"

    def support(self) -> set[tuple[int, int]]:
        return self.A.keys() | self.B.keys()

    def max_nonzeros(self, other: int) -> int:
        """max(other, nonzero entries), counted only if the parts could exceed it."""
        return other if len(self.A) + len(self.B) <= other else max(other, len(self.support()))

    @property
    def entries(self) -> dict[tuple[int, int], str]:
        """Nonzero entries as exact text ``a+b*sqrt(lam)``."""
        return {key: self._text(self.A.get(key, 0), self.B.get(key, 0)) for key in self.support()}

    def trace(self) -> str:
        a = sum(val for (i, j), val in self.A.items() if i == j)
        b = sum(val for (i, j), val in self.B.items() if i == j)
        return self._text(a, b)

    def witness(self, top: PathContext | None = None) -> dict | None:
        """Row, column and value of the least nonzero entry (lifted to ``top``), or None."""
        if self.is_zero():
            return None
        op = self if top is None else self.lift(top)
        row, col = min(op.support())
        return {"row": row, "col": col, "value": op._text(op.A.get((row, col), 0), op.B.get((row, col), 0))}

    def first_entry_of_difference(self, other: "SparseOperator", top: PathContext | None = None) -> dict | None:
        """None when equal at their common floor, else their difference's witness."""
        left, right = self._common(other)
        return None if left == right else (left - right).witness(top)

    def flip_projection(self, window: tuple[range, range]) -> "SparseOperator":
        """E_n from this flip u = v_n, or F_n from u = w_n, at the floor of u:
        (u*u + x u + x u* + lam u u*) / (1 + lam) in closed form, one pass
        over the entries of u.  With lam = p/q and u a signed partial
        permutation whose sources and targets are disjoint, A holds q on
        each source's diagonal and p on each target's, B holds q * u(t, s)
        at (t, s) and (s, t), and d = p + q.  If u is certified for
        ``window`` (checked now and kept), so is the result, by the closure
        of window-local operators under the ring operations."""
        if self.B or self.d != 1 or not set(self.A.values()) <= {1, -1}:
            raise ValueError("E/F need a flip with entries 1 or -1, no sqrt(lam) part and d = 1")
        if len({key for pair in self.A for key in pair}) != 2 * len(self.A):
            raise ValueError("E/F need a flip whose sources and targets are distinct and disjoint")
        p, q = self.lam.numerator, self.lam.denominator
        A, B = {}, {}
        for (t, s), val in self.A.items():
            A[(s, s)], A[(t, t)] = q, p
            B[(t, s)] = B[(s, t)] = q * val
        op = self._canonical(self.ctx, self.lam, A, B, p + q if A else 1)
        if self.is_window_local(*window):
            op._local = (window, True)
        return op

    def with_negated_entry(self, key: tuple[int, int]) -> "SparseOperator":
        """Copy with the entry at ``key`` negated (unchanged where it is 0)."""
        A, B = dict(self.A), dict(self.B)
        for part in (A, B):
            if key in part:
                part[key] = -part[key]
        return SparseOperator(self.ctx, self.lam, A, B, self.d)


def _lowest_terms(A: Entries, B: Entries, d: int) -> tuple[Entries, Entries, int]:
    """(A, B, d) over gcd(d, every entry), for zero-free A and B."""
    g = gcd(d, *A.values(), *B.values()) if d != 1 else 1
    if g == 1:
        return A, B, d
    return {key: val // g for key, val in A.items()}, {key: val // g for key, val in B.items()}, d // g


def _symmetric(entries: Entries) -> bool:
    get = entries.get
    return all(get((j, i)) == val for (i, j), val in entries.items())


def _window_local(op: SparseOperator, writes: range, reads: range) -> bool:
    paths, A, B = op.ctx.paths, op.A, op.B
    lo, hi, first, stop = writes.start, writes.stop, reads.start, reads.stop
    keys: dict[tuple, list] = {}
    for i, j in A.keys() | B.keys() if B else A:
        q, p = paths[i], paths[j]
        if p[:lo] != q[:lo] or p[hi:] != q[hi:]:
            return False
        value = (A.get((i, j), 0), B.get((i, j), 0))
        hit = keys.setdefault((p[first:stop], q[lo:hi]), [value, 0])
        if hit[0] != value:
            return False
        hit[1] += 1
    sizes = _class_sizes(op.ctx, reads)
    return all(count == sizes[a] for (a, _), (_, count) in keys.items())


@lru_cache(maxsize=None)
def _class_sizes(ctx: PathContext, reads: range) -> Counter:
    """How many paths of the floor share each restriction p|reads."""
    return Counter(p[reads.start : reads.stop] for p in ctx.paths)


def _row_index(entries: Entries) -> Rows:
    rows: Rows = {}
    several: dict[int, list[tuple[int, int]]] = {}
    for (j, k), val in entries.items():
        if j in rows:
            several.setdefault(j, [rows[j]]).append((k, val))
        else:
            rows[j] = (k, val)
    # tuples hold no spare capacity, and an index lives as long as its operator
    for j, hits in several.items():
        rows[j] = (None, tuple(hits))
    return rows


def _matmul(out: Entries, left: Entries, rows: Rows, factor: int) -> Entries:
    """Accumulate factor * left @ right, the right one given by its row index."""
    if not (left and rows):
        return out
    get, hit_of = out.get, rows.get
    for (i, j), a in left.items():
        hit = hit_of(j)
        if hit is None:
            continue
        k, b = hit
        if k is not None:  # the row's one entry
            key = (i, k)
            out[key] = get(key, 0) + a * factor * b
            continue
        a *= factor
        for k, b in b:
            key = (i, k)
            out[key] = get(key, 0) + a * b
    return out


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


# The generators, one row per kind: (kind, lowest index, reach, build
# function, its sign, the offsets from n of the coordinates it writes and of
# those it reads).  At floor N the indices run from the lowest one to
# N - reach; kind_n reads the path down to floor n + reach, its home floor.
# E_n and F_n have the window of v_n and w_n.
_GENERATORS = (
    ("e", 1, 0, _edge_projection, -1, range(0), range(-1, 1)),
    ("f", 0, 0, _edge_projection, +1, range(0), range(-1, 1)),
    ("g", 0, 0, _edge_projection, 0, range(0), range(-1, 1)),
    ("v", 0, 1, _flip, +1, range(0, 1), range(-1, 2)),
    ("w", 1, 1, _flip, -1, range(0, 1), range(-1, 2)),
)
_WINDOWS = {row[0]: row[5:] for row in _GENERATORS}
_WINDOWS.update(E=_WINDOWS["v"], F=_WINDOWS["w"])


def _generator_keys(floor: int, kinds: str = "efgvw") -> list[tuple[str, int]]:
    """(kind, n) of the generators of the given kinds at floor N, in table order."""
    return [(kind, n) for kind, low, reach, *_ in _GENERATORS if kind in kinds for n in range(low, floor - reach + 1)]


@lru_cache(maxsize=None)
def _window(kind: str, n: int) -> tuple[range, range]:
    """The coordinates kind_n writes and reads; xi_{-1}, the root's fixed 0,
    is left out."""
    writes, reads = _WINDOWS[kind]
    return range(n + writes.start, n + writes.stop), range(max(0, n + reads.start), n + reads.stop)


def _apart(x: tuple[range, range], y: tuple[range, range]) -> bool:
    """Neither window writes a coordinate the other reads."""
    (wx, rx), (wy, ry) = x, y
    return not any(c in ry for c in wx) and not any(c in rx for c in wy)


@lru_cache(maxsize=None)
def _windows_apart(x: tuple, y: tuple) -> tuple | None:
    """((x, window of x), (y, window of y)) for letters whose windows are
    apart, else None."""
    wx, wy = _window(*x), _window(*y)
    return ((x, wx), (y, wy)) if _apart(wx, wy) else None


def _projection_keys(floor: int) -> list[tuple[str, int]]:
    """E_n for every v_n, then F_n for every w_n."""
    return [("E" if kind == "v" else "F", n) for kind, n in _generator_keys(floor, "vw")]


def _exact(value, name: str = "lam") -> Fraction:
    """value (lambda, or a grid point s, t) as a Fraction.  A float is refused:
    0.1 is the binary fraction 3602879701896397/36028797018963968, not the
    rational a caller meant."""
    if isinstance(value, float):
        raise ValueError(f"{name} must be exact (an int, a Fraction or a 'p/q' string), not the float {value!r}")
    return Fraction(value)


class Representation:
    """All generators of the floor-N model over Q(sqrt(lam)), built once at
    their home floors: e_1..e_N, f_0..f_N, g_0..g_N (edge-class projections),
    v_0..v_{N-1}, w_1..w_{N-1} (diamond flips) and the derived projections
    E_0..E_{N-1}, F_1..F_{N-1}; the public accessors lift them to floor N."""

    def __init__(self, floor: int, lam: Fraction):
        lam = _exact(lam)
        if lam <= 0:
            raise ValueError("lam must be a positive rational")
        self.floor = floor
        self.lam = lam
        self.ctx = path_context(floor)
        # each generator at its home floor, or at floor N once a mutant flips it
        self._gens: dict[tuple[str, int], SparseOperator] = {}
        self._tl: dict[tuple[str, int], SparseOperator] = {}
        # a mutant's parent and changed keys; the checks kept here for mutants
        self._parent: Representation | None = None
        self._changed: frozenset[tuple[str, int]] = frozenset()
        self._verdicts: dict[_Row, Check] = {}
        for kind, low, reach, build, sign, *_ in _GENERATORS:
            for n in range(low, floor - reach + 1):
                self._gens[(kind, n)] = build(path_context(n + reach), lam, n, sign)

    # -- access --------------------------------------------------------------

    def has(self, kind: str, n: int) -> bool:
        return (kind, n) in self._gens

    def _home(self, kind: str, n: int) -> SparseOperator:
        """Generator kind_n or projection E_n / F_n at its home floor, for the suites."""
        if kind in ("E", "F"):
            key = (kind, n)
            op = self._tl.get(key)
            if op is None:
                flip = "v" if kind == "E" else "w"
                op = self._tl[key] = self._home(flip, n).flip_projection(_window(flip, n))
            return op
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
        """Copy with one floor-N generator entry negated, sharing every E/F whose
        v/w is unchanged.  It records this representation as its parent and the
        keys the flip changed: the generator, and E_n or F_n for v_n or w_n."""
        victim = self.gen(kind, n)
        if entry not in victim.support():
            raise ValueError(f"{kind}_{n} has no entry at {entry}")
        mutated = object.__new__(Representation)
        mutated.floor, mutated.lam, mutated.ctx = self.floor, self.lam, self.ctx
        mutated._gens = dict(self._gens)
        mutated._gens[(kind, n)] = victim.with_negated_entry(entry)
        stale = {"v": ("E", n), "w": ("F", n)}.get(kind)
        mutated._tl = {key: self._home(*key) for key in _projection_keys(self.floor) if key != stale}
        mutated._parent, mutated._verdicts = self, {}
        mutated._changed = frozenset({(kind, n), stale} - {None})
        return mutated


@lru_cache(maxsize=8)
def _representation(floor: int, lam: Fraction) -> Representation:
    return Representation(floor, lam)


def generator(kind: str, n: int, floor: int, lam=Fraction(1)) -> SparseOperator:
    """Edge-class projection e/f/g at index n in the floor-N model."""
    if kind not in ("e", "f", "g"):
        raise ValueError(f"unknown generator kind {kind!r}")
    return _representation(floor, _exact(lam)).gen(kind, n)


def flip_isometry(kind: str, n: int, floor: int, lam=Fraction(1)) -> SparseOperator:
    """Diamond flip v/w at index n in the floor-N model."""
    if kind not in ("v", "w"):
        raise ValueError(f"unknown isometry kind {kind!r}")
    return _representation(floor, _exact(lam)).gen(kind, n)


def tl_projection(kind: str, n: int, floor: int, lam) -> SparseOperator:
    """Temperley-Lieb-type projection E_n or F_n over Q(sqrt(lam))."""
    return _representation(floor, _exact(lam)).tl(kind, n)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Check:
    """One decided identity, decided at ``floor``, the highest floor among its
    operators; a failure's witness is read at floor ``top`` when one is given."""

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
    def projection(equation: str, indices: dict, op: SparseOperator, top: PathContext | None = None) -> "Check":
        witness = op.projection_witness(top)
        return Check(equation, indices, "pass" if witness is None else "fail", witness, op.ctx.floor)


@dataclass
class Report:
    """Checks in suite order, the word products multiplied out, the most nonzeros in one."""

    checks: list[Check] = field(default_factory=list)
    products: int = field(default=0, compare=False)
    largest_product: int = field(default=0, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != "pass"]

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)
        self.products += other.products
        self.largest_product = max(self.largest_product, other.largest_product)

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
# the relation table: nodes, scalars and rows as the module docstring says

ONE, MINUS, ROOT = (1, 0, 0), (-1, 0, 0), (1, 1, 0)
TAU, LAM_TAU, ROOT_UNIT2 = (1, 2, 2), (1, 4, 2), (1, 1, 2)  # tau, lam*tau, sqrt(lam)/(1+lam)^2
_IDENTITY, _LETTERS = ("1", 0), frozenset("efgvwEF")


def _children(node: tuple) -> tuple:
    tag = node[0]
    return tuple(x for _, x in node[1]) if tag == "+" else node[1:] if tag in ("·", "*") else ()


class _Row:
    """One check of a suite.  ``expires`` holds the ids of the shared nodes it
    reads last in its table; rows compare by identity, as keys of the verdicts.
    A commutation row whose two letters have windows apart holds them in
    ``apart``, each with its window; any other row holds None."""

    __slots__ = ("equation", "indices", "kind", "operands", "expires", "apart", "_reads")

    def __init__(self, equation: str, indices: dict, kind: str, *operands: tuple):
        self.equation, self.indices, self.kind, self.operands = equation, indices, kind, operands
        self.expires: tuple = ()
        self._reads: frozenset | None = None
        self.apart: tuple | None = None
        if kind == "commutes":
            # operands xy, yx or (yx)*, (xy)*; each factor is a letter or its adjoint
            word = operands[0] if operands[0][0] == "·" else operands[0][1]
            self.apart = _windows_apart(*(x[1] if x[0] == "*" else x for x in word[1:]))

    @property
    def reads(self) -> frozenset:
        """The letters of the operands, collected on first use."""
        if self._reads is None:
            reads, stack = set(), list(self.operands)
            while stack:
                node = stack.pop()
                reads.add(node) if node[0] in _LETTERS else stack.extend(_children(node))
            self._reads = frozenset(reads)
        return self._reads


@lru_cache(maxsize=None)
def _letter(kind: str, n: int, star: bool = False) -> tuple:
    return ("*", _letter(kind, n)) if star else (kind, n)


@lru_cache(maxsize=None)
def _mul(*factors: tuple) -> tuple:
    """The product nested from the left, built once: equal words are one node."""
    return factors[0] if len(factors) == 1 else ("·", _mul(*factors[:-1]), factors[-1])


def _lin(*terms: tuple) -> tuple:
    return ("+", terms)


def _commutes(x: tuple, y: tuple, adjoint: bool = False) -> tuple:
    """Kind and operands of the row xy = yx, or with ``adjoint`` of (yx)* = (xy)*,
    which is x*y* = y*x* read off the products that xy = yx forms.  The row
    passes without them when its two letters are window-local and apart."""
    xy, yx = _mul(x, y), _mul(y, x)
    return ("commutes", ("*", yx), ("*", xy)) if adjoint else ("commutes", xy, yx)


@lru_cache(maxsize=64)
def _scalar(scalar: tuple, lam: Fraction) -> tuple[Fraction, bool]:
    """(value, root) of the scalar (c, i, j) = c sqrt(lam)^i / (1 + lam)^j."""
    c, i, j = scalar
    return Fraction(c) * lam ** (i // 2) / (1 + lam) ** j, i % 2 == 1


@lru_cache(maxsize=None)
def _letters(text: str) -> tuple[tuple[str, int, bool], ...]:
    """(kind, offset from n, starred) per letter of ``v_n+1* v_n`` or ``w*_n+1``."""
    out = []
    for token in text.split():
        head, _, tail = token.partition("_n")
        out.append((head[0], int(tail.rstrip("*") or 0), token.endswith("*") or head.endswith("*")))
    return tuple(out)


def _word(text: str, n: int) -> tuple:
    return _mul(*(_letter(kind, n + d, star) for kind, d, star in _letters(text)))


def _defined(floor: int) -> Callable[[str, int], bool]:
    """Whether every letter of a word exists at floor N, for index n."""
    keys = set(_generator_keys(floor)) | set(_projection_keys(floor))
    return lambda text, n: all((kind, n + d) in keys for kind, d, _ in _letters(text))


def _support_law(text: str, n: int) -> tuple:
    """``(1-x_n)y_n`` or ``y_n(1-x_n)`` as y - xy or y - yx."""
    if text.startswith("(1-"):
        x, y = (_word(w, n) for w in text[3:].split(")"))
        return _lin((ONE, y), (MINUS, _mul(x, y)))
    y, x = (_word(w, n) for w in text[:-1].split("(1-"))
    return _lin((ONE, y), (MINUS, _mul(y, x)))


# (R2) support laws; (R3) intertwining, (R4) initial and final supports as (law, word, word)
_R2 = ("(1-f_n)v_n", "(1-e_n+1)v_n", "v_n(1-g_n)", "v_n(1-f_n+1)",
       "(1-e_n)w_n", "(1-f_n+1)w_n", "w_n(1-g_n)", "w_n(1-e_n+1)")
_R3 = (("v g = f v", "v_n g_n", "f_n v_n"), ("v f' = e' v", "v_n f_n+1", "e_n+1 v_n"),
       ("w g = e w", "w_n g_n", "e_n w_n"), ("w e' = f' w", "w_n e_n+1", "f_n+1 w_n"))
_R4 = (("v*v", "v_n* v_n", "g_n f_n+1"), ("vv*", "v_n v_n*", "f_n e_n+1"),
       ("w*w", "w_n* w_n", "g_n e_n+1"), ("ww*", "w_n w_n*", "e_n f_n+1"))
# 6.1: vanishing adjacent and equal-index products; v_n* w_n-1 is NOT zero (its
# adjoint is the whitelisted w_n-1* v_n), but the doubly-starred neighbours vanish
_VANISHING = ("v_n+1 v_n", "v_n v_n", "v_n+1 v_n*", "v_n-1 v_n*", "v_n+1* v_n", "v_n-1* v_n",
              "w_n+1 w_n", "w_n w_n", "w_n+1 w_n*", "w_n-1 w_n*", "w_n+1* w_n", "w_n-1* w_n",
              "v_n w_n", "v_n+1 w_n", "v_n-1 w_n", "w_n v_n", "w_n+1 v_n", "w_n-1 v_n",
              "v_n w_n*", "v_n+1 w_n*", "v_n-1 w_n*", "v_n* w_n", "v_n* w_n+1*", "v_n* w_n-1*")
_WHITELIST = ("v_n v_n+1", "w_n w_n+1", "w*_n v_n+1", "v*_n w_n+1")  # the nonzero adjacent products
# 6.9-6.12: (equation, word, scalar, word) for word == scalar * word, groups each over n
_TRIPLES = ((("6.9", "E_n E_n+1 E_n", TAU, "E_n e_n+2"), ("6.9", "E_n+1 E_n E_n+1", TAU, "E_n+1 g_n")),
            (("6.10", "F_n F_n+1 F_n", TAU, "F_n f_n+2"), ("6.10", "F_n+1 F_n F_n+1", TAU, "F_n+1 g_n")),
            (("6.11", "E_n F_n+1 E_n", LAM_TAU, "E_n f_n+2"), ("6.11", "F_n E_n+1 F_n", LAM_TAU, "F_n e_n+2")),
            (("6.12", "E_n+1 F_n E_n+1", LAM_TAU, "E_n+1 e_n"),), (("6.12", "F_n+1 E_n F_n+1", LAM_TAU, "F_n+1 f_n"),))
# 6.13 and 6.14: vanishing mixed products, for 1 <= n <= N-2
_MIXED = (("6.13", ("E_n E_n+1 F_n", "E_n F_n+1 F_n", "E_n+1 E_n F_n+1", "E_n+1 F_n F_n+1")),
          ("6.14", ("F_n E_n+1 E_n", "F_n F_n+1 E_n", "F_n+1 E_n E_n+1", "F_n+1 F_n E_n+1")))


def _table(rows: list[_Row]) -> tuple[tuple[_Row, ...], frozenset]:
    """The rows, and the ids of the nodes that occur more than once (equal words
    are one node), each to expire at its last row.  A kept node's children are
    needed, and counted, once."""
    seen: dict[int, list] = {}
    for row in rows:
        stack = list(row.operands)
        while stack:
            node = stack.pop()
            if node[0] in _LETTERS:
                continue
            hit = seen.get(id(node))
            if hit is None:
                seen[id(node)] = [1, row]
                stack += _children(node)
            else:
                hit[0], hit[1] = hit[0] + 1, row
    shared = frozenset(key for key, (count, _) in seen.items() if count > 1)
    for key in shared:
        seen[key][1].expires += (key,)
    return tuple(rows), shared


@lru_cache(maxsize=1)
def _relation_table(floor: int) -> tuple[tuple[_Row, ...], frozenset]:
    defined = _defined(floor)
    rows: list[_Row] = []
    add = rows.append
    # (R1): self-adjoint idempotents summing to 1, mutually commuting; the
    # e's first, then f_n and g_n side by side
    diag = sorted(_generator_keys(floor, "efg"), key=lambda key: (key[0] != "e", key[1]))
    for kind, n in diag:
        add(_Row("R1", {"kind": kind, "n": n}, "projection", _letter(kind, n)))
    for n in range(floor + 1):
        total = _lin(*((ONE, _letter(k, n)) for k in ("fge" if n else "fg")))
        add(_Row("R1", {"sum_at": n}, "equality", total, _IDENTITY))
    for (k1, n1), (k2, n2) in combinations(diag, 2):
        add(_Row("R1", {"commutator": f"{k1}{n1},{k2}{n2}"}, *_commutes(_letter(k1, n1), _letter(k2, n2))))
    for family, n, law in product("vw", range(floor), _R2):
        if family + "_n" in law and defined(family + "_n", n):
            add(_Row("R2", {"family": family, "n": n, "law": law}, "vanishes", _support_law(law, n)))
    for equation, laws in (("R3", _R3), ("R4", _R4)):
        for family, n, (law, left, right) in product("vw", range(floor), laws):
            if left.startswith(family) and defined(left, n):
                add(_Row(equation, {"family": family, "n": n, "law": law}, "equality", _word(left, n), _word(right, n)))
    for n, law in product(range(floor), _VANISHING):
        if defined(law, n):
            low = n + min(d for _, d, _ in _letters(law))
            add(_Row("6.1", {"law": law, "n": low}, "vanishes", _word(law, n)))
    for n, k1, k2 in product(range(floor), ("v", "v*", "w", "w*"), ("v", "v*", "w", "w*")):
        name = f"{k1}_n {k2}_n+1"
        if defined(name, n):
            kind = "nonzero" if name in _WHITELIST else "vanishes"
            add(_Row("whitelist", {"product": name, "n": n}, kind, _word(name, n)))
    # locality: operators two or more floors apart commute
    isos = _generator_keys(floor, "vw")
    for k1, n1 in isos:
        for k2, n2 in isos:
            if n2 - n1 >= 2:
                # x y* = y* x and x* y* = y* x* are the adjoints of y x* = x* y and y x = x y:
                # adjoints in place of two products each
                x, xs, y = _letter(k1, n1), _letter(k1, n1, True), _letter(k2, n2)
                checks = (_commutes(x, y), _commutes(xs, y, True), _commutes(xs, y), _commutes(x, y, True))
                for (s1, s2), check in zip(product(("", "*"), ("", "*")), checks):
                    add(_Row("locality", {"commutator": f"{k1}{s1}{n1},{k2}{s2}{n2}"}, *check))
        for kind, r in diag:
            if r <= n1 - 1 or r >= n1 + 2:
                check = _commutes(_letter(k1, n1), _letter(kind, r))
                add(_Row("locality", {"commutator": f"{k1}{n1},{kind}{r}"}, *check))
    # braid triples (both sides vanish) and the 6.3 list
    for kind, n in product("vw", range(floor)):
        if defined(f"{kind}_n {kind}_n+1", n):
            low, high = _word(f"{kind}_n {kind}_n+1 {kind}_n", n), _word(f"{kind}_n+1 {kind}_n {kind}_n+1", n)
            add(_Row("braid", {"family": kind, "n": n}, "equality", low, high))
            add(_Row("6.3", {"family": kind, "law": "x_n x_n+1 x_n", "n": n}, "vanishes", low))
            add(_Row("6.3", {"family": kind, "law": "x_n+1 x_n x_n+1", "n": n}, "vanishes", high))
    # partition of unity by the embedded floor-r matrix units: the floor-r identity
    for r in range(floor):
        add(_Row("unit-partition", {"r": r}, "equality", ("1", r), _IDENTITY))
    return _table(rows)


@lru_cache(maxsize=1)
def _yang_baxter_table(floor: int, pairs: tuple[tuple[Fraction, Fraction], ...]) -> tuple[tuple[_Row, ...], frozenset]:
    """6.4 at each grid point, as ``yang_baxter_check`` explains; keyed by the grid."""
    rows = []
    for n in range(floor - 1):
        a, b = _letter("v", n), _letter("v", n + 1)
        ab = _mul(a, b)
        square = _lin((ONE, _mul(a, a)), (MINUS, _mul(b, b)))
        cube = _lin((ONE, _mul(ab, a)), (MINUS, _mul(b, ab)))
        for s, t in pairs:
            difference = _lin(((s * t, 0, 0), square), ((s * t * (s + t), 0, 0), cube))
            rows.append(_Row("6.4", {"n": n, "s": str(s), "t": str(t)}, "vanishes", difference))
    return _table(rows)


@lru_cache(maxsize=1)
def _braiding_table(floor: int) -> tuple[tuple[_Row, ...], frozenset]:
    defined = _defined(floor)
    rows: list[_Row] = []
    add = rows.append
    projections = _projection_keys(floor)
    for kind, n in projections:
        indices = {"kind": kind, "n": n, "law": "projection"}
        add(_Row("6.5" if kind == "E" else "6.6", indices, "projection", _letter(kind, n)))
    # 6.7: E_n and F_n are orthogonal
    for n, word in product(range(1, floor), ("E_n F_n", "F_n E_n")):
        add(_Row("6.7", {"n": n, "law": word.replace("_n", "")}, "vanishes", _word(word, n)))
    # 6.8: commutation at distance >= 2
    for (k1, n1), (k2, n2) in product(projections, projections):
        if n2 - n1 >= 2:
            add(_Row("6.8", {"commutator": f"{k1}{n1},{k2}{n2}"}, *_commutes(_letter(k1, n1), _letter(k2, n2))))
    # 6.9 - 6.12: triple products with exact right-hand sides
    for group in _TRIPLES:
        for n, (equation, law, scalar, word) in product(range(floor), group):
            if defined(law, n) and defined(word, n):
                add(_Row(equation, {"n": n, "law": law}, "equality", _word(law, n), _lin((scalar, _word(word, n)))))
    # 6.13 / 6.14: vanishing mixed products
    for n, (equation, laws) in product(range(1, floor - 1), _MIXED):
        for law in laws:
            add(_Row(equation, {"n": n, "law": law}, "vanishes", _word(law, n)))
    # 6.15 / 6.16: the two-factor expansions of E_n E_n+1 and E_n+1 E_n
    for n in range(floor - 1):
        low, high = _letter("v", n), _letter("v", n + 1)
        left = _lin((ONE, _word("v_n* v_n", n)), (ROOT, low))
        right = _lin((ONE, high), (ROOT, _word("v_n+1 v_n+1*", n)))
        add(_Row("6.15", {"n": n}, "equality", _word("E_n E_n+1", n), _lin((ROOT_UNIT2, _mul(left, right)))))
        add(_Row("6.16", {"n": n}, "equality", _word("E_n+1 E_n", n), ("*", _word("E_n E_n+1", n))))
    # dominance: tau E_n - E_n E_m E_n is tau times an exact projection
    for n in range(floor - 1):
        for residue, triple in (("E_n(1-e_n+2)", "E_n E_n+1 E_n"), ("E_n+1(1-g_n)", "E_n+1 E_n E_n+1")):
            node, outer = _support_law(residue, n), triple.split()[0]
            add(_Row("dominance", {"n": n, "law": f"{residue} projection"}, "projection", node))
            add(_Row("dominance", {"n": n, "law": f"tau {outer} - {triple}"}, "equality",
                     _lin((TAU, _word(outer, n)), (MINUS, _word(triple, n))), _lin((TAU, node))))
    return _table(rows)


def _combination(terms: list[tuple[tuple, SparseOperator]], lam: Fraction) -> SparseOperator:
    """The sum of scalar * term over the nonzero terms, lifted to the highest
    floor among all the terms: a zero term adds nothing but that lift."""
    op, top = None, terms[0][1].ctx
    for scalar, term in terms:
        if term.ctx.floor > top.floor:
            top = term.ctx
        if term.is_zero():
            continue
        if op is not None and (scalar is ONE or scalar is MINUS):
            op = op + term if scalar is ONE else op - term
            continue
        term = term if scalar is ONE else term.scale(*_scalar(scalar, lam))
        op = term if op is None else op + term
    return SparseOperator.zero(top, lam) if op is None else op.lift(top)


def _evaluate(rep: Representation, rows: Sequence[_Row], shared: frozenset, report: Report) -> list[Check]:
    """Decide the rows on rep, counting products into ``report``.  Letters are
    read once; a ``shared`` node is built once and kept until its last row."""
    lam, home, cache = rep.lam, rep._home, {}

    def value(node: tuple) -> SparseOperator:
        tag = node[0]
        if tag in _LETTERS:
            op = cache[id(node)] = home(*node)
            return op
        # children go through the cache before a call: letters and shared nodes hit it
        if tag == "·":
            x, y = node[1], node[2]
            op = (cache.get(id(x)) or value(x)) * (cache.get(id(y)) or value(y))
            report.products += 1
            report.largest_product = op.max_nonzeros(report.largest_product)
        elif tag == "*":
            op = (cache.get(id(node[1])) or value(node[1])).adjoint()
        elif tag == "+":
            op = _combination([(scalar, cache.get(id(x)) or value(x)) for scalar, x in node[1]], lam)
        else:  # ("1", r): the floor-r identity, which lifts to what it meets
            op = SparseOperator.identity(path_context(node[1]), lam)
        if id(node) in shared:
            cache[id(node)] = op
        return op

    def local(row: _Row) -> Check | None:
        """The pass of a commutation row whose letters, apart, are both
        window-local, decided at the higher of their floors; else None."""
        (a, wx), (b, wy) = row.apart
        x, y = home(*a), home(*b)
        if x.is_window_local(*wx) and y.is_window_local(*wy):
            return Check(row.equation, dict(row.indices), "pass", None, max(x.ctx.floor, y.ctx.floor))
        return None

    equality = partial(Check.equality, top=rep.ctx)
    decide = {"equality": equality, "commutes": equality, "vanishes": partial(Check.vanishes, top=rep.ctx),
              "nonzero": Check.nonzero, "projection": partial(Check.projection, top=rep.ctx)}
    checks = []
    for row in rows:
        check = local(row) if row.apart else None
        if check is None:
            ops = [cache.get(id(x)) or value(x) for x in row.operands]
            check = decide[row.kind](row.equation, dict(row.indices), *ops)
        checks.append(check)
        for key in row.expires:
            cache.pop(key, None)
    return checks


def _decide(rep: Representation, rows: Sequence[_Row], shared: frozenset, report: Report) -> list[Check]:
    """The check of every row on rep, in order: a mutant re-decides the rows
    that read a changed key and takes the others from its parent's verdicts."""
    parent = rep._parent
    if parent is None:
        return _evaluate(rep, rows, shared, report)
    changed, known = rep._changed, parent._verdicts
    fresh = [row for row in rows if not changed.isdisjoint(row.reads)]
    missing = [row for row in rows if row not in known and changed.isdisjoint(row.reads)]
    if missing:
        known.update(zip(missing, _decide(parent, missing, shared, report)))
    decided = dict(zip(fresh, _evaluate(rep, fresh, shared, report)))
    return [decided[row] if row in decided else known[row] for row in rows]


def _suite(table: tuple[tuple[_Row, ...], frozenset], floor: int, lam, rep: Representation | None) -> Report:
    """Run a table on the shared floor-N model, or on ``rep`` if it is that model."""
    lam = _exact(lam)
    if rep is None:
        rep = _representation(floor, lam)
    elif (rep.floor, rep.lam) != (floor, lam):
        raise ValueError(f"rep is the floor-{rep.floor} model at lambda {rep.lam}, not floor {floor} at lambda {lam}")
    report = Report()
    report.checks = _decide(rep, *table, report)
    return report


# ---------------------------------------------------------------------------
# suites


def verify_relation_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """(R1)-(R4), the vanishing products, the nonzero whitelist, far-floor
    commutation (locality), the braid triples and the partition of unity by
    embedded matrix units.  Needs floor >= 4 for every index family."""
    if floor < 4:
        raise ValueError("the relation suite needs floor >= 4")
    return _suite(_relation_table(floor), floor, lam, rep)


def yang_baxter_check(floor: int, lam=Fraction(1), pairs: Iterable[tuple] | None = None, rep: Representation | None = None) -> Report:
    """R_n(s) R_{n+1}(s+t) R_n(t) == R_{n+1}(t) R_n(s+t) R_{n+1}(s), with
    R_n(s) = 1 + s*v_n, at each point (s, t) of a rational grid.  With a = v_n
    and b = v_{n+1} the sides differ by st(a^2 - b^2) + st(s+t)(aba - bab) in
    any ring, so the two coefficients are built once per n.  They vanish, and
    the identity holds for all s, t, iff it holds at (1, 1) and (1, 2), which
    the default grid {0, 1, 2}^2 contains.  Needs floor >= 2."""
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    if pairs is None:
        pairs = [(s, t) for s in (0, 1, 2) for t in (0, 1, 2)]
    pairs = tuple((_exact(s, "s"), _exact(t, "t")) for s, t in pairs)
    return _suite(_yang_baxter_table(floor, pairs), floor, lam, rep)


def verify_braiding_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """E/F projections, orthogonality, distance-2 commutation, the triple
    products with exact right-hand sides, the vanishing mixed products, the
    expansions of E_n E_n+1, and dominance: tau*E_n - E_n E_m E_n == tau *
    (exact self-adjoint idempotent).  Needs floor >= 4 for the triples."""
    if floor < 4:
        raise ValueError("the braiding suite needs floor >= 4")
    return _suite(_braiding_table(floor), floor, lam, rep)


def run_all_suites(floor: int, lam, rep: Representation | None = None) -> Report:
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
