"""Finite-floor path model of the diagram and its projection relations.

A path is the tuple of horizontal coordinates (xi_0, ..., xi_N) of a
monotone walk from the augmentation root (whose coordinate is fixed at 0)
down to floor N; consecutive coordinates satisfy |2*xi_n - xi_{n+1}| <= 1.
Operators are sparse matrices on path pairs with a common endpoint; the
endpoint block sizes reproduce the tree denominators.  Scalars live in
Q(sqrt(lam)), lam = p/q: an operator is (A + x*B)/d, x = sqrt(lam) formal, A
and B sparse int matrices, canonical so that equality is dict equality.
Products are integer matmuls with x*x = p/q folded in; ring operations go
through the trusted ``_derived``, lifts, adjoints and E/F through
``_canonical``.  Scalars appear only at the boundary as ``a+b*sqrt(lam)``.

Floors.  X -> X (x) 1 on path tails (``lift``) is the unital, injective
*-embedding of the floor-M model into the floor-N model, so an identity
among floor-M operators holds at floor N exactly when it holds at floor M.
Each generator is built on first use at its home floor (n for e_n, f_n,
g_n; n + 1 for v_n, w_n, E_n, F_n); each check is decided, and its least
entry read, at the highest home floor among its operators.  A model's
failing check names that entry's first extension at floor N, which is the
least entry of the lift, with the same value (``_verdict``).  The floor-N
paths (``Representation.ctx``) are enumerated on first read, so a passing
unmutated model never builds them.
E and F come from their flip u in closed form: with lam = p/q,
(u*u + x u + x u* + lam u u*) / (1 + lam) is A = q on each source's diagonal
and p on each target's, B = q u(t, s) at (t, s) and (s, t), d = p + q.

The suites are data: rows of an equation id, indices, a kind of check and
operand nodes, one object per value (``_node``): a letter (kind, n), ("*", x),
("·", x, y), ("+", ((scalar, x), ...)) and ("1", r), the floor-r identity,
which lifts to what it meets.  A scalar (c, i, j) is c sqrt(lam)^i /
(1 + lam)^j, so a row serves every lam; (1 - x) y is y - xy; the floor-r
matrix units sum to ("1", r).  A suite call builds each node once per model
(``_value``), so E_n E_n+1, read by five equations, is multiplied once.
A template is a row at translating index <= 2 whose letters
``_GENERATORS`` defines: each law is stated over the n in 0..2 at which its
letters are generators (6.1, named by its lowest letter, over the n that
name it 0..2; 6.13/6.14 over 1..2, the paper's bound), and ``_templates``
builds those rows only, once per process on first use.  A
row's top is the lowest floor whose table holds it, and its order places
it in the suite at every floor; the floor-N table is the floor-(N-1) one
merged with the rows of top N (``_rows_at``): the templates there, the
translate of each index-2 template there, linked to it when built, and
the commutation rows there.  A translate's operands are its template's
shifted, and a commutation row's its products, each built only when the
row is decided on them.

Window certificates.  kind_n writes xi_n..xi_{n+reach-1} and reads
xi_{n-1}..xi_{n+reach} (``_window``).  X is window-local for (W, R) when
every entry (q, p) has q = p off W, its value depends only on the key
(p|R, q|W), and each key holds for every path of its R-class; then
X = sum c(a, b) T_{a->b}.  Lemma: if X and Y are window-local and neither
writes what the other reads, XY = YX.  Sketch: Y e_p = sum_b c_y(p|R_y, b)
e_p[W_y:=b], whose paths lie in the R_x-class of p, so XY e_p is symmetric
in X and Y because the writes are disjoint.  Lifts and adjoints keep a
certificate.  A certificate is a row (``_certificate``) checked on the
letter's entries; the commuting pairs (R1, locality, 6.8) are the letters
whose windows are apart, and such a row passes at the higher floor of its
letters when both certificate rows pass, else it is multiplied out.

Translates.  Write a path by its letters d_m = xi_m - 2 xi_{m-1} in
{-1, 0, 1} (``PathContext.letters``); the letters that may follow xi_{m-1}
depend only on its state: bottom (0), top (2^(m-1)) or interior.  Every
kind_n changes only d_n..d_{n+reach}, its entries a function of those
letters alone.  Lemma: a row whose letters sit at indices L..M, L >= 2, has
the verdict of its translate to lowest index 2, decided at the translate's
floor + (L - 2).  Sketch: at floor M a path is a prefix xi_0..xi_{L-1}
followed by d_L..d_M, whose allowed values depend only on the state of
xi_{L-1}, so every operand is one window operator per state, the same on
every prefix, and each verdict holds exactly when it holds on each window
operator that occurs.  For L >= 2 all three states occur and the window
operators do not depend on L; below, some state never occurs, so those rows
are decided directly.  The unit-partition row of r >= 3 compares the lift
of the floor-2 identity with the unit: it has the verdict of r = 2, at
floor r.  Certificates by translation: for n >= 2 kind_n is one window
operator per state of xi_{n-1}, so its key conditions hold, and q = p off W
asks only that each move keep sum_k 2^(n+reach-k) d_k, a condition on the
window operators alone; so the certificate row of kind_n is the translate
of kind_2's.  A row whose translate fails is multiplied out, for its witness.

A linear combination evaluates only its nonzero terms and lifts the sum to
the highest floor among all its terms, so no unmutated 6.4 row adds anything.

A mutant (``with_sign_flip``) records its parent and the keys it changed,
the flip and its rebuilt E/F, and reads every other generator from its
parent.  Every model decides every row by one rule (``_verdict``): the check
it keeps; else, on a mutant, its parent's check for a row whose letters
meet no changed key; else, on generators as built, a translate's pass taken
from its template; else a commutation row's from its certificate rows;
else, on a mutant, an equality, vanishing or commutation row whose check
passes on the parent decided on its deltas (``_delta``); else the row
decided on its operands.  A parent never reads its mutant's nodes.

Deltas.  The delta of a node is its value on the mutant less the lift of
its parent's: X_mutant - lift(X_parent) for a changed letter (one or two
entries at floor N), 0 for any other letter and for ("1", r); d(xy) =
d(x) y_mutant + x_parent d(y), d(x*) = d(x)*, d(sum c x) = sum c d(x).  The
row is decided as the vanishing of d(L) - d(R), or of d(W), at floor N.
Exact: the lift is an injective *-homomorphism and L_parent = R_parent, so
L_mutant - R_mutant = d(L) - d(R), with the same verdict, least-entry
witness and floor as the operands give.  Projection, nonzero and window
rows, and rows whose parent check fails, are decided on their operands.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate, combinations, groupby, product
from math import gcd
from operator import attrgetter
from typing import Callable

from .core import parse_fraction

__all__ = [
    "Check",
    "PathContext",
    "Report",
    "Representation",
    "SparseOperator",
    "enumerate_paths",
    "generator",
    "path_context",
    "random_sign_mutation",
    "run_all_suites",
    "verify_braiding_suite",
    "verify_relation_suite",
    "yang_baxter_check",
]

MAX_PATH_FLOOR = 9  # 3**N + 1 paths
# most bits in the numerator or denominator of lam, which every product
# carries.  Measured on one x86-64 core with Python 3.11, the floor-9 suites
# take 0.86 s at lam = 1/4, 1.3 s at a 257-bit lam and 5.0 s at a 1025-bit one.
MAX_LAMBDA_BITS = 256

Path = tuple[int, ...]


def enumerate_paths(floor: int) -> tuple[Path, ...]:
    """All monotone paths from the root to the given floor, lexicographic."""
    return path_context(floor).paths


@lru_cache(maxsize=None)
def path_context(floor: int) -> "PathContext":
    return PathContext(floor)


class PathContext:
    """Shared read-only path enumeration for one floor."""

    def __init__(self, floor: int):
        if not 0 <= floor <= MAX_PATH_FLOOR:
            raise ValueError(f"floor must lie in 0..{MAX_PATH_FLOOR}")
        self.floor = floor
        self.paths: tuple[Path, ...] = ((0,), (1,))
        if floor:
            # each path of a lexicographic floor followed by its children in
            # increasing order: lexicographic again
            top, below = 2**floor, ((p, 2 * p[-1]) for p in path_context(floor - 1).paths)
            self.paths = tuple(p + (c,) for p, x in below for c in (x - 1, x, x + 1) if 0 <= c <= top)
        self.endpoint = tuple(p[-1] for p in self.paths)
        self.dim = len(self.paths)
        self._letters: dict[int, tuple[int, ...]] = {}

    def letters(self, m: int) -> tuple[int, ...]:
        """The letter d_m = xi_m - 2 xi_{m-1} of every path, in path order
        (xi_{-1} is the root's fixed 0); built on first use and kept."""
        column = self._letters.get(m)
        if column is None:
            pairs = ((p[m], p[m - 1]) for p in self.paths) if m else ((p[0], 0) for p in self.paths)
            column = self._letters[m] = tuple(x - 2 * y for x, y in pairs)
        return column


@lru_cache(maxsize=None)
def _extensions(low: PathContext, high: PathContext) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per floor-M path, the index of its first floor-N extension and their
    number.  Paths sort lexicographically, so the extensions of one path are
    consecutive and ordered by their tails, every path has one, and the k-th
    extensions of two paths with a common endpoint share their tail."""
    head = low.floor + 1
    counts = tuple(len(list(group)) for _, group in groupby(high.paths, lambda p: p[:head]))
    return tuple(accumulate(counts[:-1], initial=0)), counts


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

    __slots__ = ("ctx", "lam", "A", "B", "d", "_row_index", "_lifts")

    def __init__(self, ctx: PathContext, lam: Fraction, A: Entries, B: Entries | None = None, d: int = 1):
        lam = _field_constant(lam)
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
        self._lifts: dict[PathContext, SparseOperator] | None = None

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
        """The transpose: entries are real, so * is plain transposition."""
        A = {(j, i): val for (i, j), val in self.A.items()}
        B = {(j, i): val for (i, j), val in self.B.items()}
        return self._canonical(self.ctx, self.lam, A, B, self.d)

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

    def projection_witness(self) -> dict | None:
        """None for a projection.  Otherwise the least nonzero entry that
        differs from its transposed entry, or, for a self-adjoint operator,
        the least nonzero entry of X^2 - X."""
        if _symmetric(self.A) and _symmetric(self.B):
            return (self * self).first_entry_of_difference(self)
        at = lambda key: (self.A.get(key, 0), self.B.get(key, 0))  # noqa: E731
        row, col = min(key for key in self.support() if at(key) != at(key[::-1]))
        return {"row": row, "col": col, "value": self._text(*at((row, col)))}

    def is_window_local(self, writes: range, reads: range) -> bool:
        """Whether the operator is sum c(a, b) T_{a->b} over a = p|reads and
        b = q|writes (``writes`` inside ``reads``): every entry (q, p) has
        q = p outside ``writes``, its A and B values depend on (a, b) alone,
        and each key (a, b) holds for every path p with p|reads = a.
        Checked on the entries at every call; a model keeps the verdict per
        letter as the check of its certificate row (``_certificate``)."""
        paths, A, B = self.ctx.paths, self.A, self.B
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
        sizes = _class_sizes(self.ctx, reads)
        return all(count == sizes[a] for (a, _), (_, count) in keys.items())

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

    def witness(self) -> dict | None:
        """Row, column and value of the least nonzero entry, or None."""
        if self.is_zero():
            return None
        row, col = min(self.support())
        return {"row": row, "col": col, "value": self._text(self.A.get((row, col), 0), self.B.get((row, col), 0))}

    def first_entry_of_difference(self, other: "SparseOperator") -> dict | None:
        """None when equal at their common floor, else their difference's witness."""
        left, right = self._common(other)
        return None if left == right else (left - right).witness()

    def flip_projection(self) -> "SparseOperator":
        """E_n from this flip u = v_n, or F_n from u = w_n, at the floor of u:
        (u*u + x u + x u* + lam u u*) / (1 + lam) in closed form, one pass
        over the entries of u.  With lam = p/q and u a signed partial
        permutation whose sources and targets are disjoint, A holds q on
        each source's diagonal and p on each target's, B holds q * u(t, s)
        at (t, s) and (s, t), and d = p + q."""
        if self.B or self.d != 1 or not set(self.A.values()) <= {1, -1}:
            raise ValueError("E/F need a flip with entries 1 or -1, no sqrt(lam) part and d = 1")
        if len({key for pair in self.A for key in pair}) != 2 * len(self.A):
            raise ValueError("E/F need a flip whose sources and targets are distinct and disjoint")
        p, q = self.lam.numerator, self.lam.denominator
        A, B = {}, {}
        for (t, s), val in self.A.items():
            A[(s, s)], A[(t, t)] = q, p
            B[(t, s)] = B[(s, t)] = q * val
        return self._canonical(self.ctx, self.lam, A, B, p + q if A else 1)

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


def _edge_projection(rep: "Representation", ctx: PathContext, n: int, offset: int) -> SparseOperator:
    """e_n, f_n or g_n (offset -1, +1, 0): the paths whose letter d_n, the
    edge into floor n, is the offset."""
    return SparseOperator(ctx, rep.lam, {(i, i): 1 for i, d in enumerate(ctx.letters(n)) if d == offset})


def _flip(rep: "Representation", ctx: PathContext, n: int, sign: int) -> SparseOperator:
    """Diamond flip at floor n: it moves the letters (d_n, d_n+1) of a source
    from (0, sign) to (sign, -sign), so xi_n from 2*xi_{n-1} to 2*xi_{n-1} +
    sign, and keeps the rest of the path.  sign +1 builds v_n, sign -1 builds
    w_n.  Sources and targets are in bijection, and a source and its target
    differ only in xi_n, so lexicographic order pairs the k-th of each."""
    sources, targets = [], []
    source, target = (0, sign), (sign, -sign)
    for j, pair in enumerate(zip(ctx.letters(n), ctx.letters(n + 1))):
        if pair == source:
            sources.append(j)
        elif pair == target:
            targets.append(j)
    return SparseOperator(ctx, rep.lam, dict.fromkeys(zip(targets, sources), 1))


def _flip_projection(rep: "Representation", ctx: PathContext, n: int, flip: str) -> SparseOperator:
    """E_n from the model's v_n, or F_n from its w_n, at the floor of the flip."""
    return rep._home(flip, n).flip_projection()


# The generators, one row per kind: (kind, lowest index, reach, build
# function, its sign or source flip).  At floor N the indices run from the
# lowest one to N - reach; kind_n reads the path down to floor n + reach, its
# home floor.  A build function gets the model: E/F read their flip from it.
_GENERATORS = (
    ("e", 1, 0, _edge_projection, -1),
    ("f", 0, 0, _edge_projection, +1),
    ("g", 0, 0, _edge_projection, 0),
    ("v", 0, 1, _flip, +1),
    ("w", 1, 1, _flip, -1),
    ("E", 0, 1, _flip_projection, "v"),
    ("F", 1, 1, _flip_projection, "w"),
)


_KINDS = {row[0]: row for row in _GENERATORS}


def _generator_keys(floor: int, kinds: str = "efgvw") -> list[tuple[str, int]]:
    """(kind, n) of the generators of the given kinds at floor N, in table order."""
    return [(kind, n) for kind, low, reach, _, _ in _GENERATORS if kind in kinds for n in range(low, floor - reach + 1)]


@lru_cache(maxsize=None)
def _window(kind: str, n: int) -> tuple[range, range]:
    """The coordinates kind_n writes, xi_n..xi_{n+reach-1}, and reads,
    xi_{n-1}..xi_{n+reach}; xi_{-1}, the root's fixed 0, is left out."""
    reach = _KINDS[kind][2]
    return range(n, n + reach), range(max(0, n - 1), n + reach + 1)


def _apart(x: tuple[range, range], y: tuple[range, range]) -> bool:
    """Neither window writes a coordinate the other reads."""
    (wx, rx), (wy, ry) = x, y
    # two ranges of consecutive coordinates meet when each starts before the other stops
    return not (wx and wx.start < ry.stop and ry.start < wx.stop or wy and wy.start < rx.stop and rx.start < wy.stop)


def _windows_apart(x: tuple, y: tuple) -> tuple | None:
    """(x, y) for letters whose windows are apart, else None."""
    return (x, y) if _apart(_window(*x), _window(*y)) else None


def _field_constant(lam) -> Fraction:
    """lam as a positive Fraction of at most MAX_LAMBDA_BITS bits above and below."""
    lam = lam if type(lam) is Fraction else parse_fraction(lam, "lam")
    if lam <= 0:
        raise ValueError("lam must be a positive rational")
    if max(lam.numerator.bit_length(), lam.denominator.bit_length()) > MAX_LAMBDA_BITS:
        raise ValueError(f"lam has more than {MAX_LAMBDA_BITS} bits in its numerator or denominator")
    return lam


class Representation:
    """The generators of the floor-N model over Q(sqrt(lam)): e_1..e_N,
    f_0..f_N, g_0..g_N (edge-class projections), v_0..v_{N-1}, w_1..w_{N-1}
    (diamond flips), E_0..E_{N-1} and F_1..F_{N-1} (from the flips).  Each is
    built at its home floor on first use (``_home``), so a model holds only
    what was read from it; the public accessors lift them to floor N."""

    def __init__(self, floor: int, lam: Fraction):
        lam = _field_constant(lam)
        if not 0 <= floor <= MAX_PATH_FLOOR:
            raise ValueError(f"floor must lie in 0..{MAX_PATH_FLOOR}")
        self.floor = floor
        self.lam = lam
        # a mutant's parent and changed keys; with none changed, the
        # generators are as built, and a row takes its translate's verdict
        self._parent: Representation | None = None
        self._changed: frozenset[tuple[str, int]] = frozenset()
        # each generator at its home floor (at floor N once a mutant flips
        # it), kept here, else read from the parent for a key not changed
        self._gens: dict[tuple[str, int], SparseOperator] = {}
        # the check of every row this model decided, certificate rows included
        self._verdicts: dict[_Row, Check] = {}

    @cached_property
    def ctx(self) -> PathContext:
        """The floor-N paths, enumerated on first read: by the public
        accessors, a mutant's flip and a failing witness, never by a passing
        unmutated suite."""
        return path_context(self.floor)

    # -- access --------------------------------------------------------------

    def has(self, kind: str, n: int) -> bool:
        """Whether kind_n is a generator of the model, from the index ranges:
        nothing is built."""
        row = _KINDS.get(kind)
        return row is not None and row[1] <= n <= self.floor - row[2]

    def _home(self, kind: str, n: int) -> SparseOperator:
        """Generator kind_n of any kind at its home floor, for the suites: the
        model's own, else its parent's for a key it did not change, else
        built from ``_GENERATORS`` on first use and kept."""
        key = (kind, n)
        op = self._gens.get(key)
        if op is not None:
            return op
        if self._parent is not None and key not in self._changed:
            return self._parent._home(kind, n)
        if not self.has(kind, n):
            raise ValueError(f"{kind}_{n} is not defined at floor {self.floor}")
        _, _, reach, build, arg = _KINDS[kind]
        op = self._gens[key] = build(self, path_context(n + reach), n, arg)
        return op

    def gen(self, kind: str, n: int) -> SparseOperator:
        """Generator kind_n (e, f, g, v or w) at floor N."""
        if kind in ("E", "F") and self.has(kind, n):
            flip = _KINDS[kind][4]
            raise ValueError(f"{kind}_{n} is a projection, read with tl and rebuilt from {flip}_{n}; it cannot be flipped")
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
        """Copy with one floor-N generator entry negated, sharing every other
        operator.  A flipped v_n or w_n gets its E_n or F_n rebuilt from it.
        The copy records this representation as its parent and the keys the
        flip changed: the generator and the E_n or F_n rebuilt."""
        victim = self.gen(kind, n)
        if entry not in victim.support():
            raise ValueError(f"{kind}_{n} has no entry at {entry}")
        mutated = object.__new__(Representation)
        mutated.floor, mutated.lam, mutated._parent = self.floor, self.lam, self
        gens = mutated._gens = {(kind, n): victim.with_negated_entry(entry)}
        for derived, _, _, build, source in _GENERATORS:
            if source == kind:
                gens[(derived, n)] = build(mutated, self.ctx, n, source)
        mutated._changed, mutated._verdicts = frozenset(gens), {}
        return mutated


def generator(kind: str, n: int, floor: int, lam=Fraction(1)) -> SparseOperator:
    """kind_n of the floor-N model, for any kind of the table: an edge-class
    projection e, f or g, a diamond flip v or w, or a projection E or F."""
    rep = Representation(floor, lam)
    return rep._home(kind, n).lift(rep.ctx)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Check:
    """One decided identity, decided at ``floor``, the highest floor among its
    operators, where a failure's witness is read."""

    equation: str
    indices: dict
    status: str
    witness: dict | None = None
    floor: int | None = field(default=None, compare=False)

    def __init__(self, equation, indices, status, witness=None, floor=None):
        # one per row of every run: straight into the dict, past the frozen setattr
        fields = self.__dict__
        fields["equation"], fields["indices"], fields["status"], fields["witness"], fields["floor"] = (
            equation, indices, status, witness, floor)

    @staticmethod
    def equality(equation: str, indices: dict, left: SparseOperator, right: SparseOperator) -> "Check":
        witness = left.first_entry_of_difference(right)
        floor = max(left.ctx.floor, right.ctx.floor)
        return Check(equation, indices, "pass" if witness is None else "fail", witness, floor)

    @staticmethod
    def vanishes(equation: str, indices: dict, op: SparseOperator) -> "Check":
        witness = op.witness()
        return Check(equation, indices, "pass" if witness is None else "fail", witness, op.ctx.floor)

    @staticmethod
    def nonzero(equation: str, indices: dict, op: SparseOperator) -> "Check":
        if op.is_zero():
            return Check(equation, indices, "fail", {"row": -1, "col": -1, "value": "0"}, op.ctx.floor)
        return Check(equation, indices, "pass", None, op.ctx.floor)

    @staticmethod
    def projection(equation: str, indices: dict, op: SparseOperator) -> "Check":
        witness = op.projection_witness()
        return Check(equation, indices, "pass" if witness is None else "fail", witness, op.ctx.floor)

    @staticmethod
    def window(equation: str, indices: dict, op: SparseOperator) -> "Check":
        """Whether the letter kind_n that ``indices`` names carries the
        certificate of its window, checked on its entries."""
        local = op.is_window_local(*_window(indices["kind"], indices["n"]))
        return Check(equation, indices, "pass" if local else "fail", None, op.ctx.floor)


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
# the relation tables: nodes, scalars, templates and rows as the module docstring says

ONE, MINUS, ROOT = (1, 0, 0), (-1, 0, 0), (1, 1, 0)
TAU, LAM_TAU, ROOT_UNIT2 = (1, 2, 2), (1, 4, 2), (1, 1, 2)  # tau, lam*tau, sqrt(lam)/(1+lam)^2
_LETTERS = frozenset(kind for kind, *_ in _GENERATORS)
_NODES: dict[tuple, tuple] = {}


def _node(*parts) -> tuple:
    """The node of these parts, one object per value wherever it was built,
    kept for the process (the rows up to MAX_PATH_FLOOR hold under 4000)."""
    return _NODES.setdefault(parts, parts)


_IDENTITY = _node("1", 0)


def _children(node: tuple) -> tuple:
    tag = node[0]
    return tuple(x for _, x in node[1]) if tag == "+" else node[1:] if tag in ("·", "*") else ()


def _letter(kind: str, n: int, star: bool = False) -> tuple:
    return _node("*", _node(kind, n)) if star else _node(kind, n)


def _mul(*factors: tuple) -> tuple:
    """The product nested from the left."""
    node = factors[0]
    for factor in factors[1:]:
        node = _node("·", node, factor)
    return node


def _lin(*terms: tuple) -> tuple:
    return _node("+", terms)


def _shift(node: tuple, k: int) -> tuple:
    """The node with every letter index moved up by k, and the floor of every
    identity but the unit ("1", 0), which stays."""
    tag = node[0]
    if tag in _LETTERS:
        return _node(tag, node[1] + k)
    if tag == "+":
        return _node("+", tuple((scalar, _shift(x, k)) for scalar, x in node[1]))
    if tag == "1":
        return _node("1", node[1] + k) if node[1] else node
    return _node(tag, *(_shift(x, k) for x in node[1:]))


def _shifted(nodes: tuple, k: int) -> tuple:
    return tuple(_shift(node, k) for node in nodes)


def _commutes(x: tuple, y: tuple, star: bool = False, adjoint: bool = False) -> tuple:
    """The operands of the row x'y = yx' for the letters (kind, n) x and y,
    x' = x* with ``star``; with ``adjoint`` of (yx')* = (x'y)*, which is
    x'*y* = y*x'* read off the products that x'y = yx' forms."""
    x, y = _letter(*x, star), _letter(*y)
    xy, yx = _mul(x, y), _mul(y, x)
    return (_node("*", yx), _node("*", xy)) if adjoint else (xy, yx)


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


def _least(*texts: str) -> int:
    """The least n at which every letter of the words ``texts`` is a generator."""
    return max(_KINDS[kind][1] - d for text in texts for kind, d, _ in _letters(text))


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
_FACTORS = ("v", "v*", "w", "w*")  # the factors of the whitelist's products
_INDEX = ("n", "sum_at", "r")  # the index a template row is translated along
_ORDER = attrgetter("order")
_DELTA_KINDS = frozenset(("equality", "vanishes", "commutes"))  # the rows a mutant decides on deltas


class _Row:
    """One check of a suite; rows compare by identity, as keys of the verdicts.
    ``operands`` is a tuple of nodes, or a function that builds it on first
    read.  ``apart`` holds a commutation row's two letters and
    ``certificates`` their certificate rows, ``link`` a translate's template
    and shift; other rows hold None in them."""

    __slots__ = ("equation", "indices", "kind", "apart", "certificates", "link", "order", "top", "_operands", "_reads")

    def __init__(self, equation: str, indices: dict, kind: str, operands, apart: tuple | None = None,
                 link: tuple | None = None, order: tuple = (), top: int = 0):
        self.equation, self.indices, self.kind, self._operands = equation, indices, kind, operands
        self.apart = apart if kind == "commutes" else None
        self.certificates = self.apart and tuple(_certificate(*letter) for letter in self.apart)
        self.link, self.order, self.top, self._reads = link, order, top, None

    @property
    def operands(self) -> tuple:
        if callable(self._operands):
            self._operands = self._operands()
        return self._operands

    @property
    def reads(self) -> frozenset:
        """The letters of the operands, collected on first use: a translate's
        are its template's shifted and a commutation row's are its pair, so
        neither builds its operands for them."""
        if self._reads is None:
            if self.link:
                translate, shift = self.link
                reads = {(kind, n + shift) for kind, n in translate.reads}
            elif self.apart:
                reads = set(self.apart)
            else:
                reads, stack = set(), list(self.operands)
                while stack:
                    node = stack.pop()
                    reads.add(node) if node[0] in _LETTERS else stack.extend(_children(node))
            self._reads = frozenset(reads)
        return self._reads


def _translate(row: _Row, shift: int) -> _Row:
    """The row at index 2 + shift of a template at index 2, linked to it:
    its operands are the template's shifted, built on first read."""
    indices = {key: val + shift if key in _INDEX else val for key, val in row.indices.items()}
    block, outer, n, inner = row.order
    return _Row(row.equation, indices, row.kind, partial(_shifted, row.operands, shift),
                link=(row, shift), order=(block, outer, n + shift, inner), top=row.top + shift)


@lru_cache(maxsize=None)
def _certificate(kind: str, n: int) -> _Row:
    """The row that decides whether kind_n carries the certificate of its
    window; at n >= 3 the translate of kind_2's (certificates by translation)."""
    if n > 2:
        return _translate(_certificate(kind, 2), n - 2)
    return _Row("window", {"kind": kind, "n": n}, "window", (_letter(kind, n),), order=(0, kind, n, 0),
                top=n + _KINDS[kind][2])


def _diag_order(letter: tuple) -> tuple:
    """e_1..e_N first, then f_n and g_n side by side: the order of R1."""
    return letter[0] != "e", letter[1], letter[0] == "g"


def _relation_templates(add: Callable) -> None:
    # (R1): self-adjoint idempotents summing to 1, mutually commuting
    for kind, n in _generator_keys(2, "efg"):
        add((0, *_diag_order((kind, n))), "R1", {"kind": kind, "n": n}, "projection", _letter(kind, n))
    for n in range(3):
        total = _lin(*((ONE, _letter(k, n)) for k in "fge" if n >= _KINDS[k][1]))
        add((1, 0, n, 0), "R1", {"sum_at": n}, "equality", total, _IDENTITY)
    for (i, family), n, (j, law) in product(enumerate("vw"), range(3), enumerate(_R2)):
        if family + "_n" in law and n >= _least(family + "_n"):
            add((3, i, n, j), "R2", {"family": family, "n": n, "law": law}, "vanishes", _support_law(law, n))
    for block, equation, laws in ((4, "R3", _R3), (5, "R4", _R4)):
        for (i, family), n, (j, (law, left, right)) in product(enumerate("vw"), range(3), enumerate(laws)):
            if left.startswith(family) and n >= _least(left, right):
                add((block, i, n, j), equation, {"family": family, "n": n, "law": law}, "equality",
                    _word(left, n), _word(right, n))
    # 6.1 names its rows by their lowest letter, n - 1 for some laws
    for n, (j, law) in product(range(4), enumerate(_VANISHING)):
        low = n + min(d for _, d, _ in _letters(law))
        if low <= 2 and n >= _least(law):
            add((6, 0, n, j), "6.1", {"law": law, "n": low}, "vanishes", _word(law, n))
    for n, (i, k1), (j, k2) in product(range(3), enumerate(_FACTORS), enumerate(_FACTORS)):
        name = f"{k1}_n {k2}_n+1"
        kind = "nonzero" if name in _WHITELIST else "vanishes"
        if n >= _least(name):
            add((7, 0, n, 4 * i + j), "whitelist", {"product": name, "n": n}, kind, _word(name, n))
    # braid triples (both sides vanish) and the 6.3 list
    for (i, kind), n in product(enumerate("vw"), range(3)):
        if n < _least(kind + "_n"):
            continue
        low, high = _word(f"{kind}_n {kind}_n+1 {kind}_n", n), _word(f"{kind}_n+1 {kind}_n {kind}_n+1", n)
        add((9, i, n, 0), "braid", {"family": kind, "n": n}, "equality", low, high)
        add((9, i, n, 1), "6.3", {"family": kind, "law": "x_n x_n+1 x_n", "n": n}, "vanishes", low)
        add((9, i, n, 2), "6.3", {"family": kind, "law": "x_n+1 x_n x_n+1", "n": n}, "vanishes", high)
    # partition of unity by the embedded floor-r matrix units, at the floors above r
    for r in range(3):
        add((10, 0, r, 0), "unit-partition", {"r": r}, "equality", _node("1", r), _IDENTITY, top=r + 1)


def _yang_baxter_templates(add: Callable) -> None:
    """6.4 at each point (s, t) of the grid {0, 1, 2}^2, as ``yang_baxter_check`` explains."""
    for n in range(3):
        a, b = _letter("v", n), _letter("v", n + 1)
        ab = _mul(a, b)
        square = _lin((ONE, _mul(a, a)), (MINUS, _mul(b, b)))
        cube = _lin((ONE, _mul(ab, a)), (MINUS, _mul(b, ab)))
        for s, t in product(range(3), range(3)):
            difference = _lin(((s * t, 0, 0), square), ((s * t * (s + t), 0, 0), cube))
            add((0, 0, n, 3 * s + t), "6.4", {"n": n, "s": str(s), "t": str(t)}, "vanishes", difference)


def _braiding_templates(add: Callable) -> None:
    for kind, n in _generator_keys(3, "EF"):
        add((0, kind == "F", n, 0), "6.5" if kind == "E" else "6.6", {"kind": kind, "n": n, "law": "projection"},
            "projection", _letter(kind, n))
    # 6.7: E_n and F_n are orthogonal
    for n, (j, word) in product(range(1, 3), enumerate(("E_n F_n", "F_n E_n"))):  # F_0 is no generator
        add((1, 0, n, j), "6.7", {"n": n, "law": word.replace("_n", "")}, "vanishes", _word(word, n))
    # 6.9 - 6.12: triple products with exact right-hand sides
    for (i, group), n in product(enumerate(_TRIPLES), range(3)):
        for j, (equation, law, scalar, word) in enumerate(group):
            if n >= _least(law, word):
                add((3, i, n, j), equation, {"n": n, "law": law}, "equality", _word(law, n),
                    _lin((scalar, _word(word, n))))
    # 6.13 / 6.14: vanishing mixed products.  n >= 1 is the paper's bound on
    # the family, not one on its letters: E_n+1 E_n F_n+1 has them all at n = 0
    for n, (i, (equation, laws)) in product(range(1, 3), enumerate(_MIXED)):
        for j, law in enumerate(laws):
            add((4, 0, n, 4 * i + j), equation, {"n": n, "law": law}, "vanishes", _word(law, n))
    for n in range(3):
        # 6.15 / 6.16: the two-factor expansions of E_n E_n+1 and E_n+1 E_n
        low, high = _letter("v", n), _letter("v", n + 1)
        left = _lin((ONE, _word("v_n* v_n", n)), (ROOT, low))
        right = _lin((ONE, high), (ROOT, _word("v_n+1 v_n+1*", n)))
        add((5, 0, n, 0), "6.15", {"n": n}, "equality", _word("E_n E_n+1", n), _lin((ROOT_UNIT2, _mul(left, right))))
        add((5, 0, n, 1), "6.16", {"n": n}, "equality", _word("E_n+1 E_n", n), _node("*", _word("E_n E_n+1", n)))
        # dominance: tau E_n - E_n E_m E_n is tau times an exact projection
        for i, (residue, triple) in enumerate((("E_n(1-e_n+2)", "E_n E_n+1 E_n"), ("E_n+1(1-g_n)", "E_n+1 E_n E_n+1"))):
            node, outer = _support_law(residue, n), triple.split()[0]
            add((6, 0, n, 2 * i), "dominance", {"n": n, "law": f"{residue} projection"}, "projection", node)
            add((6, 0, n, 2 * i + 1), "dominance", {"n": n, "law": f"tau {outer} - {triple}"}, "equality",
                _lin((TAU, _word(outer, n)), (MINUS, _word(triple, n))), _lin((TAU, node)))


@lru_cache(maxsize=None)
def _templates(suite: str) -> tuple[tuple[_Row, ...], tuple[_Row, ...]]:
    """A suite's templates, and those at index 2, whose translates are its
    rows at index 3 or more.  A template is a row whose translating index is
    at most 2 and whose letters ``_GENERATORS`` defines: the builders state
    each law over the n in 0..2 at which its letters are generators
    (``_least``), so no other row or word is built.  A row's top is the
    highest home floor of its letters unless given."""
    rows, expanding = [], []

    def add(order, equation, indices, kind, *operands, top=None):
        row = _Row(equation, indices, kind, operands, order=order)
        row.top = max(n + _KINDS[k][2] for k, n in row.reads) if top is None else top
        rows.append(row)
        if next(indices[key] for key in _INDEX if key in indices) == 2:
            expanding.append(row)

    _TEMPLATES[suite](add)
    return tuple(rows), tuple(expanding)


_TEMPLATES = {"base": _relation_templates, "yb": _yang_baxter_templates, "braiding": _braiding_templates}


def _commutation_rows(suite: str, top: int) -> list[_Row]:
    """A suite's rows over the letter pairs whose windows are apart and whose
    higher home floor is ``top``: e/f/g pairs for R1; v/w pairs (four rows,
    one per placement of the stars) and v/w x e/f/g pairs for locality; E/F
    pairs for 6.8."""
    rows = []
    home = {key: key[1] + _KINDS[key[0]][2] for key in _generator_keys(top, _LETTERS)}

    def add(equation, order, x, y, s1="", s2=""):
        if top in (home[x], home[y]) and (apart := _windows_apart(x, y)):
            # x y* = y* x and x* y* = y* x* are the adjoints of y x* = x* y and
            # y x = x y: adjoints in place of two products each
            operands = partial(_commutes, x, y, s1 != s2, s2 == "*")
            rows.append(_Row(equation, {"commutator": f"{x[0]}{s1}{x[1]},{y[0]}{s2}{y[1]}"}, "commutes", operands,
                             apart=apart, order=order, top=top))

    if suite == "base":
        diag = {z: _diag_order(z) for z in sorted(_generator_keys(top, "efg"), key=_diag_order)}
        for x, y in combinations(diag, 2):
            add("R1", (2, diag[x], diag[y]), x, y)
        isos = _generator_keys(top, "vw")
        for x in isos:
            for y in isos:
                if x[1] < y[1]:
                    for star, (s1, s2) in enumerate(product(("", "*"), ("", "*"))):
                        add("locality", (8, x, 0, y, star), x, y, s1, s2)
            for z, order in diag.items():
                add("locality", (8, x, 1, order, 0), x, z)
    elif suite == "braiding":
        projections = _generator_keys(top, "EF")
        for x, y in product(projections, projections):
            if x[1] < y[1]:
                add("6.8", (2, x, y), x, y)
    return rows


@lru_cache(maxsize=None)
def _rows_at(suite: str, top: int) -> tuple[_Row, ...]:
    """The rows of a suite whose top floor is ``top``: its templates there,
    the translate there of each index-2 template below, and its commutation
    rows there."""
    templates, expanding = _templates(suite)
    rows = [row for row in templates if row.top == top]
    rows += [_translate(row, top - row.top) for row in expanding if row.top < top]
    return (*rows, *_commutation_rows(suite, top))


@lru_cache(maxsize=None)
def _table(suite: str, floor: int) -> tuple[_Row, ...]:
    """The rows of a suite ("base", "yb" or "braiding") at floor N in suite
    order: the floor-(N-1) table merged with the rows whose top floor is N.
    Every row is built once per process."""
    rows = (*_table(suite, floor - 1), *_rows_at(suite, floor)) if floor else _rows_at(suite, 0)
    return tuple(sorted(rows, key=_ORDER))


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
    if op is None:  # every term is zero, so the one at the top floor is the sum
        return next(term for _, term in terms if term.ctx is top)
    return op.lift(top)


def _product(x: SparseOperator, y: SparseOperator, report: Report) -> SparseOperator:
    """x y, counted into ``report``."""
    op = x * y
    report.products += 1
    report.largest_product = op.max_nonzeros(report.largest_product)
    return op


def _value(rep: Representation, node: tuple, nodes: dict, report: Report) -> SparseOperator:
    """The operator of a node on rep, counting products into ``report``.
    ``nodes`` is rep's node cache for one suite call, keyed by id: a node that
    several rows read (equal words are one node) is built once and kept."""
    op = nodes.get(id(node))
    if op is not None:
        return op
    tag = node[0]
    if tag in _LETTERS:
        op = rep._home(*node)
    elif tag == "·":
        op = _product(_value(rep, node[1], nodes, report), _value(rep, node[2], nodes, report), report)
    elif tag == "*":
        op = _value(rep, node[1], nodes, report).adjoint()
    elif tag == "+":
        op = _combination([(scalar, _value(rep, x, nodes, report)) for scalar, x in node[1]], rep.lam)
    else:  # ("1", r): the floor-r identity, which lifts to what it meets
        op = SparseOperator.identity(path_context(node[1]), rep.lam)
    nodes[id(node)] = op
    return op


def _delta(rep: Representation, node: tuple, nodes: dict, report: Report) -> SparseOperator | None:
    """A node's delta on the mutant rep: its value less the lift of its
    parent's, at floor N, or None where it reads no changed key.  Kept in
    rep's dict of ``nodes`` under -id(node), and the parent's values that
    d(xy) = d(x) y_mutant + x_parent d(y) reads in the parent's."""
    own = nodes[rep]
    if -id(node) in own:
        return own[-id(node)]
    tag, op = node[0], None
    if tag in _LETTERS:
        if node in rep._changed:
            op = rep._home(*node) - rep._parent._home(*node)
    elif tag == "·":
        x, y = node[1:]
        if (dx := _delta(rep, x, nodes, report)) is not None:
            op = _product(dx, _value(rep, y, own, report), report)
        if (dy := _delta(rep, y, nodes, report)) is not None:
            term = _product(_value(rep._parent, x, nodes.setdefault(rep._parent, {}), report), dy, report)
            op = term if op is None else op + term
    elif tag == "*":
        op = _delta(rep, node[1], nodes, report)
        op = op and op.adjoint()
    elif tag == "+":
        terms = [(scalar, d) for scalar, x in node[1] if (d := _delta(rep, x, nodes, report)) is not None]
        op = _combination(terms, rep.lam) if terms else None
    own[-id(node)] = op
    return op


def _verdict(rep: Representation, row: _Row, nodes: dict, report: Report) -> Check:
    """The check of a row on rep, by the rule in the module docstring; a row
    decided on its operands (or their deltas) builds them in rep's own dict
    of ``nodes``.  rep keeps what it decides."""
    kept = rep._verdicts
    check = kept.get(row)
    if check is not None:
        return check
    parent = rep._parent
    if parent is not None and rep._changed.isdisjoint(row.reads):
        return _verdict(parent, row, nodes, report)
    floor = None
    if row.link and not rep._changed:
        translate, shift = row.link
        check = kept.get(translate) or _verdict(rep, translate, nodes, report)
        floor = check.floor + shift if check.status == "pass" else None
    elif row.certificates:  # the second certificate is read only when the first passes
        first, second = row.certificates
        x = kept.get(first) or _verdict(rep, first, nodes, report)
        if x.status == "pass" and (y := kept.get(second) or _verdict(rep, second, nodes, report)).status == "pass":
            floor = max(x.floor, y.floor)
    if floor is not None:
        check = Check(row.equation, dict(row.indices), "pass", None, floor)
    elif parent is not None and row.kind in _DELTA_KINDS and _verdict(parent, row, nodes, report).status == "pass":
        nodes.setdefault(rep, {})
        terms = [(scalar, d) for scalar, node in zip((ONE, MINUS), row.operands)
                 if (d := _delta(rep, node, nodes, report)) is not None]
        check = Check.vanishes(row.equation, dict(row.indices), _combination(terms, rep.lam))
    else:
        own = nodes.setdefault(rep, {})
        operands = [_value(rep, node, own, report) for node in row.operands]
        decide = getattr(Check, "equality" if row.kind == "commutes" else row.kind)
        check = decide(row.equation, dict(row.indices), *operands)
        if check.witness and row.kind != "nonzero" and check.floor < rep.floor:
            # the least entry of the lift to floor N is the first extension of
            # the least entry at the check's floor, and has its value
            first, low = _extensions(path_context(check.floor), rep.ctx)[0], check.witness
            low["row"], low["col"] = first[low["row"]], first[low["col"]]
    kept[row] = check
    return check


def _suite(suite: str, floor: int, lam, rep: Representation | None) -> Report:
    """Run a suite's table on ``rep``, which must be the floor-N model at
    lam, or on a new one."""
    lam = parse_fraction(lam, "lam")
    if rep is None:
        rep = Representation(floor, lam)
    elif (rep.floor, rep.lam) != (floor, lam):
        raise ValueError(f"rep is the floor-{rep.floor} model at lambda {rep.lam}, not floor {floor} at lambda {lam}")
    report, nodes = Report(), {}  # one node dict per model the call reads
    report.checks = [_verdict(rep, row, nodes, report) for row in _table(suite, floor)]
    return report


# ---------------------------------------------------------------------------
# suites


def verify_relation_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """(R1)-(R4), the vanishing products, the nonzero whitelist, far-floor
    commutation (locality), the braid triples and the partition of unity by
    embedded matrix units.  Needs floor >= 4 for every index family."""
    if floor < 4:
        raise ValueError("the relation suite needs floor >= 4")
    return _suite("base", floor, lam, rep)


def yang_baxter_check(floor: int, lam=Fraction(1), rep: Representation | None = None) -> Report:
    """R_n(s) R_{n+1}(s+t) R_n(t) == R_{n+1}(t) R_n(s+t) R_{n+1}(s), with
    R_n(s) = 1 + s*v_n, at each point (s, t) of the grid {0, 1, 2}^2.  With
    a = v_n and b = v_{n+1} the sides differ by st(a^2 - b^2) +
    st(s+t)(aba - bab) in any ring, so the two coefficients are built once
    per n.  They vanish, and the identity holds for all s, t, iff it holds at
    (1, 1) and (1, 2), which the grid contains.  Needs floor >= 2."""
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    return _suite("yb", floor, lam, rep)


def verify_braiding_suite(floor: int, lam, rep: Representation | None = None) -> Report:
    """E/F projections, orthogonality, distance-2 commutation, the triple
    products with exact right-hand sides, the vanishing mixed products, the
    expansions of E_n E_n+1, and dominance: tau*E_n - E_n E_m E_n == tau *
    (exact self-adjoint idempotent).  Needs floor >= 4 for the triples."""
    if floor < 4:
        raise ValueError("the braiding suite needs floor >= 4")
    return _suite("braiding", floor, lam, rep)


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
