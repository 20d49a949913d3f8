"""Traces as weight functions on the memoryless tree.

Augment the diagram with a root ``STAR = (-1, 0)`` joined to both floor-0
vertices, then forget the memory columns: what remains is the binary-ish
tree T on STAR and the odd-index vertices (n, k).  A trace corresponds to a
weight phi: V(T) -> [0, 1] with phi(STAR) = 1 satisfying, at every vertex,

    phi(v) >= sum of phi over the branch set C(v),

where C(v) collects the neighbours of the infinite vertical line below v:
left-then-rights and right-then-lefts (one-sided at STAR and at (0, 1)).
Since C(v) is infinite, a candidate carries the pointwise evaluator plus an
optional exact tail oracle for the mass beyond a floor; without the oracle
only the truncated necessary condition can be checked and the report says
so.  Candidate evaluators must be deterministic and side-effect free.

``check_trace`` evaluates phi once per vertex and builds every truncated
branch mass in one bottom-up pass from sums along the left and right move
chains; ``neighbor_set`` lists a branch set explicitly, and a table
candidate's tail reads each entry off the two vertices whose branch sets
hold it (``_owners``).  The chain sums run on (numerator,
denominator) int pairs: two pairs combine over the lcm of their
denominators, in one ``math.lcm`` call and without reduction, and phi is
compared with its mass by cross-multiplication.  No common denominator is
shared across vertices.

That exact work is done floor by floor, on columns of pairs (``_each``).
A column that repeats one object (found by an identity scan, never by
comparing values) is passed to the kernel as that object, so a floor whose
columns all do costs one call: every floor of a geometric candidate, and
the default-0 floors below a table's entries.  Such a column is carried as
the object and its length (``_Same``), so no later kernel, slice or
negative-weight check scans it again, and it keeps no list.  Over the other
columns the work is done once per distinct operand tuple: equal weights
share one sum, one comparison and one reported ``Fraction``, and a
candidate whose weights all differ still pays per vertex.  The check
returns its rows as a read-only view over each floor's phi column and
reported-mass column (``_Rows``), so no row tuple or vertex is stored.
Vertices are located from their labels by ``core.vertex_of_label``, which
works on integer numerators and denominators.

From a valid weight the full family of diagram values alpha is rebuilt
floor by floor: odd indices read phi, even indices subtract the adjacent
odd values from the vertex one floor up, as int pairs over one lcm, once
per distinct triple of the floor, so equal weights share one ``Fraction``.
The floor above is carried as those pairs, never converted back from the
``Fraction`` values it stored, and phi is still called once per vertex.
The weights are kept as one list per floor, even and odd indices
interleaved as in the pairs, and returned behind a read-only ``Mapping``
keyed by vertex: no (n, k) tuple is stored.  All arithmetic is exact.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import lcm
from operator import index, is_, itemgetter
from typing import Callable, Iterator, Optional

from .core import CF, cf_decode, cf_encode, cf_normalize, json_object, label, parse_fraction, vertex_of_label

__all__ = [
    "STAR",
    "TraceCandidate",
    "TraceReport",
    "alpha_from_phi",
    "candidate_from_json",
    "cf_of_vertex",
    "check_trace",
    "geometric_candidate",
    "move_left",
    "move_left_cf",
    "move_right",
    "move_right_cf",
    "neighbor_set",
    "table_candidate",
    "tree_vertices",
    "vertex_of_cf",
    "zero_candidate",
]

Vertex = tuple[int, int]

STAR: Vertex = (-1, 0)

MAX_DEPTH = 20
# deepest floor a table entry may sit on: a tail oracle walks each entry up
# to the vertices whose branch sets hold it, which must stay a bounded walk
MAX_TABLE_FLOOR = MAX_DEPTH + 20
# most bits in the numerator or denominator of a JSON ratio or weight: the
# check's sums grow with them.  Measured on one x86-64 core with Python 3.11,
# ``trace check`` at depth 20 on the ratio 1/(2**b + 1) takes 4.1 / 9.8 / 27
# / 98 s for b = 2 / 256 / 1024 / 4096.
MAX_WEIGHT_BITS = 256

_ZERO = Fraction(0)
_numerator = itemgetter(0)  # of a (numerator, denominator) pair
_MIXED = object()  # ``_shared`` of a column that holds more than one object


def _check_tree_vertex(v: Vertex) -> None:
    n, k = v
    if v == STAR:
        return
    # odd k <= 2**n, read off bit lengths so that no 2**n is built
    if n < 0 or k <= 0 or k % 2 == 0 or k.bit_length() > max(n, 1):
        raise ValueError(f"{v} is not a vertex of the memoryless tree")


def tree_vertices(max_floor: int) -> list[Vertex]:
    """STAR plus all odd-index vertices with floor <= max_floor."""
    out: list[Vertex] = [STAR]
    for n in range(max_floor + 1):
        out.extend((n, k) for k in range(1, 2**n + 1, 2))
    return out


# ---------------------------------------------------------------------------
# moves, in coordinates and on continued fractions


def move_left(v: Vertex) -> Vertex:
    """(n, k) -> (n+1, 2k-1); undefined at STAR."""
    _check_tree_vertex(v)
    if v == STAR:
        raise ValueError("no left move from the root")
    n, k = v
    return (n + 1, 2 * k - 1)


def move_right(v: Vertex) -> Vertex:
    """(n, k) -> (n+1, 2k+1); STAR -> (0, 1); undefined at (0, 1)."""
    _check_tree_vertex(v)
    if v == STAR:
        return (0, 1)
    n, k = v
    if k >= 2**n:
        raise ValueError(f"no right move from {v}")
    return (n + 1, 2 * k + 1)


def move_left_cf(terms: CF) -> CF:
    """Left move on labels: append-or-extend depending on term-count parity."""
    t = cf_normalize(terms)
    if not t:
        raise ValueError("no left move from the root")
    if len(t) % 2 == 0:
        return t[:-1] + (t[-1] - 1, 2)
    return t[:-1] + (t[-1] + 1,)


def move_right_cf(terms: CF) -> CF:
    """Right move on labels; the root's label 0 moves to 1."""
    t = cf_normalize(terms)
    if not t:
        return (1,)
    if t == (1,):
        raise ValueError("no right move from label 1")
    if len(t) % 2 == 0:
        return t[:-1] + (t[-1] + 1,)
    return t[:-1] + (t[-1] - 1, 2)


def cf_of_vertex(v: Vertex) -> CF:
    """Label of a tree vertex as a continued fraction; STAR carries 0."""
    _check_tree_vertex(v)
    if v == STAR:
        return ()
    return cf_encode(label(*v))


def vertex_of_cf(terms: CF) -> Vertex:
    """Inverse of cf_of_vertex: a rational's unique first-appearance vertex."""
    t = cf_normalize(terms)
    if not t:
        return STAR
    return vertex_of_label(cf_decode(t))


# ---------------------------------------------------------------------------
# branch sets


def neighbor_set(v: Vertex, max_floor: int) -> list[Vertex]:
    """The branch set C(v) truncated to floors <= max_floor.

    Right-then-lefts only at STAR, left-then-rights only at (0, 1), both
    branches elsewhere.
    """
    _check_tree_vertex(v)
    out: list[Vertex] = []
    # (first move, then move, the vertex that has no such chain)
    for first, then, skip in ((move_left, move_right, STAR), (move_right, move_left, (0, 1))):
        if v != skip:
            w = first(v)
            while w[0] <= max_floor:
                out.append(w)
                w = then(w)
    return sorted(out)


def _owners(w: Vertex) -> list[Vertex]:
    """The vertices v whose branch set C(v) holds the vertex w (not STAR):
    w = R^j L v, found by undoing w's last run of right moves and then one
    left move, and w = L^j R v, undoing its last run of left moves and then
    one right move.  A vertex (n, k), n >= 1, is the left child of
    (n - 1, k >> 1 | 1) when k % 4 == 1 and its right child when k % 4 == 3;
    (0, 1) is the right child of STAR and lies in C(STAR) alone."""
    out = []
    for run in (3, 1):  # right moves, then left moves
        n, k = w
        while n and k % 4 == run:
            n, k = n - 1, k >> 1 | 1
        if n:
            out.append((n - 1, k >> 1 | 1))
        elif run == 1:
            out.append(STAR)
    return out


# ---------------------------------------------------------------------------
# candidates


@dataclass(frozen=True)
class TraceCandidate:
    """Weight evaluator plus an optional exact tail oracle.

    ``phi(v)`` must return a nonnegative Fraction with phi(STAR) = 1.
    ``tail(v, depth)``, when present, must return the exact mass of C(v)
    beyond the given floor.
    """

    phi: Callable[[Vertex], Fraction]
    tail: Optional[Callable[[Vertex, int], Fraction]] = None


def zero_candidate() -> TraceCandidate:
    """Supported on STAR only; corresponds to the one-dimensional quotient."""
    return TraceCandidate(
        phi=lambda v: Fraction(v == STAR),
        tail=lambda v, depth: Fraction(0),
    )


def geometric_candidate(ratio: Fraction) -> TraceCandidate:
    """phi(n, k) = ratio**(n+1), with closed-form geometric tails.

    Each candidate memoises the powers and tails of the floors asked for,
    so a check computes each once; any floor can be asked for.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")

    @cache
    def power(e: int) -> Fraction:
        return ratio**e

    @cache
    def branch_tail(start: int, per_floor: int) -> Fraction:
        return per_floor * power(start + 2) / (1 - ratio)

    def phi(v: Vertex) -> Fraction:
        # STAR sits on floor -1 and weighs ratio**0 = 1
        return power(v[0] + 1)

    def tail(v: Vertex, depth: int) -> Fraction:
        # branch members sit one per floor at STAR and (0, 1), the only tree
        # vertices on floors -1 and 0, and two per floor elsewhere
        n = v[0]
        return branch_tail(depth if depth > n else n, 2 if n > 0 else 1)

    return TraceCandidate(phi, tail)


def table_candidate(entries: dict[Vertex, Fraction], default: Fraction = Fraction(0)) -> TraceCandidate:
    """Finite table with a default; exact tails exist only for default 0.
    Entries lie on floors 0..MAX_TABLE_FLOOR."""
    for v in entries:
        if v[0] > MAX_TABLE_FLOOR:
            raise ValueError(f"table entry {v} lies deeper than floor {MAX_TABLE_FLOOR}")
        _check_tree_vertex(v)
    table = dict(entries)
    max_floor = max((v[0] for v in table), default=-1)
    table[STAR] = Fraction(1)  # whatever the entries say

    def phi(v: Vertex) -> Fraction:
        return table.get(v, default)

    if default != 0:
        return TraceCandidate(phi, None)

    # each entry's floor and weight under the vertices whose branch sets hold it
    owned: dict[Vertex, list[tuple[int, Fraction]]] = {}
    for w, weight in entries.items():
        if w != STAR:
            for v in _owners(w):
                owned.setdefault(v, []).append((w[0], weight))

    def tail(v: Vertex, depth: int) -> Fraction:
        if depth >= max_floor:
            return _ZERO
        return sum((weight for n, weight in owned.get(v, ()) if n > depth), _ZERO)

    return TraceCandidate(phi, tail)


def _exact(value, name: str) -> Fraction:
    """A JSON weight as a Fraction of at most MAX_WEIGHT_BITS bits above and
    below; ``parse_fraction`` refuses floats."""
    out = parse_fraction(value, name)
    if max(out.numerator.bit_length(), out.denominator.bit_length()) > MAX_WEIGHT_BITS:
        raise ValueError(f"{name} has more than {MAX_WEIGHT_BITS} bits in its numerator or denominator")
    return out


def _index(value) -> int:
    if type(value) is not int:
        raise ValueError(f"table indices must be ints, not {json.dumps(value)}")
    return value


# the keys each kind of JSON candidate may hold
_SCHEMAS = {"geometric": {"kind", "ratio"}, "table": {"kind", "entries", "default"}}


def candidate_from_json(text: str) -> TraceCandidate:
    """Accepts {"kind":"geometric","ratio":"1/4"} or
    {"kind":"table","entries":[[n,k,"p/q"],...],"default":"0"}; weights are
    ints or 'p/q' strings, never floats, and indices are ints.  The spec is
    read strictly: a key outside its kind's schema and a second entry for
    one (n, k) are refused, not ignored or overwritten."""
    payload = json_object(text, "a trace candidate")
    kind = payload.get("kind")
    if type(kind) is not str or kind not in _SCHEMAS:  # a list or dict kind is not hashable
        raise ValueError(f"unknown candidate kind {kind!r}")
    try:
        unknown = sorted(payload.keys() - _SCHEMAS[kind])
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}, the keys are {', '.join(sorted(_SCHEMAS[kind]))}")
        if kind == "geometric":
            return geometric_candidate(_exact(payload["ratio"], "ratio"))
        entries = {}
        for n, k, value in payload.get("entries", []):
            vertex = (_index(n), _index(k))
            if vertex in entries:
                raise ValueError(f"a second entry for {vertex}")
            entries[vertex] = _exact(value, "a table value")
        return table_candidate(entries, _exact(payload.get("default", "0"), "default"))
    except KeyError as exc:
        raise ValueError(f"{kind} trace candidate needs the key {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind} trace candidate: {exc}") from None


# ---------------------------------------------------------------------------
# the trace condition


@dataclass(frozen=True)
class TraceReport:
    valid: bool
    exact: bool  # False when no tail oracle was available (necessary-only)
    first_violation: Vertex | None
    rows: Sequence[tuple[Vertex, Fraction, Fraction]]  # (vertex, phi, branch sum)


def check_trace(candidate: TraceCandidate, depth: int) -> TraceReport:
    """Verify phi(v) >= branch mass for every v with floor < depth.

    With a tail oracle the branch mass is exact and the verdict definitive;
    otherwise only the truncated sum is compared and a pass means merely
    "no violation visible at this depth".  A negative weight on any floor
    0..depth, the floor the masses are read from included, is refused with
    its vertex before any sum is taken.

    One bottom-up pass: phi is evaluated once on every vertex of floors
    <= depth, and the chain sums L(v) = phi(v) + L(left(v)) and
    R(v) = phi(v) + R(right(v)) give the truncated branch masses
    mass(v) = R(left(v)) + L(right(v)); at STAR the mass is L((0, 1)), at
    (0, 1) it is R((1, 1)).  The sums run on (numerator, denominator) int
    pairs (see ``_add``), once per repeated object or distinct operand
    tuple of a floor (see ``_each``), from the deepest floor with a nonzero
    weight up; each distinct reported mass of a floor becomes one
    ``Fraction``.  The rows come back as a read-only view (``_Rows``) over
    each floor's phi column and reported-mass column; no vertex is stored.
    """
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in 1..{MAX_DEPTH}")
    root = candidate.phi(STAR)
    if root != 1:
        raise ValueError("a trace candidate must have weight exactly 1 at the root")
    # per floor n, position j holds the odd vertex (n, 2j + 1)
    values = [_column(list(map(candidate.phi, _odd_vertices(n)))) for n in range(depth + 1)]
    pairs = list(map(_pairs, values))
    for n, column in enumerate(pairs):
        negative = _first_negative(column)
        if negative is not None:
            raise ValueError(f"negative weight at {(n, 2 * negative + 1)}")
    # the floors below the deepest nonzero weight hold zero pairs only, and so
    # do their chain sums and masses: the pass starts at that weight's floor
    low = next((n for n in range(depth, 0, -1) if not _all_zero(pairs[n])), 0)
    masses = pairs[:depth]
    lefts = rights = pairs[min(low + 1, depth)]  # chain sums L and R of the floor below
    for n in range(min(low, depth - 1), 0, -1):
        here = pairs[n]
        masses[n] = _each(_add, rights[0::2], lefts[1::2])
        lefts = _each(_add, here, lefts[0::2])
        rights = _each(_add, here, rights[1::2])
    masses[0] = [rights[0]]  # (0, 1) has no right move
    star_mass = _add(pairs[0][0], lefts[0])  # L((0, 1))

    columns = []  # (phi column, reported-mass column) of STAR, then of floors 0..depth-1
    first: Vertex | None = None
    floors = zip(range(-1, depth), [[root]] + values, [[(1, 1)]] + pairs, [[star_mass]] + masses)
    for n, value, pair, mass in floors:
        if candidate.tail is None:
            rests = _Same((0, 1), len(value))
        else:
            rests = _pairs(list(map(candidate.tail, _odd_vertices(n) if n >= 0 else [STAR], repeat(depth))))
        reported, below = _unzip(_each(_verdict, pair, mass, rests))
        columns.append((value, reported))
        if first is None:
            j = _first_true(below)
            if j is not None:
                first = (n, 2 * j + 1) if n >= 0 else STAR
    return TraceReport(first is None, candidate.tail is not None, first, _Rows(columns))


class _Rows(Sequence):
    """The rows (vertex, phi, reported mass) of a trace check, read from one
    phi column and one mass column per floor: STAR first, then each floor's
    odd vertices (n, 2j + 1) by j, as ``tree_vertices`` orders them.  It
    equals, and hashes as, the tuple of its rows."""

    __slots__ = ("_floors",)

    def __init__(self, floors: list[tuple[Sequence[Fraction], Sequence[Fraction]]]):
        self._floors = floors  # STAR's columns, then those of floors 0, 1, ...

    def __len__(self) -> int:
        return sum(len(phi) for phi, _ in self._floors)

    def __getitem__(self, i: int) -> tuple[Vertex, Fraction, Fraction]:
        size, i = len(self), index(i)
        if not -size <= i < size:
            raise IndexError("row index out of range")
        i %= size
        if i == 0:
            vertex, n, j = STAR, -1, 0
        else:
            # floor n >= 1 holds rows 2**(n - 1) + 1 .. 2**n, floor 0 row 1
            n = (i - 1).bit_length()
            j = i - 1 - (1 << n >> 1)
            vertex = (n, 2 * j + 1)
        phi, mass = self._floors[n + 1]
        return vertex, phi[j], mass[j]

    def __iter__(self) -> Iterator[tuple[Vertex, Fraction, Fraction]]:
        vertices = chain([STAR], *map(_odd_vertices, range(len(self._floors) - 1)))
        phis = chain.from_iterable(phi for phi, _ in self._floors)
        return zip(vertices, phis, chain.from_iterable(mass for _, mass in self._floors))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Rows)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def position(self, vertex: Vertex) -> int:
        """The index of a vertex's row, found without a scan."""
        if vertex == STAR:
            return 0
        _check_tree_vertex(vertex)
        n, k = vertex
        i = 1 + (1 << n >> 1) + (k >> 1)
        if i >= len(self):
            raise ValueError(f"{vertex} lies below the rows")
        return i


def _odd_vertices(n: int) -> Iterator[Vertex]:
    return zip(repeat(n), range(1, 2**n + 1, 2))


class _Same:
    """A column that repeats one object, kept as that object and a length:
    the kernels read the object without a scan, and a slice is another
    ``_Same``."""

    __slots__ = ("one", "size")

    def __init__(self, one, size: int):
        self.one, self.size = one, size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator:
        return repeat(self.one, self.size)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Same(self.one, len(range(self.size)[i]))
        range(self.size)[i]  # an IndexError out of range
        return self.one


def _column(values: list):
    """The list, or a ``_Same`` when it repeats one object."""
    one = _shared(values)
    return values if one is _MIXED else _Same(one, len(values))


def _shared(column):
    """The one object a column repeats, found by identity and never by
    value, or ``_MIXED`` (for an empty column too); a ``_Same`` column is
    not scanned."""
    if type(column) is _Same:
        return column.one
    if not column:
        return _MIXED
    first = column[0]
    return first if all(map(is_, column, repeat(first))) else _MIXED


def _pairs(values) -> list[tuple[int, int]] | _Same:
    """The weights as (numerator, denominator) pairs; a column of one
    repeated weight converts it once, into a ``_Same``."""
    one = _shared(values)
    if one is not _MIXED:
        return _Same(one.as_integer_ratio(), len(values))
    # as_integer_ratio reads both slots in one call, where the numerator and
    # denominator properties are a Python call each
    return list(map(Fraction.as_integer_ratio, values))


def _each(fn: Callable, *columns) -> list | _Same:
    """fn over the zipped columns, called once per distinct operand tuple.

    A column that repeats one object is passed as that object and leaves the
    key, so a floor whose columns all do calls fn once, and its result is a
    ``_Same``.  Over the other columns, equal operand tuples share one
    result; the table lives for this call only, and a single such column is
    its own key.  When the lead one of them repeats no value, no tuple
    repeats either, and fn is mapped straight over the columns without a
    table."""
    shared = list(map(_shared, columns))
    mixed = [column for column, one in zip(columns, shared) if one is _MIXED]
    if not mixed:
        return _Same(fn(*shared), len(columns[0]))
    lead = mixed[0]
    if len(set(lead)) == len(lead):
        return list(map(fn, *(column if one is _MIXED else repeat(one) for column, one in zip(columns, shared))))
    keys = lead if len(mixed) == 1 else list(zip(*mixed))
    distinct = list(dict.fromkeys(keys))
    picks = iter([distinct] if len(mixed) == 1 else zip(*distinct))  # the distinct keys, column by column
    results = map(fn, *[next(picks) if one is _MIXED else repeat(one) for one in shared])
    return list(map(dict(zip(distinct, results)).__getitem__, keys))


def _unzip(column) -> tuple:
    """A column of (reported mass, below) verdicts as two columns."""
    if type(column) is _Same:
        return tuple(_Same(item, len(column)) for item in column.one)
    return list(map(itemgetter(0), column)), list(map(itemgetter(1), column))


def _first_true(column) -> int | None:
    """Position of the first True in a column of bools, or None."""
    if type(column) is _Same:
        return 0 if column.one else None
    return column.index(True) if True in column else None


def _all_zero(pairs) -> bool:
    one = _shared(pairs)
    return not one[0] if one is not _MIXED else not any(map(_numerator, pairs))


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """Sum of two (numerator, denominator) pairs over the lcm of the
    denominators, unreduced; an exact zero is never added."""
    xn, xd = x
    yn, yd = y
    if not xn:
        return y
    if not yn:
        return x
    if xd == yd:
        return xn + yn, xd
    d = lcm(xd, yd)
    return xn * (d // xd) + yn * (d // yd), d


def _verdict(value: tuple[int, int], mass: tuple[int, int], rest: tuple[int, int]) -> tuple[Fraction, bool]:
    """The reported mass, the truncated one plus the tail, as a ``Fraction``,
    and whether the value lies below it (cross-multiplied over the positive
    denominators)."""
    num, den = _add(mass, rest)
    # zero masses share one Fraction
    return Fraction(num, den) if num else _ZERO, value[0] * den < num * value[1]


def _difference(
    above: tuple[int, int], left: tuple[int, int], right: tuple[int, int]
) -> tuple[tuple[int, int], Fraction]:
    """above - left - right over one lcm, as an unreduced pair and as a
    ``Fraction``."""
    (an, ad), (ln, ld), (rn, rd) = above, left, right
    d = lcm(ad, ld, rd)
    num = an * (d // ad) - ln * (d // ld) - rn * (d // rd)
    return (num, d), Fraction(num, d)


def alpha_from_phi(candidate: TraceCandidate, depth: int) -> Mapping[Vertex, Fraction]:
    """Rebuild the diagram weights on every vertex down to the given floor.

    Odd indices read phi; the even index 2m at floor n+1 receives the value
    at (n, m) minus its adjacent odd values one floor down, subtracted as
    (numerator, denominator) int pairs over one lcm, once per distinct
    operand triple of the floor (see ``_each``), and stored as one
    ``Fraction`` per triple.  The floor above is carried as those pairs, so
    no value is converted back from its ``Fraction``.  The result satisfies
    the three-term recursion exactly by construction; a negative value
    (reported with its vertex) means the candidate is not a trace.

    The weights come back as a read-only mapping over one list per floor
    (``_Alpha``), ordered STAR, then each floor's odd and even vertices.
    """
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in 0..{MAX_DEPTH}")
    if candidate.phi(STAR) != 1:
        raise ValueError("a trace candidate must have weight exactly 1 at the root")
    floors = [[Fraction(1)]]  # STAR, the one vertex (-1, 0) of floor -1
    above = [(1, 1)]  # the pairs of the floor above by index; STAR sits above floor 0
    for n in range(depth + 1):
        odd = list(map(candidate.phi, _odd_vertices(n)))
        odd_pairs = _pairs(odd)
        _refuse_negative(odd_pairs, odd, n, 1)
        # the even index 2m sits below index m one floor up, between odd[m - 1]
        # and odd[m]; a missing neighbour at either end counts as the pair 0/1
        # (at floor 0 only m = 0 exists: (0, 0) is 1 - phi((0, 1))).  The
        # groups of ``_GROUPS`` go to ``_each`` apart: on floors of one weight
        # every group is one repeated triple, except the even m, which vary
        # above only
        lefts, rights = [(0, 1), *odd_pairs], [*odd_pairs, (0, 1)]
        differences = [None] * len(above)
        for part in _GROUPS:
            differences[part] = _each(_difference, above[part], lefts[part], rights[part])
        even_pairs = list(map(itemgetter(0), differences))
        even = list(map(itemgetter(1), differences))
        del differences, lefts, rights  # freed before the next floor's phi calls, to keep the peak low
        _refuse_negative(even_pairs, even, n, 0)
        weights = [None] * (len(even) + len(odd))
        weights[0::2], weights[1::2] = even, odd
        floors.append(weights)
        above = [None] * len(weights)
        above[0::2], above[1::2] = even_pairs, odd_pairs
    return _Alpha(floors)


class _Alpha(Mapping):
    """Diagram weights by vertex, read from one list per floor: (n, k) is
    ``floors[n + 1][k]`` and STAR, (-1, 0), is ``floors[0][0]``."""

    __slots__ = ("_floors",)

    def __init__(self, floors: list[list[Fraction]]):
        self._floors = floors

    def __getitem__(self, vertex: Vertex) -> Fraction:
        # a negative floor or index must not wrap around a list
        if type(vertex) is tuple and len(vertex) == 2:
            n, k = vertex
            try:
                if n >= -1 and k >= 0:
                    return self._floors[n + 1][k]
            except (TypeError, IndexError):
                pass
        raise KeyError(vertex)

    def __iter__(self) -> Iterator[Vertex]:
        yield STAR
        for n in range(len(self._floors) - 1):
            yield from _odd_vertices(n)
            yield from zip(repeat(n), range(0, 2**n + 1, 2))

    def __len__(self) -> int:
        return sum(map(len, self._floors))


# the indices m of a floor above, in four groups: odd m, the even m between
# the ends, and each end.  On floors 0 and 1 an end falls in a second group
# too and is computed twice
_GROUPS = (slice(1, None, 2), slice(2, -1, 2), slice(0, 1), slice(-1, None))


def _refuse_negative(pairs: list[tuple[int, int]], values: list[Fraction], n: int, parity: int) -> None:
    """Raise on the first negative pair of floor n's odd (parity 1) or even
    (parity 0) indices, naming its vertex (n, 2j + parity)."""
    negative = _first_negative(pairs)
    if negative is not None:
        raise ValueError(f"negative reconstructed weight {values[negative]} at {(n, 2 * negative + parity)}")


def _first_negative(pairs) -> int | None:
    """Position of the first pair with a negative numerator, or None; a
    column of one repeated pair reads it once."""
    one = _shared(pairs)
    if one is not _MIXED:
        return 0 if one[0] < 0 else None
    if min(map(_numerator, pairs)) >= 0:
        return None
    return next(j for j, (num, _) in enumerate(pairs) if num < 0)
