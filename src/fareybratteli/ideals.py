"""Subdiagrams of the tree that encode primitive ideals and their quotients.

A ``LevelSet`` records, per floor 0..depth, which horizontal indices a
subdiagram retains.  ``quotient_levels`` produces the retained indices of a
quotient diagram for a given target value theta:

- irrational theta (given as a lazy continued-fraction stream): the pair of
  neighbouring vertices whose labels straddle theta, at every floor;
- rational theta: the straddling pair up to the floor n0 where theta first
  appears as a label, then one of three tails -- the theta column alone
  (plain), the column plus its right neighbour (plus), or the column plus
  its left neighbour (minus).

The ideal side is the floorwise complement, held on each floor as its runs
(``_Runs``): a quotient floor has one or two indices, so the ideal floor
beside it is at most three ranges at any depth.  Ideal sides of a diagram
are characterised by two finite checks: every child of a retained vertex is
retained (hereditary), and a vertex all of whose children are retained is
itself retained (directed).  Both take the gaps of each floor as ranges:
the parents of a gap range(a, b) of floor n+1 are range(a // 2, b // 2 + 1)
of floor n, none of which may be retained, and every vertex of floor n
outside those parent ranges has all its children retained, so it must be
retained.  Each range is counted by bisection in the floor, so time and
memory follow what a level set stores, never the 2**n + 1 vertices of a
floor.  Quotient sides are characterised by the admissibility automaton:
singletons double, pairs move to one of the two shifted pairs or collapse
onto their middle child.

The JSON export and ``LevelSet.labels`` take each label from the floor
above, on int pairs: an even index copies its parent, an odd index between
two retained neighbours is their mediant, and only the rest (floor 0, or a
vertex whose parents were not retained) walk the tree with ``core.label``.
The dot export, which draws every vertex, reads each floor from
``core.row_ints``.

``quotient_levels`` walks the straddling pair on the four ints a/b < c/d
of its labels, which stay Farey neighbours, so their mediant needs no
reduction; theta is compared with it by cross-multiplication, a rational
directly and a stream through ``CFStream.compare_pair`` on the ints of its
convergent interval.  No ``Fraction`` is built along the walk.

Comparisons of an irrational stream against rationals use exact convergent
intervals only; no floating point anywhere.  Level sets are immutable and
every function here is pure, except that a CFStream pulls digits from its
iterator and memoises them: a stream is not safe to share between threads
(a generator advanced from two threads raises).
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, islice
from operator import index, lt, sub

from .core import json_object, label, mediant, row_ints

__all__ = [
    "AdmissibilityReport",
    "CFStream",
    "ConvergenceReport",
    "IdealSpec",
    "LevelSet",
    "ParentPair",
    "children",
    "classify_admissible",
    "complement",
    "convergence_check",
    "ideal_contains",
    "ideal_join",
    "ideal_levels",
    "is_directed",
    "is_hereditary",
    "kernel_intersection",
    "levelset_from_json",
    "levelset_to_dot",
    "levelset_to_json",
    "parents_of",
    "quotient_levels",
]

MAX_QUOTIENT_DEPTH = 60
# an ideal side is a few runs per floor at any depth, but its labels, exports
# and set operations visit each of the 2**n + 1 indices of a floor
MAX_COMPLEMENT_DEPTH = 20


def children(n: int, k: int) -> tuple[int, ...]:
    """Indices at floor n+1 connected to (n, k): {2k-1, 2k, 2k+1} clamped."""
    if n < 0 or not 0 <= k <= 2**n:
        raise ValueError(f"({n}, {k}) is not a vertex")
    top = 2 ** (n + 1)
    return tuple(j for j in (2 * k - 1, 2 * k, 2 * k + 1) if 0 <= j <= top)


# ---------------------------------------------------------------------------
# irrational targets


class CFStream:
    """Continued-fraction digits of an irrational value in (0, 1), pulled lazily.

    Wraps any iterable of positive integers (typically an infinite generator,
    e.g. ``itertools.cycle((2,))`` for sqrt(2) - 1).  Supports exact
    comparison against rationals by narrowing the open convergent interval
    that must contain the value, on ints (``compare_pair``); raises if the
    iterable runs dry before a comparison is decided, so a
    silently-truncated prefix can never give a wrong answer.
    """

    def __init__(self, terms: Iterable[int]):
        self._iter: Iterator[int] = iter(terms)
        self.terms: list[int] = []
        self._p_prev, self._q_prev = 1, 0
        self._p, self._q = 0, 1

    def _extend(self) -> bool:
        a = next(self._iter, None)
        if a is None:
            return False
        if a < 1:
            raise ValueError(f"continued-fraction terms must be positive, got {a}")
        self.terms.append(a)
        self._p_prev, self._p = self._p, a * self._p + self._p_prev
        self._q_prev, self._q = self._q, a * self._q + self._q_prev
        return True

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Open interval around the value determined by the digits read so far."""
        (a, b), (c, d) = self._ends()
        return Fraction(a, b), Fraction(c, d)

    def _ends(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """``bounds()`` as (numerator, denominator) pairs, the lower end first.

        After k digits the ends are the convergent p_k/q_k and the mediant
        (p_k + p_(k-1))/(q_k + q_(k-1)); since p_k q_(k-1) - p_(k-1) q_k =
        (-1)**(k-1), the convergent is the upper end for odd k."""
        if not self.terms:
            return (0, 1), (1, 1)
        convergent = self._p, self._q
        mediant = self._p + self._p_prev, self._q + self._q_prev
        return (mediant, convergent) if len(self.terms) % 2 else (convergent, mediant)

    def compare(self, m: Fraction) -> int:
        """-1 if the value is < m, +1 if > m.  Never 0 for an irrational."""
        return self.compare_pair(m.numerator, m.denominator)

    def compare_pair(self, num: int, den: int) -> int:
        """``compare`` against num/den for a positive den, cross-multiplied
        against the ends of the convergent interval; digits are pulled only
        while num/den lies strictly inside it."""
        while True:
            (a, b), (c, d) = self._ends()
            if num * b <= a * den:
                return 1
            if num * d >= c * den:
                return -1
            if not self._extend():
                raise ValueError(
                    "continued-fraction stream exhausted before a comparison was decided; "
                    "supply more terms (term sum must exceed the requested depth)"
                )


@dataclass(frozen=True)
class IdealSpec:
    """Target value plus variant selecting one of the primitive ideals.

    ``theta`` is a Fraction in [0, 1] (an int is converted) or a CFStream;
    ``variant`` is one of 'plain', 'plus', 'minus'.  'plus' does not exist
    for theta = 1, 'minus' does not exist for theta = 0, and streams
    (irrationals) admit only 'plain'.
    """

    theta: Fraction | CFStream
    variant: str = "plain"

    def __post_init__(self) -> None:
        if self.variant not in ("plain", "plus", "minus"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if isinstance(self.theta, CFStream):
            if self.variant != "plain":
                raise ValueError("irrational targets admit only the plain ideal")
            return
        if isinstance(self.theta, bool) or not isinstance(self.theta, (int, Fraction)):
            raise ValueError(f"theta must be a Fraction, an int or a CFStream, not {self.theta!r}")
        object.__setattr__(self, "theta", Fraction(self.theta))  # the dataclass is frozen
        if not 0 <= self.theta <= 1:
            raise ValueError(f"theta {self.theta} outside [0, 1]")
        if self.variant == "plus" and self.theta == 1:
            raise ValueError("no plus ideal at theta = 1")
        if self.variant == "minus" and self.theta == 0:
            raise ValueError("no minus ideal at theta = 0")


class _Runs(Sequence):
    """A sorted floor held as its maximal runs: ``ends`` is a0, b0, a1, b1,
    ... for the runs range(a0, b0), range(a1, b1), ..., with a gap between
    each two.  An index or a membership is found by bisection on the runs,
    never by a scan.  It equals, and hashes as, the tuple of its indices, and
    a tuple plus it is that tuple's concatenation."""

    __slots__ = ("ends", "_at")

    def __init__(self, ends: tuple[int, ...]):
        self.ends = ends
        # the position of each run's first index, then the length
        self._at = tuple(accumulate(map(sub, ends[1::2], ends[::2]), initial=0))

    def __len__(self) -> int:
        return self._at[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        size, i = len(self), index(i)
        if not -size <= i < size:
            raise IndexError("floor index out of range")
        i %= size
        run = bisect_right(self._at, i) - 1
        return self.ends[2 * run] + i - self._at[run]

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(map(range, self.ends[::2], self.ends[1::2]))

    def __contains__(self, k) -> bool:
        return bisect_right(self.ends, k) % 2 == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, _Runs):
            return self.ends == other.ends
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __radd__(self, other):
        return other + tuple(self) if isinstance(other, tuple) else NotImplemented

    def __repr__(self) -> str:
        return f"_Runs({self.ends})"


@dataclass(frozen=True)
class LevelSet:
    """Retained index sets of a subdiagram, one sorted tuple (or ``_Runs``)
    per floor 0..depth."""

    depth: int
    retained: tuple[Sequence[int], ...]

    def __post_init__(self) -> None:
        if self.depth < 0 or len(self.retained) != self.depth + 1:
            raise ValueError("retained must list floors 0..depth")
        for n, idx in enumerate(self.retained):
            ends = idx.ends if isinstance(idx, _Runs) else idx
            if not all(map(lt, ends, islice(ends, 1, None))):
                raise ValueError(f"floor {n} indices must be sorted and unique")
            if idx and not (0 <= idx[0] and idx[-1] <= 2**n):
                raise ValueError(f"floor {n} index out of range")

    def labels(self) -> tuple[tuple[Fraction, ...], ...]:
        """The label of every retained vertex, floor by floor (see ``_label_pairs``)."""
        return tuple(tuple(Fraction(p, q) for p, q in floor) for floor in _label_pairs(self))


def _label_pairs(ls: LevelSet) -> list[list[tuple[int, int]]]:
    """Numerator and denominator of every retained label, floor by floor.

    A label comes from the floor above where it can: an even index copies its
    parent, and an odd index whose two neighbours one floor up are retained
    is their mediant, in lowest terms since the neighbours are Farey
    neighbours.  Any other index is labelled by ``label``.
    """
    out = []
    above: dict[int, tuple[int, int]] = {}
    for n, idx in enumerate(ls.retained):
        here = {}
        for k in idx:
            m = k >> 1
            if not k & 1 and m in above:
                here[k] = above[m]
            elif k & 1 and m in above and m + 1 in above:
                (a, b), (c, d) = above[m], above[m + 1]
                here[k] = (a + c, b + d)
            else:
                x = label(n, k)
                here[k] = (x.numerator, x.denominator)
        out.append(list(here.values()))
        above = here
    return out


def _text(p: int, q: int) -> str:
    """A label as ``str`` writes its ``Fraction``: 0 and 1 without a denominator."""
    return str(p) if q == 1 else f"{p}/{q}"


def _label_texts(ls: LevelSet) -> list[list[str]]:
    return [[_text(p, q) for p, q in floor] for floor in _label_pairs(ls)]


# ---------------------------------------------------------------------------
# quotient / ideal level construction


def quotient_levels(spec: IdealSpec, depth: int) -> LevelSet:
    """Retained (quotient-side) indices per floor for the ideal named by spec."""
    if not 0 <= depth <= MAX_QUOTIENT_DEPTH:
        raise ValueError(f"depth must lie in 0..{MAX_QUOTIENT_DEPTH}")
    theta, variant = spec.theta, spec.variant
    vertex: int | None = None  # index of the theta column once it exists
    if isinstance(theta, Fraction):
        p, q = theta.as_integer_ratio()
        compare = lambda num, den: p * den - num * q  # noqa: E731  (its sign is theta's side)
        if q == 1:  # theta = 0 or 1 labels the floor-0 vertex p
            vertex = p
    else:
        compare = theta.compare_pair

    retained: list[tuple[int, ...]] = []
    j = 0  # straddling pair is (j, j+1) until theta surfaces as a label
    a, b, c, d = 0, 1, 1, 1  # their labels a/b < c/d, Farey neighbours
    for n in range(depth + 1):
        if vertex is None:
            retained.append((j, j + 1))
        elif variant == "plain":
            retained.append((vertex,))
        elif variant == "plus":
            retained.append((vertex, vertex + 1))
        else:
            retained.append((vertex - 1, vertex))
        if n == depth:
            break
        if vertex is not None:
            vertex *= 2
            continue
        side = compare(a + c, b + d)  # against the mediant, already in lowest terms
        if side < 0:
            j, c, d = 2 * j, a + c, b + d
        elif side > 0:
            j, a, b = 2 * j + 1, a + c, b + d
        else:
            vertex = 2 * j + 1  # first appearance: n0 = n + 1
    return LevelSet(depth, tuple(retained))


def complement(ls: LevelSet) -> LevelSet:
    """Floorwise complement inside {0..2**n}, each floor held as its runs
    (``_Runs``): the gaps between consecutive retained indices.  A floor
    with r retained indices becomes at most r + 1 ranges."""
    if ls.depth > MAX_COMPLEMENT_DEPTH:
        raise ValueError(f"complement materialisation guarded at depth {MAX_COMPLEMENT_DEPTH}")
    return LevelSet(ls.depth, tuple(_gaps(idx, 2**n) for n, idx in enumerate(ls.retained)))


def _gaps(idx: Sequence[int], top: int) -> _Runs:
    """The indices of 0..top missing from the sorted floor idx, as runs."""
    ends = idx.ends if isinstance(idx, _Runs) else [e for k in idx for e in (k, k + 1)]
    pairs = zip((0, *ends[1::2]), (*ends[::2], top + 1))
    return _Runs(tuple(e for a, b in pairs if a < b for e in (a, b)))


def ideal_levels(spec: IdealSpec, depth: int) -> LevelSet:
    """Ideal-side level set: the complement of quotient_levels per floor."""
    return complement(quotient_levels(spec, depth))


# ---------------------------------------------------------------------------
# diagram-side checks


def is_hereditary(ls: LevelSet) -> bool:
    """Every child (within depth) of a retained vertex is retained.

    Checked from below, on the gaps: no parent of a vertex omitted from
    floor n+1 may be retained on floor n.
    """
    return not any(_count(ls.retained[n], run) for n in range(ls.depth) for run in _parents_of_gaps(ls, n))


def is_directed(ls: LevelSet) -> bool:
    """No omitted vertex has all of its children retained.

    This is the saturation half of the ideal characterisation: together with
    hereditarity it makes the retained set the diagram of an ideal.  Checked
    on every floor strictly below the horizon: a vertex of floor n outside
    the parents of the gaps of floor n+1 has all its children retained, and
    must be retained itself.
    """
    for n in range(ls.depth):
        runs = _parents_of_gaps(ls, n)
        between = map(range, (0, *(run.stop for run in runs)), (*(run.start for run in runs), 2**n + 1))
        if any(_count(ls.retained[n], run) < len(run) for run in between):
            return False
    return True


def _parents_of_gaps(ls: LevelSet, n: int) -> list[range]:
    """The vertices of floor n with a child omitted from floor n+1, one range
    per gap: the parents of range(a, b) are range(a // 2, b // 2 + 1)."""
    ends = _gaps(ls.retained[n + 1], 2 ** (n + 1)).ends
    return [range(a >> 1, (b >> 1) + 1) for a, b in zip(ends[::2], ends[1::2])]


def _count(kept: Sequence[int], run: range) -> int:
    """How many indices of the sorted floor kept lie in run (0 if it is empty)."""
    lo = bisect_left(kept, run.start)
    return bisect_left(kept, run.stop, lo) - lo


# ---------------------------------------------------------------------------
# admissibility of quotient-side sequences


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    failure_floor: int | None = None
    reason: str | None = None
    intervals: tuple[tuple[Fraction, Fraction], ...] = ()
    tag: str | None = None


def classify_admissible(ls: LevelSet) -> AdmissibilityReport:
    """Validate a quotient-side level set against the allowed transitions.

    Singletons {a} must double to {2a}; pairs {a, a+1} may move to
    {2a, 2a+1}, {2a+1, 2a+2}, or collapse to {2a+1}.  On success the report
    carries the nested interval [label(n, min), label(n, max+1)] per floor
    and a tag.  Only 'rational-plain' is ever determinable at finite depth
    (a singleton was observed; singletons persist).  An all-pairs window is
    provably reproduced exactly by the plus construction of its final left
    label, by the minus construction of its final right label, and by
    irrational targets inside the final gap, so no pair window gets a tag.
    """
    for n, idx in enumerate(ls.retained):
        if len(idx) == 1 or (len(idx) == 2 and idx[1] == idx[0] + 1):
            continue
        return AdmissibilityReport(False, n, f"floor {n} set {idx} is not a singleton or adjacent pair")
    if not set(ls.retained[0]) <= {0, 1}:
        return AdmissibilityReport(False, 0, "floor 0 must retain a subset of {0, 1}")
    for n in range(ls.depth):
        cur, nxt = ls.retained[n], ls.retained[n + 1]
        a = cur[0]
        if len(cur) == 1:
            allowed = ((2 * a,),)
        else:
            allowed = ((2 * a, 2 * a + 1), (2 * a + 1, 2 * a + 2), (2 * a + 1,))
        if nxt not in allowed:
            return AdmissibilityReport(
                False, n + 1, f"transition {cur} -> {nxt} between floors {n} and {n + 1} is not allowed"
            )

    intervals = tuple(
        (label(n, idx[0]), label(n, min(idx[-1] + 1, 2**n)))
        for n, idx in enumerate(ls.retained)
    )
    tag = "rational-plain" if len(ls.retained[-1]) == 1 else None
    return AdmissibilityReport(True, None, None, intervals, tag)


# ---------------------------------------------------------------------------
# parents of a first appearance


@dataclass(frozen=True)
class ParentPair:
    left: Fraction
    right: Fraction


def parents_of(x: Fraction) -> ParentPair:
    """Labels of the two floor-(n0 - 1) neighbours whose mediant is x.

    The left parent p'/q' comes from the modular inverse of the numerator:
    q' = inverse of p mod q, p' = (p * q' - 1) / q; the right parent is the
    coordinate difference (p - p') / (q - q').
    """
    if not 0 < x < 1:
        raise ValueError("endpoints have no parent pair")
    p, q = x.numerator, x.denominator
    p_bar = pow(p, -1, q)
    q_left = p_bar
    p_left = (p * p_bar - 1) // q
    left = Fraction(p_left, q_left)
    right = Fraction(p - p_left, q - q_left)
    if mediant(left, right) != x:
        raise RuntimeError(f"parents {left} and {right} of {x} do not have it as their mediant")
    return ParentPair(left, right)


# ---------------------------------------------------------------------------
# lattice operations on ideal sides and finite-depth topology checks


def _require_equal_depths(sets: Sequence[LevelSet]) -> int:
    depths = {ls.depth for ls in sets}
    if len(depths) != 1:
        raise ValueError(f"level sets have mismatched depths {sorted(depths)}")
    return depths.pop()


def ideal_contains(a: LevelSet, b: LevelSet) -> bool:
    """Whether ideal-side a is floorwise contained in ideal-side b."""
    _require_equal_depths((a, b))
    return all(set(x) <= set(y) for x, y in zip(a.retained, b.retained))


def kernel_intersection(sets: Sequence[LevelSet]) -> LevelSet:
    """Floorwise intersection of ideal sides: the kernel of a family of ideals."""
    depth = _require_equal_depths(sets)
    out = []
    for n in range(depth + 1):
        common = set(sets[0].retained[n])
        for ls in sets[1:]:
            common &= set(ls.retained[n])
        out.append(tuple(sorted(common)))
    return LevelSet(depth, tuple(out))


def ideal_join(sets: Sequence[LevelSet]) -> LevelSet:
    """Floorwise union of ideal sides: the smallest ideal containing the family."""
    depth = _require_equal_depths(sets)
    out = []
    for n in range(depth + 1):
        union: set[int] = set()
        for ls in sets:
            union |= set(ls.retained[n])
        out.append(tuple(sorted(union)))
    return LevelSet(depth, tuple(out))


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    # per floor: first sequence position from which the floor-n quotient
    # set always meets the target's, or None if it fails through the end
    settled_from: tuple[int | None, ...] = field(default=())


def convergence_check(
    thetas: Sequence[Fraction],
    theta: Fraction | CFStream,
    depth: int,
) -> ConvergenceReport:
    """Finite-depth ideal convergence: per floor, the quotient sets of the
    sequence must eventually meet the target's quotient set and keep meeting
    it through the end of the sequence."""
    target = quotient_levels(IdealSpec(theta), depth)
    members = [quotient_levels(IdealSpec(t), depth) for t in thetas]
    settled: list[int | None] = []
    for n in range(depth + 1):
        hit = [bool(set(m.retained[n]) & set(target.retained[n])) for m in members]
        pos = None
        for i in range(len(hit), 0, -1):
            if not hit[i - 1]:
                break
            pos = i - 1
        settled.append(pos)
    return ConvergenceReport(all(p is not None for p in settled), tuple(settled))


# ---------------------------------------------------------------------------
# serialisation


def levelset_to_json(ls: LevelSet) -> str:
    payload = {
        "depth": ls.depth,
        "retained": [list(idx) for idx in ls.retained],
        "labels": _label_texts(ls),
    }
    return json.dumps(payload)


def levelset_from_json(text: str) -> LevelSet:
    payload = json_object(text, "a level set")
    try:
        depth, retained = payload["depth"], tuple(tuple(idx) for idx in payload["retained"])
    except KeyError as exc:
        raise ValueError(f"a level set needs the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed level set: {exc}") from None
    if not all(type(x) is int for x in (depth, *(k for idx in retained for k in idx))):
        raise ValueError("malformed level set: the depth and every index must be ints, never floats or bools")
    ls = LevelSet(depth, retained)
    if "labels" in payload:
        if payload["labels"] != _label_texts(ls):
            raise ValueError("labels in payload do not match the retained indices")
    return ls


def levelset_to_dot(quotient: LevelSet) -> str:
    """Full diagram down to the horizon, quotient vertices drawn filled.

    Mirrors the two-class figure convention: quotient (lighter) vertices are
    filled boxes, ideal vertices plain circles.  Guarded since every vertex
    is drawn.
    """
    if quotient.depth > 10:
        raise ValueError("dot export draws every vertex; use depth <= 10")
    lines = ["digraph farey_bratteli {", "\trankdir=TB;", "\tnode [fontsize=10];"]
    for n, idx in enumerate(quotient.retained):
        keep = set(idx)
        lines.append("\t{ rank = same;")
        for k, text in enumerate(map(_text, *row_ints(n))):
            shape = "box, style=filled, fillcolor=lightgrey" if k in keep else "circle"
            lines.append(f'\t\t"v{n}_{k}" [label="{text}", shape={shape}];')
        lines.append("\t}")
    for n in range(quotient.depth):
        for k in range(2**n + 1):
            for c in children(n, k):
                lines.append(f'\t"v{n}_{k}" -> "v{n + 1}_{c}";')
    lines.append("}")
    return "\n".join(lines)
