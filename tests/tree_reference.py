"""Slow references for the tree primitives and the trace checker.

``label`` walks the Stern-Brocot interval with a ``Fraction`` mediant per
floor, ``row`` builds each floor from the previous one with ``Fraction``
mediants, ``check_trace`` sums phi over the explicit branch set of every
vertex, and ``is_directed`` asks ``children`` for every omitted vertex.  The
fast integer walks, the one-pass checker and the inline closure test in the
package must agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from fareybratteli.ideals import LevelSet, children
from fareybratteli.traces import MAX_DEPTH, STAR, TraceCandidate, TraceReport, neighbor_set, tree_vertices


def mediant(x: Fraction, y: Fraction) -> Fraction:
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


def label(n: int, k: int) -> Fraction:
    if n < 0 or not 0 <= k <= 2**n:
        raise ValueError(f"({n}, {k}) is not a vertex")
    if k == 2**n:
        return Fraction(1)
    lo, hi = Fraction(0), Fraction(1)
    for bit in format(k, f"0{n}b") if n else "":
        mid = mediant(lo, hi)
        if bit == "0":
            hi = mid
        else:
            lo = mid
    return lo


def row(n: int) -> tuple[Fraction, ...]:
    out: list[Fraction] = [Fraction(0), Fraction(1)]
    for _ in range(n):
        nxt = [out[0]]
        for left, right in zip(out, out[1:]):
            nxt.append(mediant(left, right))
            nxt.append(right)
        out = nxt
    return tuple(out)


def check_trace(candidate: TraceCandidate, depth: int) -> TraceReport:
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in 1..{MAX_DEPTH}")
    if candidate.phi(STAR) != 1:
        raise ValueError("a trace candidate must have weight exactly 1 at the root")
    rows = []
    first = None
    for v in tree_vertices(depth - 1):
        value = candidate.phi(v)
        if value < 0:
            raise ValueError(f"negative weight at {v}")
        mass = sum((candidate.phi(w) for w in neighbor_set(v, depth)), Fraction(0))
        if candidate.tail is not None:
            mass += candidate.tail(v, depth)
        rows.append((v, value, mass))
        if value < mass and first is None:
            first = v
    return TraceReport(first is None, candidate.tail is not None, first, tuple(rows))


def is_directed(ls: LevelSet) -> bool:
    for n in range(ls.depth):
        here = set(ls.retained[n])
        next_floor = set(ls.retained[n + 1])
        for k in range(2**n + 1):
            if k in here:
                continue
            if all(c in next_floor for c in children(n, k)):
                return False
    return True
