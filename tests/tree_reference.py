"""Slow references for the tree primitives and the trace checker.

``label`` walks the Stern-Brocot interval with a ``Fraction`` mediant per
floor, ``row`` builds each floor from the previous one with ``Fraction``
mediants, ``totient_sieve`` runs the prime sieve that subtracts phi[m] // p
at every multiple m of every prime p (``partition_function`` sums over it
with a generator), ``check_trace`` sums phi over the
explicit branch set of every vertex in ``Fraction`` arithmetic,
``alpha_from_phi`` subtracts ``Fraction`` values looked up by vertex, and
``is_hereditary`` / ``is_directed`` ask ``children`` for every retained /
omitted vertex, and ``levelset_to_dot`` labels every vertex by ``label``.
The fast integer walks, the smallest-prime-factor sieve, the pair kernels
of the one-pass checker, the gap walks and the row-read dot export in the
package must agree with them exactly.
"""

from __future__ import annotations

from fractions import Fraction

from fareybratteli.ideals import LevelSet, children
from fareybratteli.traces import MAX_DEPTH, STAR, TraceCandidate, TraceReport, Vertex, neighbor_set, tree_vertices


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


def totient_sieve(qmax: int) -> list[int]:
    phi = list(range(qmax + 1))
    for p in range(2, qmax + 1):
        if phi[p] == p:  # p prime
            for m in range(p, qmax + 1, p):
                phi[m] -= phi[m] // p
    if qmax >= 0:
        phi[0] = 0
    return phi


def partition_function(s: float, qmax: int) -> float:
    phi = totient_sieve(qmax)
    return sum(phi[q] * q**-s for q in range(1, qmax + 1))


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


def is_hereditary(ls: LevelSet) -> bool:
    for n in range(ls.depth):
        next_floor = set(ls.retained[n + 1])
        for k in ls.retained[n]:
            if any(c not in next_floor for c in children(n, k)):
                return False
    return True


def alpha_from_phi(candidate: TraceCandidate, depth: int) -> dict[Vertex, Fraction]:
    if not 0 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must lie in 0..{MAX_DEPTH}")
    if candidate.phi(STAR) != 1:
        raise ValueError("a trace candidate must have weight exactly 1 at the root")
    alpha: dict[Vertex, Fraction] = {STAR: Fraction(1)}

    def put(v: Vertex, value: Fraction) -> None:
        if value < 0:
            raise ValueError(f"negative reconstructed weight {value} at {v}")
        alpha[v] = value

    put((0, 1), candidate.phi((0, 1)))
    put((0, 0), alpha[STAR] - alpha[(0, 1)])
    for n in range(depth):
        for k in range(1, 2 ** (n + 1) + 1, 2):
            put((n + 1, k), candidate.phi((n + 1, k)))
        for m in range(2**n + 1):
            k = 2 * m
            value = alpha[(n, m)]
            if k > 0:
                value -= alpha[(n + 1, k - 1)]
            if k < 2 ** (n + 1):
                value -= alpha[(n + 1, k + 1)]
            put((n + 1, k), value)
    return alpha


def levelset_to_dot(quotient: LevelSet) -> str:
    if quotient.depth > 10:
        raise ValueError("dot export draws every vertex; use depth <= 10")
    lines = ["digraph farey_bratteli {", "\trankdir=TB;", "\tnode [fontsize=10];"]
    for n, idx in enumerate(quotient.retained):
        keep = set(idx)
        lines.append("\t{ rank = same;")
        for k in range(2**n + 1):
            shape = "box, style=filled, fillcolor=lightgrey" if k in keep else "circle"
            lines.append(f'\t\t"v{n}_{k}" [label="{label(n, k)}", shape={shape}];')
        lines.append("\t}")
    for n in range(quotient.depth):
        for k in range(2**n + 1):
            for c in children(n, k):
                lines.append(f'\t"v{n}_{k}" -> "v{n + 1}_{c}";')
    lines.append("}")
    return "\n".join(lines)
