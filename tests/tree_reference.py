"""Slow references for the tree primitives and the trace checker.

``label`` walks the Stern-Brocot interval with a ``Fraction`` mediant per
floor, ``row`` builds each floor from the previous one with ``Fraction``
mediants, ``row_ints`` refines the numerators and the denominators as two
chains, ``cf_decode`` folds ``Fraction(1, a + value)`` right to left,
``question_mark`` sums the ``Fraction`` terms of its alternating series and
``matrix_to_vertex`` reads the floor and index of a neighbour pair off the
denominators of the two question marks,
``totient_sieve`` runs the prime sieve that subtracts phi[m] // p
at every multiple m of every prime p (``partition_function`` sums over it
with a generator), ``check_trace`` sums phi over the
explicit branch set of every vertex in ``Fraction`` arithmetic,
``alpha_from_phi`` subtracts ``Fraction`` values looked up by vertex,
``quotient_levels`` halves a ``Fraction`` interval at its mediant and
compares a stream against the ``Fraction`` ends of its convergent interval,
``is_hereditary`` / ``is_directed`` ask ``children`` for every retained /
omitted vertex, and ``levelset_to_dot`` labels every vertex by ``label``.
The fast integer walks (the dyadic one included), the smallest-prime-factor
sieve, the pair kernels of the one-pass checker, the gap walks and the
row-read dot export in the package must agree with them exactly."""

from __future__ import annotations

from fractions import Fraction

from fareybratteli.core import MAX_QMARK_HEIGHT, Mat2, cf_encode, cf_normalize
from fareybratteli.ideals import CFStream, IdealSpec, LevelSet, children
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


def row_ints(n: int) -> tuple[list[int], list[int]]:
    nums, dens = [0, 1], [1, 1]
    for _ in range(n):
        nums = [x for a, b in zip(nums, nums[1:]) for x in (a, a + b)] + [nums[-1]]
        dens = [x for a, b in zip(dens, dens[1:]) for x in (a, a + b)] + [dens[-1]]
    return nums, dens


def cf_decode(terms) -> Fraction:
    value = Fraction(0)
    for a in reversed(terms):
        if a < 1:
            raise ValueError(f"continued-fraction terms must be positive, got {terms}")
        value = Fraction(1, a + value)
    return value


def question_mark(x) -> Fraction:
    terms = cf_encode(x) if isinstance(x, Fraction) else cf_normalize(x)
    height = sum(terms) - 1
    if height > MAX_QMARK_HEIGHT:
        raise ValueError(f"?(x) has height {height}, above MAX_QMARK_HEIGHT = {MAX_QMARK_HEIGHT}")
    total = Fraction(0)
    partial = 0
    for i, a in enumerate(terms):
        partial += a
        term = Fraction(1, 2 ** (partial - 1))
        total += term if i % 2 == 0 else -term
    return total


def matrix_to_vertex(m: Mat2) -> tuple[int, int]:
    if not m.in_gamma_plus():
        raise ValueError(f"{m} is not in Gamma^+")
    left = Fraction(m.b, m.d)
    d_left, d_right = question_mark(left), question_mark(Fraction(m.a, m.c))
    n = max(d_left.denominator.bit_length(), d_right.denominator.bit_length()) - 1
    k = d_left.numerator * (2**n // d_left.denominator)
    k_right = d_right.numerator * (2**n // d_right.denominator)
    if k_right != k + 1 or label(n, k) != left:
        raise ValueError(f"{m} does not describe a neighbour pair")
    return n, k


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
    # signs on floor depth too: the masses of floor depth - 1 read its weights
    for v in tree_vertices(depth):
        if candidate.phi(v) < 0:
            raise ValueError(f"negative weight at {v}")
    rows = []
    first = None
    for v in tree_vertices(depth - 1):
        value = candidate.phi(v)
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


def _stream_compare(stream: CFStream, m: Fraction) -> int:
    """-1 if the stream's value is < m, +1 if > m, pulling digits through
    ``_extend`` while m lies inside the convergent interval of the digits
    read so far."""
    while True:
        if stream.terms:
            p_prev, q_prev, p, q = 1, 0, 0, 1
            for a in stream.terms:
                p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
            x, y = Fraction(p, q), Fraction(p + p_prev, q + q_prev)
            lo, hi = (x, y) if x < y else (y, x)
        else:
            lo, hi = Fraction(0), Fraction(1)
        if m <= lo:
            return 1
        if m >= hi:
            return -1
        if not stream._extend():
            raise ValueError(
                "continued-fraction stream exhausted before a comparison was decided; "
                "supply more terms (term sum must exceed the requested depth)"
            )


def quotient_levels(spec: IdealSpec, depth: int) -> LevelSet:
    theta, variant = spec.theta, spec.variant
    if isinstance(theta, Fraction) and theta == 0:
        pick = (0,) if variant == "plain" else (0, 1)
        return LevelSet(depth, tuple(pick for _ in range(depth + 1)))
    if isinstance(theta, Fraction) and theta == 1:
        if variant == "plain":
            return LevelSet(depth, tuple((2**n,) for n in range(depth + 1)))
        return LevelSet(depth, tuple((2**n - 1, 2**n) for n in range(depth + 1)))
    if isinstance(theta, Fraction):
        compare = lambda m: (theta > m) - (theta < m)  # noqa: E731
    else:
        compare = lambda m: _stream_compare(theta, m)  # noqa: E731
    retained = []
    j = 0
    lo, hi = Fraction(0), Fraction(1)
    vertex = None
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
        m = mediant(lo, hi)
        side = compare(m)
        if side < 0:
            j, hi = 2 * j, m
        elif side > 0:
            j, lo = 2 * j + 1, m
        else:
            vertex = 2 * j + 1
    return LevelSet(depth, tuple(retained))
