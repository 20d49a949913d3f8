"""Exact Stern-Brocot / Farey tree combinatorics.

The tree lives on vertices (n, k) with floor n >= 0 and horizontal index
0 <= k <= 2**n.  Every vertex carries a reduced fraction label in [0, 1]:
the endpoints of floor n are 0/1 and 1/1, even indices copy the label one
floor up, and odd indices take the mediant of their two neighbours.  All
arithmetic in this module is exact (stdlib ``Fraction`` over big integers);
nothing here ever touches floating point except ``partition_function``,
which is a plain real Dirichlet-series truncation.

Vertices are passed around as plain ``(n, k)`` integer pairs.  Continued
fractions of values in [0, 1] are tuples of positive integers ``(a1, ..., at)``
with the canonical convention ``at >= 2``; the two endpoint values get the
distinguished encodings ``() == 0`` and ``(1,) == 1``.

Tree walks run on plain integer numerators and denominators.  Labels that
are neighbours on a floor satisfy p'q - pq' = 1, so the mediant of two
neighbours is already in lowest terms: ``label`` carries the Stern-Brocot
interval as four ints and builds one ``Fraction`` at the end,
``row_numerators`` refines the numerators of a floor and ``row_ints`` reads
its denominators off them by Stern's identity, ``cf_decode`` folds its
terms on a numerator and a denominator, and none of them computes a gcd per
step or builds a ``Fraction`` before its result.  ``_dyadic`` sums ?(x) =
k / 2**n once, in integers: ``question_mark`` builds one ``Fraction`` of it,
``vertex_of_label`` reads the vertex (n, k) off it and ``matrix_to_vertex``
shifts the k of two columns to a common floor.

The totients come in blocks from ``_totient_blocks``: slice assignments into
an ``array`` find the smallest odd prime factor of each odd q, a block's
odd q multiply phi(q / p) by p or p - 1, and its even q = 2**a * m take
phi(m) * 2**(a - 1) by strided list slices.  So every read is phi of an odd
m <= qmax / 2, and only those are kept: ``partition_function`` adds each
block onto its running sum and drops it, and ``totient_sieve`` joins the
blocks into one list.

Every function is a pure function of its arguments, and nothing is cached.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat
from typing import Iterator, Sequence

__all__ = [
    "CF",
    "Mat2",
    "MAT_A",
    "MAT_B",
    "MAT_J",
    "cf_convergents",
    "cf_decode",
    "cf_encode",
    "cf_normalize",
    "euler_phi",
    "farey_inverse_orbit",
    "farey_map",
    "farey_map_cf",
    "farey_preimages",
    "height",
    "label",
    "matrix_m",
    "matrix_to_vertex",
    "mediant",
    "parse_fraction",
    "partition_function",
    "question_mark",
    "question_mark_inv",
    "row",
    "row_ints",
    "row_numerators",
    "totient_fiber",
    "totient_sieve",
    "vertex_of_label",
    "vertex_to_matrix",
    "verify_matrix_words",
]

CF = tuple[int, ...]

# row(n) materialises 2**n + 1 labels, and time and memory double per floor.
# Measured on one x86-64 core with Python 3.11 (CPU of the call, peak RSS of
# a fresh process): row(20) takes 1.7-2.0 s and 218 MB, row_ints(20) 0.15 s
# and 100 MB, and the command row --floor 20, which holds only the
# numerators, 0.35-0.39 s wall and 66-72 MB; row(24) would need about 3.5 GB.
MAX_ROW_FLOOR = 20
# the zeta series keeps a list of the qmax / 4 totients of odd q <= qmax / 2
# and a 16-bit array of qmax / 2 smallest odd prime factors, linear in qmax.
# Measured on one x86-64 core with Python 3.11 (CPU of the call, peak RSS of
# a fresh process), partition_function(3, qmax) takes about 0.2 s at 31 MB
# for 10**6 and 2.1 s at 131 MB for 10**7 (phi(0..qmax / 2) and 32-bit
# factors took 41 and 201 MB, all qmax + 1 totients 52 and 350 MB).
MAX_ZETA_QMAX = 10**7
# q per block of the zeta series; up to qmax / 2 the blocks double up to
# this width.  Two blocks and their ints are alive at a time, so a narrower
# block lowers the peak: 2**16 peaked 2.2 MB higher at qmax 10**6
_BLOCK = 2**15
# ?(x) has denominator 2**height, height = (sum of the CF terms of x) - 1, so
# ?(1/1000000) would build a 2**999999 and print 301030 digits.  At this
# height the answer, 2**-14000 at the most, still prints under Python's
# default limit of 4300 digits for int-to-string conversion.
MAX_QMARK_HEIGHT = 14000

_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def parse_fraction(value, name: str = "value") -> Fraction:
    """``value`` (an int, a Fraction, or text such as '3/4' or '1e-3') as a
    Fraction, with ValueError for anything else.  A float or a bool is
    refused: 0.1 is the binary fraction 3602879701896397/36028797018963968,
    not the rational a caller meant.  Text whose decimal exponent lies above
    Python's limit on the digits of an int string
    (``sys.get_int_max_str_digits()``, 4300 by default) is refused before
    parsing: Fraction("1e10000000") alone takes 11.3 s on one x86-64 core,
    and a larger exponent allocates without bound."""
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise ValueError(f"{name} must be exact (an int, a Fraction or a 'p/q' string), not the {kind} {value!r}")
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        digits = match.group(1).replace("_", "").lstrip("0") if match else ""
        if len(digits) > len(str(limit)) or int(digits or 0) > limit:
            raise ValueError(f"the decimal exponent of {value!r} lies above {limit}, the limit on the digits of an int")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a fraction: {value!r}") from exc


def json_object(text: str, what: str) -> dict:
    """The JSON object that ``text`` holds, with a one-line ValueError naming
    ``what`` (such as 'a level set') for text that is not JSON, nests too
    deeply for the parser, or holds something other than an object."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# labels and rows


def mediant(x: Fraction, y: Fraction) -> Fraction:
    """Freshman sum (p+p')/(q+q') of two reduced fractions."""
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


def _check_vertex(n: int, k: int) -> None:
    if n < 0:
        raise ValueError(f"floor must be >= 0, got {n}")
    if not 0 <= k <= 2**n:
        raise ValueError(f"index {k} out of range for floor {n}")


def row_numerators(n: int) -> list[int]:
    """Numerators of the 2**n + 1 labels of floor n, built floor by floor.

    Even positions copy the previous floor, odd positions add their two
    neighbours, which is the mediant rule on numerators; the result is
    Stern's diatomic sequence s(0..2**n).  Guarded at n <= MAX_ROW_FLOOR
    since it has 2**n + 1 entries.
    """
    if n < 0:
        raise ValueError(f"floor must be >= 0, got {n}")
    if n > MAX_ROW_FLOOR:
        raise ValueError(f"floor {n} too large for row materialisation (max {MAX_ROW_FLOOR})")
    nums = [0, 1]
    for _ in range(n):
        nums = _refine(nums)
    return nums


def row_ints(n: int) -> tuple[list[int], list[int]]:
    """Numerators and denominators of the 2**n + 1 labels of floor n.

    The numerators are ``row_numerators(n)``, nums[k] = s(k), and the
    denominators are s(2**n + k), so the identity s(2**n + k) = s(k) +
    s(2**n - k) reads them off the numerators reversed: dens[k] = nums[k] +
    nums[2**n - k].
    """
    nums = row_numerators(n)
    return nums, list(map(operator.add, nums, reversed(nums)))


def _refine(values: list[int]) -> list[int]:
    """The previous floor's values interleaved with their neighbour sums."""
    out = [0] * (2 * len(values) - 1)
    out[::2] = values
    out[1::2] = map(operator.add, values, values[1:])
    return out


def row(n: int) -> tuple[Fraction, ...]:
    """All 2**n + 1 labels of floor n, strictly increasing (see ``row_ints``)."""
    nums, dens = row_ints(n)
    return tuple(map(Fraction, nums, dens))


def label(n: int, k: int) -> Fraction:
    """Label of vertex (n, k), computed in O(n) big-integer steps.

    Walks the binary digits of k, halving the Stern-Brocot interval
    [a/b, c/d] at the mediant each floor, so single labels at large n never
    materialise a row.  The interval ends stay Farey neighbours, so the
    mediant needs no reduction.
    """
    _check_vertex(n, k)
    if k == 2**n:
        return Fraction(1)
    a, b, c, d = 0, 1, 1, 1
    for bit in format(k, f"0{n}b") if n else "":
        if bit == "0":
            c, d = a + c, b + d
        else:
            a, b = a + c, b + d
    return Fraction(a, b)


def vertex_of_label(x: Fraction) -> tuple[int, int]:
    """The vertex (n, k) where x in (0, 1] first appears as a label.

    That vertex has an odd index.  Its floor n is the height of x and its
    index is k = 2**n * ?(x), both from ``_dyadic``.  The vertex found is
    checked against ``label``; a mismatch means the tree bijection itself is
    broken and raises RuntimeError.  The value 0 first appears at the even
    index (0, 0) and is rejected with the values outside [0, 1]; a height
    above MAX_QMARK_HEIGHT is refused before the index is built.
    """
    if not 0 < x <= 1:
        raise ValueError(f"value {x} outside (0, 1]")
    n, k = _dyadic(_bounded(cf_encode(x)))
    if k % 2 == 0 or label(n, k) != x:
        raise RuntimeError(f"{x} located at ({n}, {k}), which is not its first appearance")
    return n, k


# ---------------------------------------------------------------------------
# continued fractions


def cf_normalize(terms: Sequence[int]) -> CF:
    """Canonicalise a term list: fold a trailing 1 into its predecessor.

    (a1, ..., at, 1) and (a1, ..., at + 1) denote the same value; the
    canonical form has last term >= 2, except for the value 1 == (1,).
    """
    t = tuple(terms)
    if any(a < 1 for a in t):
        raise ValueError(f"continued-fraction terms must be positive, got {t}")
    while len(t) >= 2 and t[-1] == 1:
        t = t[:-2] + (t[-2] + 1,)
    return t


def cf_encode(x: Fraction) -> CF:
    """Canonical continued fraction of x in [0, 1].

    Returns () for 0 and (1,) for 1; otherwise the Euclidean expansion,
    whose last term is automatically >= 2 on (0, 1).
    """
    if not 0 <= x <= 1:
        raise ValueError(f"value {x} outside [0, 1]")
    if x == 0:
        return ()
    if x == 1:
        return (1,)
    terms: list[int] = []
    p, q = x.numerator, x.denominator
    # Euclid on 1/x: q = a*p + r with 0 <= r < p.
    while p:
        a, r = divmod(q, p)
        terms.append(a)
        p, q = r, p
    return tuple(terms)


def cf_decode(terms: Sequence[int]) -> Fraction:
    """Value of a (not necessarily canonical) term tuple, folded right to left.

    The fold runs on the numerator and denominator, p/q -> q/(a q + p) from
    0/1, which stay coprime; one ``Fraction`` is built at the end.
    """
    p, q = 0, 1
    for a in reversed(terms):
        if a < 1:
            raise ValueError(f"continued-fraction terms must be positive, got {terms}")
        p, q = q, a * q + p
    return Fraction(p, q)


def cf_convergents(terms: Sequence[int]) -> list[Fraction]:
    """Convergents p_l/q_l with the seed p_{-1}=1, q_{-1}=0, p_0=0, q_0=1."""
    p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1
    out: list[Fraction] = []
    for a in terms:
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
        out.append(Fraction(p_cur, q_cur))
    return out


def height(x: Fraction) -> int:
    """First floor on which x appears as a label: sum of CF terms minus 1."""
    if x == 0:
        return 0
    return sum(cf_encode(x)) - 1


# ---------------------------------------------------------------------------
# Minkowski question mark


def _dyadic(terms: Sequence[int]) -> tuple[int, int]:
    """(n, k) with ?(x) = sum_i (-1)**(i-1) / 2**(a1+...+ai - 1) = k / 2**n for
    the CF terms of x, folded in ints as k -> k * 2**a +- 1: n = a1+...+at - 1
    (0 for x = 0), the height of x, and k is odd for canonical x in (0, 1)."""
    k, sign = 0, 1
    for a in terms:
        k, sign = (k << a) + sign, -sign
    return max(sum(terms) - 1, 0), k


def _bounded(terms: CF) -> CF:
    """The terms of x, refused when its height is above MAX_QMARK_HEIGHT."""
    if sum(terms) - 1 > MAX_QMARK_HEIGHT:
        raise ValueError(f"?(x) has height {sum(terms) - 1}, above MAX_QMARK_HEIGHT = {MAX_QMARK_HEIGHT}")
    return terms


def question_mark(x: Fraction | Sequence[int]) -> Fraction:
    """?(x) as an exact dyadic rational (``_dyadic``)."""
    n, k = _dyadic(_bounded(cf_encode(x) if isinstance(x, Fraction) else cf_normalize(x)))
    return Fraction(k, 1 << n)


def question_mark_inv(k: int, n: int) -> Fraction:
    """Inverse of the question mark on dyadics: k/2**n maps back to label(n, k)."""
    _check_vertex(n, k)
    return label(n, k)


# ---------------------------------------------------------------------------
# the Farey map and its inverse branches


def farey_map(x: Fraction) -> Fraction:
    """Two-branch interval map: x/(1-x) on [0, 1/2], (1-x)/x on (1/2, 1]."""
    if not 0 <= x <= 1:
        raise ValueError(f"value {x} outside [0, 1]")
    if 2 * x <= 1:
        return x / (1 - x)
    return (1 - x) / x


def farey_map_cf(terms: Sequence[int]) -> CF:
    """Digit-shift form of the map: decrement a1, dropping it when a1 == 1."""
    t = cf_normalize(terms)
    if not t:
        return ()
    if t[0] == 1:
        return cf_normalize(t[1:]) if len(t) > 1 else ()
    return cf_normalize((t[0] - 1,) + t[1:])


def farey_preimages(y: Fraction) -> tuple[Fraction, Fraction]:
    """The two solutions of farey_map(x) == y: (y/(1+y), 1/(1+y))."""
    if not 0 <= y <= 1:
        raise ValueError(f"value {y} outside [0, 1]")
    return y / (1 + y), 1 / (1 + y)


def farey_inverse_orbit(n: int) -> list[Fraction]:
    """Sorted n-th inverse image of {0}; has 2**(n-1) + 1 elements for n >= 1.

    Coincides with row(n-1) as a set, and with the rationals whose CF terms
    sum to at most n (plus 0 itself).  Guarded at n <= 14 (set size doubles
    per step).
    """
    if not 0 <= n <= 14:
        raise ValueError("n must lie in 0..14")
    current = {Fraction(0)}
    for _ in range(n):
        nxt = set()
        for y in current:
            f1, f2 = farey_preimages(y)
            nxt.add(f1)
            nxt.add(f2)
        current = nxt
    return sorted(current)


# ---------------------------------------------------------------------------
# totient fibers of the denominator map and the associated Dirichlet series


def totient_sieve(qmax: int) -> list[int]:
    """phi(0..qmax) (phi[0] is 0): the blocks of ``_totient_blocks`` joined."""
    return list(chain.from_iterable(_totient_blocks(qmax))) if qmax >= 0 else []


def _totient_blocks(qmax: int) -> Iterator[list[int]]:
    """phi(0..qmax), qmax >= 0, as consecutive lists: phi(0..min(qmax, 1))
    first, then blocks [lo, hi) of at most _BLOCK q.

    Odd q: the smallest odd prime factor sits in a zero-filled ``array("H")``
    indexed by q // 2, where 0 means q is prime; a factor stored is at most
    isqrt(qmax), which 16 bits hold for qmax below 2**32.  Slice assignments
    with step p fill it for the odd primes p from isqrt(qmax) down to 3, so
    the smallest one dividing q writes last; a small ``bytearray`` sieve
    first marks those primes.  A block's odd q then take phi(q) = q - 1 for a prime and
    phi(m) * p when p divides m = q / p, phi(m) * (p - 1) otherwise.

    Even q = 2**a * m with m odd: phi(q) = phi(m) * 2**(a - 1), by one
    strided slice per a.

    So every read is phi of an odd m, and only those are kept: ``odd[j]`` is
    phi(2j + 1) for 2j + 1 <= qmax // 2.  Every read lies below the block:
    up to qmax // 2 the blocks double, hi <= 2 lo, and each appends its odd
    entries to ``odd``; the blocks above qmax // 2 read only m <= qmax // 2.
    """
    half = qmax // 2
    root = math.isqrt(qmax)
    prime = bytearray([1]) * (root + 1)
    for p in range(2, math.isqrt(root) + 1):
        if prime[p]:
            prime[p * p :: p] = bytes(len(range(p * p, root + 1, p)))
    spf = array("H", (0,)) * (half + 1)
    for p in range(root - 1 + root % 2, 2, -2):
        if prime[p]:
            start = p * p // 2
            spf[start::p] = array("H", (p,)) * len(range(start, half + 1, p))
    odd = [1]  # phi(1)

    def block(lo: int, hi: int) -> list[int]:
        out = [0] * (hi - lo)
        first = lo | 1
        out[first - lo :: 2] = [
            (odd[m >> 1] * (p - 1) if (m := q // p) % p else odd[m >> 1] * p) if p else q - 1
            for q, p in zip(range(first, hi, 2), spf[first // 2 : hi // 2])
        ]
        a = 1
        while 1 << a < hi:
            step = 2 << a
            q = lo + ((1 << a) - lo) % step  # the first q = 2**a * m, m odd, in [lo, hi)
            j = q >> a + 1  # m = 2j + 1
            column = odd[j : j + len(range(q, hi, step))]
            out[q - lo :: step] = column if a == 1 else map(operator.mul, column, repeat(1 << a - 1))
            a += 1
        return out

    yield [0, 1][: qmax + 1]
    lo = 2
    while lo <= qmax:
        kept = lo <= half
        hi = min(2 * lo, lo + _BLOCK, half + 1) if kept else min(lo + _BLOCK, qmax + 1)
        out = block(lo, hi)
        if kept:
            odd += out[1 - lo % 2 :: 2]
        yield out
        lo = hi


def euler_phi(q: int) -> int:
    """phi(q) by trial factorisation; independent of the sieve."""
    if q < 1:
        raise ValueError("q must be >= 1")
    result, m, p = q, q, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def totient_fiber(q: int) -> int:
    """Number of odd-index vertices whose denominator equals q.

    Each p/q with p coprime to q is located by ``vertex_of_label``, which
    checks that the vertex found carries p/q; the count of distinct vertices
    always equals phi(q).  1/q has height q - 1, so q above
    MAX_QMARK_HEIGHT + 1 is refused before any vertex is located.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if q - 1 > MAX_QMARK_HEIGHT:
        raise ValueError(f"1/{q} has height {q - 1}, above MAX_QMARK_HEIGHT = {MAX_QMARK_HEIGHT}")
    return len({vertex_of_label(Fraction(p, q)) for p in range(1, q) if math.gcd(p, q) == 1})


def partition_function(s: float, qmax: int) -> float:
    """Truncated Dirichlet series sum_{q=1}^{qmax} phi(q) * q**(-s).

    Converges to zeta(s-1)/zeta(s) for s > 2; the truncation tail is
    O(qmax**(2-s)) since phi(q) <= q.  Rejects s <= 2 (divergent) and
    non-finite s.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    if s <= 2:
        raise ValueError("series diverges for s <= 2")
    if not 1 <= qmax <= MAX_ZETA_QMAX:
        raise ValueError(f"qmax must lie in 1..{MAX_ZETA_QMAX}")
    # phi(q) * q**-s summed in the order q = 1..qmax, block by block, each
    # block's terms added onto the running total; the float bases q are exact
    # below 2**53.  The zeta golden holds what Python 3.11's plain
    # left-to-right float sum gives; Python 3.12 replaced it with compensated
    # summation, which can differ in the last bits
    blocks = _totient_blocks(qmax)
    first = next(blocks)  # phi(0), phi(1): the series starts at q = 1
    total = sum(map(operator.mul, islice(first, 1, None), map(pow, count(1.0, 1.0), repeat(-s))), 0.0)
    q = len(first)
    for block in blocks:
        total = sum(map(operator.mul, block, map(pow, count(float(q), 1.0), repeat(-s))), total)
        q += len(block)
    return total


# ---------------------------------------------------------------------------
# the matrix-word correspondence


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix [[a, b], [c, d]]."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def power(self, n: int) -> "Mat2":
        if n < 0:
            raise ValueError("negative powers not needed here")
        result = Mat2(1, 0, 0, 1)
        for _ in range(n):
            result = result @ self
        return result

    def in_gamma_plus(self) -> bool:
        """Membership in {[[p', p], [q', q]] : det = 1, 0 <= p <= q, 0 <= p' <= q'}."""
        return self.det() == 1 and 0 <= self.b <= self.d and 0 <= self.a <= self.c


MAT_A = Mat2(1, 0, 1, 1)
MAT_B = Mat2(1, 1, 0, 1)
MAT_J = Mat2(0, 1, 1, 0)


def matrix_m(a: int) -> Mat2:
    return Mat2(a, 1, 1, 0)


def vertex_to_matrix(n: int, k: int) -> Mat2:
    """[[p', p], [q', q]] built from the neighbour pair (label(n,k), label(n,k+1)).

    Defined for k < 2**n; the rightmost vertex has no right neighbour.
    """
    _check_vertex(n, k)
    if k >= 2**n:
        raise ValueError(f"vertex ({n}, {k}) has no right neighbour")
    left = label(n, k)
    right = label(n, k + 1)
    return Mat2(right.numerator, left.numerator, right.denominator, left.denominator)


def matrix_to_vertex(m: Mat2) -> tuple[int, int]:
    """Inverse of vertex_to_matrix on Gamma^+.

    The dyadic images ?(p/q) = u/2**s and ?(p'/q') = u'/2**s' (``_dyadic``)
    locate the unique floor n = max(s, s') at which the two columns are
    neighbours, at the indices u and u' shifted up to floor n.
    """
    if not m.in_gamma_plus():
        raise ValueError(f"{m} is not in Gamma^+")
    left = Fraction(m.b, m.d)
    (s, u), (s_right, u_right) = (_dyadic(_bounded(cf_encode(x))) for x in (left, Fraction(m.a, m.c)))
    n = max(s, s_right)
    k = u << (n - s)
    if u_right << (n - s_right) != k + 1 or label(n, k) != left:
        raise ValueError(f"{m} does not describe a neighbour pair")
    return n, k


def verify_matrix_words(amax: int, bmax: int) -> tuple[bool, tuple[int, int, str] | None]:
    """Exhaustively check B^a A^b == M(a) M(b) and A^a B^b == J M(a) M(b) J.

    Returns (True, None) on success, else (False, (a, b, which)) for the
    first failing pair.
    """
    for a in range(1, amax + 1):
        for b in range(1, bmax + 1):
            mm = matrix_m(a) @ matrix_m(b)
            if MAT_B.power(a) @ MAT_A.power(b) != mm:
                return False, (a, b, "B^a A^b = M(a)M(b)")
            if MAT_A.power(a) @ MAT_B.power(b) != MAT_J @ mm @ MAT_J:
                return False, (a, b, "A^a B^b = J M(a)M(b) J")
    return True, None
