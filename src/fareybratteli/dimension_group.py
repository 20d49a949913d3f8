"""The ordered K0 group of the codimension-one ideal, as polynomial arithmetic.

Group elements are integer combinations of the floor-n basis polynomials

    b(n, 0) = 1,   b(n, k) = X**k + X**(-k)   (1 <= k < 2**n),

stored as a ``LevelPoly`` (level plus coefficient vector of length 2**n).
The connecting map to the next floor multiplies by rho(X) = 1/X + 1 + X
after substituting X -> X**2; on coefficient vectors that is the local rule
d[2k] = c[k], d[2k+1] = c[k] + c[k+1].  Two vectors are identified when one
lifts to the other, addition lifts both to a common floor, and a class is
positive exactly when its own-level coefficients are nonnegative (the rule
preserves nonnegativity in both directions, so the test is lift-invariant).

The kernels run on flat int tuples built by slices.  The unit
decomposition identity sum_k u(n, k) b(n, k) = rho_n(X), where the positive
integers u(n, k) are the central block sizes of the truncated ideal, is a
comparison of the two-sided row u(n, |d|) with rho_n's coefficient tuple.
``SymLaurent``, the symmetric Laurent polynomial that ``rho_n`` returns, and
``expand_to_laurent`` are the independent oracle of the tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .core import json_object

__all__ = [
    "LevelPoly",
    "SymLaurent",
    "add_classes",
    "beta_lift",
    "beta_step",
    "equivalent",
    "eval_phi",
    "expand_to_laurent",
    "is_positive_class",
    "level_poly_from_json",
    "level_poly_to_json",
    "q_prime_row",
    "rho_n",
    "stern_brocot_generating",
    "verify_unit_decomposition",
]


@dataclass(frozen=True)
class LevelPoly:
    """Coefficient vector c_0..c_{2**level - 1} over the level's basis."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        # compared through the bit length, so a huge level never builds 2**level
        size = len(self.coeffs)
        if size & (size - 1) or size.bit_length() - 1 != self.level:
            raise ValueError(f"level {self.level} needs exactly 2**{self.level} coefficients")


class SymLaurent:
    """Symmetric Laurent polynomial: coefficient map with c[-d] == c[d]."""

    def __init__(self, coeffs: dict[int, int] | None = None):
        self._c = {d: c for d, c in (coeffs or {}).items() if c}
        for d, c in self._c.items():
            if self._c.get(-d, 0) != c:
                raise ValueError(f"coefficients at degrees {d} and {-d} differ")

    def coeff(self, d: int) -> int:
        return self._c.get(d, 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymLaurent) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "SymLaurent") -> "SymLaurent":
        out = dict(self._c)
        for d, c in other._c.items():
            out[d] = out.get(d, 0) + c
        return SymLaurent(out)

    def __mul__(self, other: "SymLaurent") -> "SymLaurent":
        out: dict[int, int] = {}
        for d1, c1 in self._c.items():
            for d2, c2 in other._c.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + c1 * c2
        return SymLaurent(out)

    def substitute_power(self, m: int) -> "SymLaurent":
        """X -> X**m."""
        return SymLaurent({d * m: c for d, c in self._c.items()})

    def support(self) -> list[int]:
        return sorted(self._c)

    def __repr__(self) -> str:
        return f"SymLaurent({dict(sorted(self._c.items()))})"


MAX_LIFT_LEVEL = 20  # a level-n vector holds 2**n coefficients
MAX_UNIT_LEVEL = 14  # rho_n has 2**(n+1) - 1 terms and q_prime_row(n) 2**n entries


@lru_cache(maxsize=None)
def _rho(n: int) -> tuple[int, ...]:
    """Coefficients of rho_n at degrees 1 - 2**n .. 2**n - 1: rho_{n-1} times
    X**-m + 1 + X**m (m = 2**(n-1)) is three copies shifted by 0, m and 2m."""
    if n == 0:
        return (1,)
    r, pad = list(_rho(n - 1)), [0] * 2 ** (n - 1)
    return tuple(map(add, map(add, r + pad + pad, pad + r + pad), pad + pad + r))


def rho_n(n: int) -> SymLaurent:
    """Product of rho(X**(2**k)) over 0 <= k < n; rho_0 is the constant 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_UNIT_LEVEL:
        raise ValueError(f"rho_n materialises 2**(n+1) - 1 terms; guarded at n <= {MAX_UNIT_LEVEL}")
    return SymLaurent(dict(enumerate(_rho(n), 1 - 2**n)))


def expand_to_laurent(p: LevelPoly) -> SymLaurent:
    """Dense oracle expansion: sum of c_k * (X**k + X**(-k)), c_0 constant."""
    out: dict[int, int] = {}
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            out[0] = out.get(0, 0) + c
        else:
            out[k] = out.get(k, 0) + c
            out[-k] = out.get(-k, 0) + c
    return SymLaurent(out)


# ---------------------------------------------------------------------------
# connecting maps


def beta_step(p: LevelPoly) -> LevelPoly:
    """One connecting map: d[2k] = c[k], d[2k+1] = c[k] + c[k+1]."""
    c = p.coeffs
    d = [0] * (2 * len(c))
    d[0::2] = c
    d[1::2] = map(add, c, (*c[1:], 0))
    return LevelPoly(p.level + 1, tuple(d))


def beta_lift(p: LevelPoly, n: int) -> LevelPoly:
    """Iterate beta_step until level n (at most MAX_LIFT_LEVEL)."""
    if n < p.level:
        raise ValueError(f"cannot lift level {p.level} down to {n}")
    if n > MAX_LIFT_LEVEL:
        raise ValueError(f"a level-{n} vector holds 2**{n} coefficients; lifts are guarded at level {MAX_LIFT_LEVEL}")
    out = p
    for _ in range(n - p.level):
        out = beta_step(out)
    return out


def equivalent(p: LevelPoly, q: LevelPoly) -> bool:
    """Whether the two vectors name the same group element."""
    top = max(p.level, q.level)
    return beta_lift(p, top) == beta_lift(q, top)


def add_classes(p: LevelPoly, q: LevelPoly) -> LevelPoly:
    """Sum of classes, represented at the higher of the two levels."""
    top = max(p.level, q.level)
    a, b = beta_lift(p, top), beta_lift(q, top)
    return LevelPoly(top, tuple(map(add, a.coeffs, b.coeffs)))


def is_positive_class(p: LevelPoly) -> bool:
    """Positivity at the element's own level; lift-invariant by the
    nonnegativity-preservation of the connecting rule."""
    return min(p.coeffs) >= 0


# ---------------------------------------------------------------------------
# unit decomposition


@lru_cache(maxsize=None)
def q_prime_row(n: int) -> tuple[int, ...]:
    """Central block sizes u(n, 0..2**n - 1) of the truncated ideal.

    The connecting map applied n times to (1,): the doubling recursion of the
    tree denominators on the index range 0..2**n - 1, with
    u(n, 0) = u(n, 2**n - 1) = 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MAX_UNIT_LEVEL:
        raise ValueError(f"row materialisation guarded at n <= {MAX_UNIT_LEVEL}")
    if n == 0:
        return (1,)
    return beta_step(LevelPoly(n - 1, q_prime_row(n - 1))).coeffs


def verify_unit_decomposition(n: int) -> bool:
    """Exact check that sum_k u(n, k) b(n, k) equals rho_n: degree d of the
    left side carries u(n, |d|)."""
    u = q_prime_row(n)
    return (*u[:0:-1], *u) == _rho(n)


# ---------------------------------------------------------------------------
# generating function of the denominator sequence


def stern_brocot_generating(count: int) -> list[int]:
    """First ``count`` coefficients of prod_k (1 + X**2**k + X**2**(k+1)).

    Equals the floor-by-floor denominator sequence q(0,0), q(1,0), q(1,1),
    q(2,0), ..., each floor contributing its first 2**n entries.
    """
    if not 1 <= count <= 2**14:
        raise ValueError("count must lie in 1..2**14")
    coeffs = [1] + [0] * (count - 1)
    shift = 1
    while shift < count:
        # times 1 + X**shift + X**(2 shift); the product so far has degree
        # 2 shift - 2, and each copy is cut at count terms
        old = coeffs[: 2 * shift - 1]
        for lo in (shift, 2 * shift):
            coeffs[lo : lo + len(old)] = map(add, coeffs[lo : lo + len(old)], old)
        shift *= 2
    return coeffs


# ---------------------------------------------------------------------------
# the normalised cosh representation


def eval_phi(n: int, k: int, y: float) -> float:
    """Numeric value of the normalised basis function at y:
    2*cosh(k*y/2**n) / prod_{j=1..n} (1 + 2*cosh(y/2**j)), with the k = 0
    numerator equal to 1."""
    if n < 0 or not 0 <= k < 2**n:
        raise ValueError(f"(n, k) = ({n}, {k}) out of range")
    if not math.isfinite(y) or abs(y) > 700:
        raise OverflowError("cosh overflows for |y| > 700")
    numerator = 1.0 if k == 0 else 2.0 * math.cosh(k * y / 2**n)
    denominator = 1.0
    for j in range(1, n + 1):
        denominator *= 1.0 + 2.0 * math.cosh(y / 2**j)
    return numerator / denominator


# ---------------------------------------------------------------------------
# serialisation


def level_poly_to_json(p: LevelPoly) -> str:
    return json.dumps({"level": p.level, "coeffs": list(p.coeffs)})


def level_poly_from_json(text: str) -> LevelPoly:
    """Reads {"level": n, "coeffs": [c_0, ...]}; the level and every
    coefficient are ints, never floats or bools."""
    payload = json_object(text, "a K0 class")
    try:
        level, coeffs = payload["level"], tuple(payload["coeffs"])
    except KeyError as exc:
        raise ValueError(f"a K0 class needs the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed K0 class: {exc}") from None
    if not all(type(x) is int for x in (level, *coeffs)):
        raise ValueError("a K0 class needs an int level and int coefficients")
    return LevelPoly(level, coeffs)
