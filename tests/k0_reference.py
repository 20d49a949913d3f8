"""Slow references for the K0 kernels of ``dimension_group``.

``rho`` multiplies ``SymLaurent`` dicts, rho(X**(2**k)) one factor at a
time, ``beta_step`` fills the image of the connecting map one coefficient
pair at a time, and ``generating`` adds the shifted copies of each factor
coefficient by coefficient.  The slice-built tuples in the package must
agree with them exactly."""

from __future__ import annotations

from fareybratteli.dimension_group import LevelPoly, SymLaurent


def rho(n: int) -> SymLaurent:
    """prod_{0 <= k < n} rho(X**(2**k)), rho(X) = 1/X + 1 + X, by dict products."""
    out = SymLaurent({0: 1})
    for k in range(n):
        out = out * SymLaurent({-1: 1, 0: 1, 1: 1}).substitute_power(2**k)
    return out


def beta_step(p: LevelPoly) -> LevelPoly:
    """d[2k] = c[k], d[2k+1] = c[k] + c[k+1], with c[2**level] = 0."""
    c = p.coeffs
    size = len(c)
    d = [0] * (2 * size)
    for k in range(size):
        d[2 * k] = c[k]
        d[2 * k + 1] = c[k] + (c[k + 1] if k + 1 < size else 0)
    return LevelPoly(p.level + 1, tuple(d))


def beta_lift(p: LevelPoly, n: int) -> LevelPoly:
    for _ in range(n - p.level):
        p = beta_step(p)
    return p


def generating(count: int) -> list[int]:
    """First ``count`` coefficients of prod_k (1 + X**2**k + X**2**(k+1))."""
    coeffs = [0] * count
    coeffs[0] = 1
    k = 0
    while 2**k < count:
        lo, hi = 2**k, 2 ** (k + 1)
        nxt = coeffs[:]
        for d in range(count):
            if coeffs[d]:
                if d + lo < count:
                    nxt[d + lo] += coeffs[d]
                if d + hi < count:
                    nxt[d + hi] += coeffs[d]
        coeffs = nxt
        k += 1
    return coeffs
