"""Slow references for the work-cutting steps of the path-model suites.

- ``yang_baxter_check`` multiplies out both sides of 6.4 at every grid
  point, three near-identity factors each.
- ``unit_partition`` adds up ``path_matrix_unit(x, x)`` over the floor-r
  prefixes one operator at a time.
- ``one_minus_times`` and ``times_one_minus`` form (1 - x) y and y (1 - x)
  through the identity operator, as R2 and the dominance residues read.

``patch_reference`` installs all four in ``path_algebra``; every report must
then match the fast suites' byte for byte, witnesses included.
"""

from __future__ import annotations

from fractions import Fraction

from fareybratteli import path_algebra
from fareybratteli.path_algebra import Check, Report, path_matrix_unit


def _identity(op):
    return type(op).identity(op.ctx, op.lam)


def one_minus_times(x, y):
    return (_identity(y) - x) * y


def times_one_minus(y, x):
    return y * (_identity(y) - x)


def unit_partition(rep, r):
    total = path_algebra.SparseOperator.zero(rep.ctx, rep.lam)
    for prefix in sorted({p[: r + 1] for p in rep.ctx.paths}):
        total = total + path_matrix_unit(rep.ctx, rep.lam, prefix, prefix)
    return total


def yang_baxter_check(floor, lam=Fraction(1), pairs=None, rep=None):
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    rep = rep or path_algebra._representation(floor, Fraction(lam))
    if pairs is None:
        pairs = [(s, t) for s in (0, 1, 2) for t in (0, 1, 2)]
    one = rep.identity()
    report = Report()
    for n in range(rep.floor - 1):
        v_lo, v_hi = rep.gen("v", n), rep.gen("v", n + 1)
        for s, t in pairs:
            s, t = Fraction(s), Fraction(t)
            lhs = (one + v_lo.scale(s)) * (one + v_hi.scale(s + t)) * (one + v_lo.scale(t))
            rhs = (one + v_hi.scale(t)) * (one + v_lo.scale(s + t)) * (one + v_hi.scale(s))
            report.checks.append(Check.equality("6.4", {"n": n, "s": str(s), "t": str(t)}, lhs, rhs))
    return report


def patch_reference(patch) -> None:
    """Install the references in ``path_algebra`` through a monkeypatch."""
    patch.setattr(path_algebra, "yang_baxter_check", yang_baxter_check)
    patch.setattr(path_algebra, "_unit_partition", unit_partition)
    patch.setattr(path_algebra, "_one_minus_times", one_minus_times)
    patch.setattr(path_algebra, "_times_one_minus", times_one_minus)
