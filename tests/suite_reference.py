"""Slow references for the work-cutting steps of the path-model suites.

- ``yang_baxter_check`` multiplies out both sides of 6.4 at every grid
  point, three near-identity factors each.
- ``unit_partition`` adds up ``path_matrix_unit(x, x)`` over the floor-r
  prefixes one operator at a time.
- ``one_minus_times`` and ``times_one_minus`` form (1 - x) y and y (1 - x)
  through the identity operator, as R2 and the dominance residues read.

``patch_reference`` installs all four in ``path_algebra``; every report must
then match the fast suites' byte for byte, witnesses included.

The suites read each operator at its home floor and decide each check at
the highest home floor among its operators.  ``patch_floor_n`` hands them
every operator at floor N instead: each stored generator lifted to floor N,
and E/F built there from those (``projection``), so every check is decided
at floor N.  Reports must again match byte for byte.  ``direct_generator``
is the loop that built the generators on the floor-N paths before they
moved to their home floors; the lifted home builds must equal it.

A mutant re-decides only the rows that read its flip and takes the other
checks from its parent.  ``unlinked`` copies a representation without that
link, so that every row is decided on the copy: the two reports must match.
"""

from __future__ import annotations

import copy
import weakref
from fractions import Fraction

from fareybratteli import path_algebra
from fareybratteli.path_algebra import Check, Report


def reference_generator_keys(floor):
    """(kind, n) of every generator at floor N, in the draw order e, f, g, v, w."""
    keys = [("e", n) for n in range(1, floor + 1)]
    keys += [("f", n) for n in range(floor + 1)]
    keys += [("g", n) for n in range(floor + 1)]
    keys += [("v", n) for n in range(floor)]
    keys += [("w", n) for n in range(1, floor)]
    return keys


def direct_generator(ctx, lam, kind, n):
    """Generator kind_n built on the paths of ``ctx``."""
    if kind in ("e", "f", "g"):
        offset = {"e": -1, "f": 1, "g": 0}[kind]
        return path_algebra.SparseOperator.diagonal(
            ctx, lam, lambda p: p[n] == 2 * (p[n - 1] if n >= 1 else 0) + offset
        )
    sign = 1 if kind == "v" else -1
    entries = {}
    for j, p in enumerate(ctx.paths):
        base = p[n - 1] if n >= 1 else 0
        if p[n] == 2 * base and p[n + 1] == 4 * base + sign:
            target = p[:n] + (2 * base + sign,) + p[n + 1 :]
            entries[(ctx.index[target], j)] = 1
    return path_algebra.SparseOperator(ctx, lam, entries)


def projection(u, lam):
    """E_n from v_n, or F_n from w_n:
    (u*u + sqrt(lam) u + sqrt(lam) u* + lam u u*) / (1 + lam)."""
    unit = Fraction(1, 1 + lam)
    star = u.adjoint()
    return (star * u).scale(unit) + u.scale(unit, root=True) + star.scale(unit, root=True) + (u * star).scale(unit * lam)


def patch_floor_n(patch) -> None:
    """Replace ``Representation._home`` so that the suites get every
    operator at floor N."""
    built = weakref.WeakKeyDictionary()

    def home(rep, kind, n):
        cache = built.setdefault(rep, {})
        if (kind, n) not in cache:
            if kind in ("E", "F"):
                op = projection(home(rep, "v" if kind == "E" else "w", n), rep.lam)
            elif rep.has(kind, n):
                op = rep._gens[(kind, n)].lift(rep.ctx)
            else:
                raise ValueError(f"{kind}_{n} is not defined at floor {rep.floor}")
            cache[(kind, n)] = op
        return cache[(kind, n)]

    patch.setattr(path_algebra.Representation, "_home", home)


def unlinked(rep):
    """A copy of ``rep`` with the same generators, its E/F built afresh and
    no parent link, so the suites decide every row on it."""
    twin = copy.copy(rep)
    twin._gens, twin._tl, twin._verdicts = dict(rep._gens), {}, {}
    twin._parent, twin._changed = None, frozenset()
    return twin


def path_matrix_unit(ctx, lam, head, tail_head):
    """The embedded matrix unit T(head, tail_head): reroutes every floor-N
    path starting with ``tail_head`` onto ``head``; both prefixes must end
    at the same vertex."""
    r = len(head) - 1
    if len(tail_head) != len(head) or head[-1] != tail_head[-1]:
        raise ValueError("matrix units need equal-floor prefixes with a common endpoint")
    entries = {}
    for j, p in enumerate(ctx.paths):
        if p[: r + 1] == tail_head:
            entries[(ctx.index[head + p[r + 1 :]], j)] = 1
    return path_algebra.SparseOperator(ctx, lam, entries)


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
