"""Slow references for the work-cutting steps of the path-model suites.

- ``yang_baxter_check`` multiplies out both sides of 6.4 at every grid
  point, three near-identity factors each.
- ``support_law`` forms (1 - x) y and y (1 - x) through the identity
  operator, as R2 and the dominance residues read, where the suites form
  y - xy and y - yx.
- ``commutes`` decides a commutation row (R1, locality, 6.8) as the
  vanishing of the commutator xy - yx, and a starred far-floor variant as
  the vanishing of the negated transpose -(xy - yx)*, where the suites
  pass a row whose two letters carry window certificates that are apart,
  and otherwise compare xy with yx, or (yx)* with (xy)*, and form the
  difference only for a failing row's witness.
- ``every_term`` evaluates a linear combination term by term, zero terms
  included, where the suites skip the terms that are zero and lift the sum
  to the highest floor among all the terms.

``patch_reference`` installs the first three in ``path_algebra``, and a
test installs ``every_term`` as ``path_algebra._combination``; every report
must then match the fast suites' byte for byte, witnesses included.  The
unit-partition rows compare the floor-r identity with the identity; that
the floor-r matrix units (``path_matrix_unit``) sum to it is tested
directly.

``projection`` builds E_n or F_n from its flip by the ring formula, two
products, four scalings and three sums; ``SparseOperator.flip_projection``
writes the same operator down in closed form, and ``ReferenceOperator``
builds it with this function.

The suites read each operator at its home floor and decide each check at
the highest home floor among its operators.  ``patch_floor_n`` hands them
every operator at floor N instead: each stored generator lifted to floor N,
and E/F built there from those (``projection``), so every check is decided
at floor N.  Reports must again match byte for byte.  ``direct_generator``
is the loop that built the generators on the floor-N paths before they
moved to their home floors; the lifted home builds must equal it.

A row whose letters sit at index 3 or more takes the verdict of its
translate at index 2 when that passes, and so does the certificate row of a
letter; ``patch_unlinked_tables`` drops those links, so that every row is
multiplied out and every letter checked on its entries, and reports and the
floors of their checks must match.  ``certificate`` reads the verdict of a
letter's certificate row on a model, deciding it there if need be.

A mutant re-decides only the rows that read its flip and takes the other
checks from its parent.  ``unlinked`` copies a representation without that
link, so that every row is decided on the copy: the two reports must match.
The copy holds every generator of the representation in its own dict (read
through ``Representation._home``, which builds those not built yet or reads
them from a mutant's parent) and rebuilds every E/F from the copy's flips by
``projection``, after replacing the generators it is given.
"""

from __future__ import annotations

import copy
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import product

from fareybratteli import path_algebra
from fareybratteli.path_algebra import Check, Report


@lru_cache(maxsize=None)
def path_index(ctx):
    """{path: its index} over the paths of ``ctx``."""
    return {p: i for i, p in enumerate(ctx.paths)}


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
            entries[(path_index(ctx)[target], j)] = 1
    return path_algebra.SparseOperator(ctx, lam, entries)


def projection(u, lam):
    """E_n from v_n, or F_n from w_n:
    (u*u + sqrt(lam) u + sqrt(lam) u* + lam u u*) / (1 + lam)."""
    unit = Fraction(1, 1 + lam)
    star = u.adjoint()
    return (star * u).scale(unit) + u.scale(unit, root=True) + star.scale(unit, root=True) + (u * star).scale(unit * lam)


def every_term(terms, lam):
    """sum scalar * term over every term, in order."""
    op = None
    for scalar, term in terms:
        if op is not None and scalar in (path_algebra.ONE, path_algebra.MINUS):
            op = op + term if scalar == path_algebra.ONE else op - term
            continue
        term = term if scalar == path_algebra.ONE else term.scale(*path_algebra._scalar(scalar, lam))
        op = term if op is None else op + term
    return op


def patch_floor_n(patch) -> None:
    """Replace ``Representation._home`` so that the suites get every
    operator at floor N: each generator read through the unpatched
    ``_home`` and lifted, and E/F built from those."""
    built, stored = weakref.WeakKeyDictionary(), path_algebra.Representation._home

    def home(rep, kind, n):
        cache = built.setdefault(rep, {})
        if (kind, n) not in cache:
            if kind in ("E", "F"):
                op = projection(home(rep, "v" if kind == "E" else "w", n), rep.lam)
            elif rep.has(kind, n):
                op = stored(rep, kind, n).lift(rep.ctx)
            else:
                raise ValueError(f"{kind}_{n} is not defined at floor {rep.floor}")
            cache[(kind, n)] = op
        return cache[(kind, n)]

    patch.setattr(path_algebra.Representation, "_home", home)


def unlinked(rep, replace=None):
    """A copy of ``rep`` with the same generators, those in ``replace``
    ({(kind, n): operator}) replaced, its E/F built afresh from its flips and
    no parent link, so the suites decide every row on it; the copy of a
    mutant, or with generators replaced, takes no row's verdict from its
    translate either."""
    twin = copy.copy(rep)
    # every generator of rep, read through _home, which builds what it has
    # not built yet or reads it from a mutant's parent
    keys = path_algebra._generator_keys(rep.floor, path_algebra._LETTERS)
    twin._gens, twin._verdicts = {key: rep._home(*key) for key in keys}, {}
    twin._gens.update(replace or {})
    for kind, n in keys:
        if kind in ("E", "F"):
            twin._gens[(kind, n)] = projection(twin._gens[("v" if kind == "E" else "w", n)], rep.lam)
    # a mutant's or replaced generators are not translation invariant: a
    # changed key marks the copy so, and then no row takes its translate's
    # verdict and no letter its translate's certificate
    twin._parent, twin._changed = None, rep._changed | frozenset(replace or ())
    return twin


def patch_unlinked_tables(patch) -> None:
    """Drop every link from a row to its translate through a monkeypatch:
    ``_link`` links nothing, and the cached tables and certificate rows are
    built afresh under the patch, through empty caches of their own."""
    patch.setattr(path_algebra, "_link", lambda rows: None)
    for name in ("_relation_table", "_yang_baxter_table", "_braiding_table"):
        patch.setattr(path_algebra, name, lru_cache(maxsize=1)(getattr(path_algebra, name).__wrapped__))
    patch.setattr(path_algebra, "_certificate", lru_cache(maxsize=None)(path_algebra._certificate.__wrapped__))


def certificate(rep, kind, n):
    """The floor of the check of kind_n's certificate row on ``rep``, or
    None when it fails; decided and kept by ``rep``'s rule if not kept yet."""
    check = path_algebra._verdict(rep, path_algebra._certificate(kind, n), {}, Report())
    return check.floor if check.status == "pass" else None


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
            entries[(path_index(ctx)[head + p[r + 1 :]], j)] = 1
    return path_algebra.SparseOperator(ctx, lam, entries)


def _one_minus(text, n):
    one, minus = path_algebra.ONE, path_algebra.MINUS
    return path_algebra._lin((one, path_algebra._IDENTITY), (minus, path_algebra._word(text, n)))


def support_law(text, n):
    """``(1-x_n)y_n`` or ``y_n(1-x_n)`` as a product with the node 1 - x."""
    if text.startswith("(1-"):
        x, y = text[3:].split(")")
        return path_algebra._mul(_one_minus(x, n), path_algebra._word(y, n))
    y, x = text[:-1].split("(1-")
    return path_algebra._mul(path_algebra._word(y, n), _one_minus(x, n))


def commutes(x, y, adjoint=False):
    """Kind and operand of the row: xy - yx vanishes, or with ``adjoint``
    -(xy - yx)* = x*y* - y*x* does."""
    one, minus = path_algebra.ONE, path_algebra.MINUS
    node = path_algebra._lin((one, path_algebra._mul(x, y)), (minus, path_algebra._mul(y, x)))
    return ("vanishes", path_algebra._lin((minus, ("*", node)))) if adjoint else ("vanishes", node)


def yang_baxter_check(floor, lam=Fraction(1), rep=None):
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    rep = rep or path_algebra._representation(floor, Fraction(lam))
    one = rep.identity()
    report = Report()
    for n in range(rep.floor - 1):
        v_lo, v_hi = rep.gen("v", n), rep.gen("v", n + 1)
        for s, t in product(range(3), repeat=2):
            s, t = Fraction(s), Fraction(t)
            lhs = (one + v_lo.scale(s)) * (one + v_hi.scale(s + t)) * (one + v_lo.scale(t))
            rhs = (one + v_hi.scale(t)) * (one + v_lo.scale(s + t)) * (one + v_hi.scale(s))
            report.checks.append(Check.equality("6.4", {"n": n, "s": str(s), "t": str(t)}, lhs, rhs))
    return report


def patch_reference(patch) -> None:
    """Install the references in ``path_algebra`` through a monkeypatch.  The
    tables that read ``_support_law`` and ``_commutes`` are cached per floor:
    the patch runs them through empty caches of their own, so no table built
    before it is read and none built under it outlives it."""
    patch.setattr(path_algebra, "yang_baxter_check", yang_baxter_check)
    patch.setattr(path_algebra, "_support_law", support_law)
    patch.setattr(path_algebra, "_commutes", commutes)
    for name in ("_relation_table", "_braiding_table"):
        patch.setattr(path_algebra, name, lru_cache(maxsize=1)(getattr(path_algebra, name).__wrapped__))
