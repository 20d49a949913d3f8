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

``patch_reference`` installs the first one in ``path_algebra`` and the
reference tables built with the next two, and a test installs
``every_term`` as ``path_algebra._combination``; every report
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

``reference_table`` builds a suite's rows for one floor the slow way, as
the suites did before their tables became expansions of templates: every
family looped over every index, every operand built, and each row at index
3 or more linked afterwards (``link``) to the row of the same equation,
kind and other indices at index 2.  The expanded tables must equal it row by
row: equation, indices, kind, operands, letter pair and link.

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
from functools import lru_cache, partial
from itertools import combinations, product

from fareybratteli import path_algebra
from fareybratteli.path_algebra import ONE, MINUS, Check, Report


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


def unlink(row):
    """A copy of a table row with its operands built and no link."""
    return path_algebra._Row(row.equation, row.indices, row.kind, row.operands, apart=row.apart, order=row.order, top=row.top)


def patch_unlinked_tables(patch) -> None:
    """Drop every link from a row to its translate through a monkeypatch:
    the tables are merged afresh from unlinked copies of their rows, and
    every certificate row is built afresh without a link, through empty
    caches of their own."""
    rows_at = path_algebra._rows_at
    patch.setattr(path_algebra, "_rows_at", lru_cache(maxsize=None)(lambda suite, top: tuple(map(unlink, rows_at(suite, top)))))
    patch.setattr(path_algebra, "_table", lru_cache(maxsize=None)(path_algebra._table.__wrapped__))
    window = lambda kind, n: path_algebra._Row("window", {"kind": kind, "n": n}, "window", (path_algebra._letter(kind, n),))  # noqa: E731
    patch.setattr(path_algebra, "_certificate", lru_cache(maxsize=None)(window))


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
    return path_algebra._lin((ONE, path_algebra._IDENTITY), (MINUS, path_algebra._word(text, n)))


def support_law(text, n):
    """``(1-x_n)y_n`` or ``y_n(1-x_n)`` as a product with the node 1 - x."""
    if text.startswith("(1-"):
        x, y = text[3:].split(")")
        return path_algebra._mul(_one_minus(x, n), path_algebra._word(y, n))
    y, x = text[:-1].split("(1-")
    return path_algebra._mul(path_algebra._word(y, n), _one_minus(x, n))


def commutes(x, y, star=False, adjoint=False):
    """Kind and operand of the row for the letters x and y (x starred with
    ``star``): xy - yx vanishes, or with ``adjoint`` -(xy - yx)* = x*y* - y*x* does."""
    x, y = path_algebra._letter(*x, star), path_algebra._letter(*y)
    node = path_algebra._lin((ONE, path_algebra._mul(x, y)), (MINUS, path_algebra._mul(y, x)))
    return ("vanishes", path_algebra._lin((MINUS, ("*", node)))) if adjoint else ("vanishes", node)


def fast_commutes(x, y, star=False, adjoint=False):
    """Kind and operands of the row as the suites form it."""
    return ("commutes", *path_algebra._commutes(x, y, star, adjoint))


def yang_baxter_check(floor, lam=Fraction(1), rep=None):
    if floor < 2:
        raise ValueError("the Yang-Baxter check needs floor >= 2")
    rep = rep or path_algebra.Representation(floor, Fraction(lam))
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
    """Install the references in ``path_algebra`` through a monkeypatch: the
    slow Yang-Baxter check, and tables whose support laws and commutation
    rows are formed by ``support_law`` and ``commutes``, built through an
    empty cache of their own, so that no table built under the patch
    outlives it."""
    patch.setattr(path_algebra, "yang_baxter_check", yang_baxter_check)
    patch.setattr(path_algebra, "_table", lru_cache(maxsize=None)(partial(reference_table, slow=True)))


# ---------------------------------------------------------------------------
# the tables built per floor, every row and operand at once


def _row(equation, indices, kind, *operands, apart=None):
    return path_algebra._Row(equation, indices, kind, operands, apart=apart)


def _defined(floor):
    """Whether every letter of a word exists at floor N, for index n."""
    keys = set(path_algebra._generator_keys(floor, path_algebra._LETTERS))
    return lambda text, n: all((kind, n + d) in keys for kind, d, _ in path_algebra._letters(text))


def relation_table(floor, law, commutes):
    pa, defined, rows = path_algebra, _defined(floor), []
    add, letter, word = rows.append, pa._letter, pa._word
    # (R1): self-adjoint idempotents summing to 1, mutually commuting; the
    # e's first, then f_n and g_n side by side
    diag = sorted(pa._generator_keys(floor, "efg"), key=lambda key: (key[0] != "e", key[1]))
    for kind, n in diag:
        add(_row("R1", {"kind": kind, "n": n}, "projection", letter(kind, n)))
    for n in range(floor + 1):
        total = pa._lin(*((ONE, letter(k, n)) for k in ("fge" if n else "fg")))
        add(_row("R1", {"sum_at": n}, "equality", total, pa._IDENTITY))
    for (k1, n1), (k2, n2) in combinations(diag, 2):
        apart = pa._windows_apart((k1, n1), (k2, n2))  # e, f and g write nothing: every pair
        add(_row("R1", {"commutator": f"{k1}{n1},{k2}{n2}"}, *commutes((k1, n1), (k2, n2)), apart=apart))
    for family, n, text in product("vw", range(floor), pa._R2):
        if family + "_n" in text and defined(family + "_n", n):
            add(_row("R2", {"family": family, "n": n, "law": text}, "vanishes", law(text, n)))
    for equation, laws in (("R3", pa._R3), ("R4", pa._R4)):
        for family, n, (text, left, right) in product("vw", range(floor), laws):
            if left.startswith(family) and defined(left, n):
                add(_row(equation, {"family": family, "n": n, "law": text}, "equality", word(left, n), word(right, n)))
    for n, text in product(range(floor), pa._VANISHING):
        if defined(text, n):
            low = n + min(d for _, d, _ in pa._letters(text))
            add(_row("6.1", {"law": text, "n": low}, "vanishes", word(text, n)))
    for n, k1, k2 in product(range(floor), ("v", "v*", "w", "w*"), ("v", "v*", "w", "w*")):
        name = f"{k1}_n {k2}_n+1"
        if defined(name, n):
            kind = "nonzero" if name in pa._WHITELIST else "vanishes"
            add(_row("whitelist", {"product": name, "n": n}, kind, word(name, n)))
    # locality: operators whose windows are apart commute
    isos = pa._generator_keys(floor, "vw")
    for x in isos:
        for y in isos:
            if x[1] < y[1] and (apart := pa._windows_apart(x, y)):
                # x y* = y* x and x* y* = y* x* are the adjoints of y x* = x* y and y x = x y
                checks = (commutes(x, y), commutes(x, y, True, True), commutes(x, y, True), commutes(x, y, False, True))
                for (s1, s2), check in zip(product(("", "*"), ("", "*")), checks):
                    add(_row("locality", {"commutator": f"{x[0]}{s1}{x[1]},{y[0]}{s2}{y[1]}"}, *check, apart=apart))
        for z in diag:
            if apart := pa._windows_apart(x, z):
                add(_row("locality", {"commutator": f"{x[0]}{x[1]},{z[0]}{z[1]}"}, *commutes(x, z), apart=apart))
    # braid triples (both sides vanish) and the 6.3 list
    for kind, n in product("vw", range(floor)):
        if defined(f"{kind}_n {kind}_n+1", n):
            low, high = word(f"{kind}_n {kind}_n+1 {kind}_n", n), word(f"{kind}_n+1 {kind}_n {kind}_n+1", n)
            add(_row("braid", {"family": kind, "n": n}, "equality", low, high))
            add(_row("6.3", {"family": kind, "law": "x_n x_n+1 x_n", "n": n}, "vanishes", low))
            add(_row("6.3", {"family": kind, "law": "x_n+1 x_n x_n+1", "n": n}, "vanishes", high))
    # partition of unity by the embedded floor-r matrix units: the floor-r identity
    for r in range(floor):
        add(_row("unit-partition", {"r": r}, "equality", ("1", r), pa._IDENTITY))
    return rows


def yang_baxter_table(floor, law, commutes):
    """6.4 at each point (s, t) of the grid {0, 1, 2}^2."""
    pa, rows = path_algebra, []
    for n in range(floor - 1):
        a, b = pa._letter("v", n), pa._letter("v", n + 1)
        ab = pa._mul(a, b)
        square = pa._lin((ONE, pa._mul(a, a)), (MINUS, pa._mul(b, b)))
        cube = pa._lin((ONE, pa._mul(ab, a)), (MINUS, pa._mul(b, ab)))
        for s, t in product(range(3), range(3)):
            difference = pa._lin(((s * t, 0, 0), square), ((s * t * (s + t), 0, 0), cube))
            rows.append(_row("6.4", {"n": n, "s": str(s), "t": str(t)}, "vanishes", difference))
    return rows


def braiding_table(floor, law, commutes):
    pa, defined, rows = path_algebra, _defined(floor), []
    add, letter, word, lin = rows.append, pa._letter, pa._word, pa._lin
    projections = pa._generator_keys(floor, "EF")
    for kind, n in projections:
        indices = {"kind": kind, "n": n, "law": "projection"}
        add(_row("6.5" if kind == "E" else "6.6", indices, "projection", letter(kind, n)))
    # 6.7: E_n and F_n are orthogonal
    for n, text in product(range(1, floor), ("E_n F_n", "F_n E_n")):
        add(_row("6.7", {"n": n, "law": text.replace("_n", "")}, "vanishes", word(text, n)))
    # 6.8: commutation of projections whose windows are apart
    for x, y in product(projections, projections):
        if x[1] < y[1] and (apart := pa._windows_apart(x, y)):
            add(_row("6.8", {"commutator": f"{x[0]}{x[1]},{y[0]}{y[1]}"}, *commutes(x, y), apart=apart))
    # 6.9 - 6.12: triple products with exact right-hand sides
    for group in pa._TRIPLES:
        for n, (equation, text, scalar, right) in product(range(floor), group):
            if defined(text, n) and defined(right, n):
                add(_row(equation, {"n": n, "law": text}, "equality", word(text, n), lin((scalar, word(right, n)))))
    # 6.13 / 6.14: vanishing mixed products
    for n, (equation, texts) in product(range(1, floor - 1), pa._MIXED):
        for text in texts:
            add(_row(equation, {"n": n, "law": text}, "vanishes", word(text, n)))
    # 6.15 / 6.16: the two-factor expansions of E_n E_n+1 and E_n+1 E_n
    for n in range(floor - 1):
        low, high = letter("v", n), letter("v", n + 1)
        left = lin((ONE, word("v_n* v_n", n)), (pa.ROOT, low))
        right = lin((ONE, high), (pa.ROOT, word("v_n+1 v_n+1*", n)))
        add(_row("6.15", {"n": n}, "equality", word("E_n E_n+1", n), lin((pa.ROOT_UNIT2, pa._mul(left, right)))))
        add(_row("6.16", {"n": n}, "equality", word("E_n+1 E_n", n), ("*", word("E_n E_n+1", n))))
    # dominance: tau E_n - E_n E_m E_n is tau times an exact projection
    for n in range(floor - 1):
        for residue, triple in (("E_n(1-e_n+2)", "E_n E_n+1 E_n"), ("E_n+1(1-g_n)", "E_n+1 E_n E_n+1")):
            node, outer = law(residue, n), triple.split()[0]
            add(_row("dominance", {"n": n, "law": f"{residue} projection"}, "projection", node))
            add(_row("dominance", {"n": n, "law": f"tau {outer} - {triple}"}, "equality",
                     lin((pa.TAU, word(outer, n)), (MINUS, word(triple, n))), lin((pa.TAU, node))))
    return rows


def link(rows):
    """Link each row whose lowest letter index (its index n, sum_at or r) is
    3 or more to its translate: the row of the same equation, kind and other
    indices at lowest index 2, whose operands are its own shifted down.
    Commutation rows name their letters otherwise and are not linked."""
    translates, linked = {}, []
    for row in rows:
        indices = row.indices
        low = next((indices[key] for key in ("n", "sum_at", "r") if key in indices), 0)
        if low >= 2:
            key = (row.equation, row.kind, *(item for item in indices.items() if item[0] not in ("n", "sum_at", "r")))
            if low == 2:
                translates[key] = row
            else:
                linked.append((row, key, low - 2))
    for row, key, shift in linked:
        translate = translates.get(key)
        if translate is not None:
            row.link = (translate, shift)


def reference_table(suite, floor, slow=False):
    """The rows of a suite at floor N, built and linked the slow way; with
    ``slow`` its support laws and commutation rows by the references above."""
    law, forms = (support_law, commutes) if slow else (path_algebra._support_law, fast_commutes)
    rows = {"base": relation_table, "yb": yang_baxter_table, "braiding": braiding_table}[suite](floor, law, forms)
    link(rows)
    return tuple(rows)
