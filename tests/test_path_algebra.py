"""Path model, generators, relation suites, and mutation sensitivity."""

import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import golden_mutants
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quad_reference import QuadScalar, ReferenceOperator, embed_root, rank, sqrt_fraction
from suite_reference import (
    certificate,
    direct_generator,
    every_term,
    patch_floor_n,
    patch_reference,
    patch_unlinked_tables,
    path_index,
    path_matrix_unit,
    projection,
    reference_generator_keys,
    reference_table,
    unlinked,
)
from suite_reference import yang_baxter_check as reference_yang_baxter_check

from fareybratteli import path_algebra
from fareybratteli.core import row
from fareybratteli.path_algebra import (
    PathContext,
    Representation,
    SparseOperator,
    enumerate_paths,
    generator,
    path_context,
    random_sign_mutation,
    run_all_suites,
    verify_braiding_suite,
    verify_relation_suite,
    yang_baxter_check,
)

F = Fraction
ONE = F(1)


# ---------------------------------------------------------------------------
# paths


def test_path_counts():
    assert len(enumerate_paths(0)) == 2
    assert len(enumerate_paths(2)) == 10
    assert len(enumerate_paths(7)) == 2188
    for n in range(9):
        assert len(enumerate_paths(n)) == 3**n + 1


def test_path_counts_per_endpoint_match_denominators():
    for n in range(9):
        ctx = path_context(n)
        per_endpoint = Counter(ctx.endpoint)
        assert per_endpoint == {k: x.denominator for k, x in enumerate(row(n))}
    assert Counter(path_context(2).endpoint) == {0: 1, 1: 3, 2: 2, 3: 3, 4: 1}


def test_paths_are_monotone_and_sorted():
    paths = enumerate_paths(5)
    assert list(paths) == sorted(paths)
    for p in paths:
        assert p[0] in (0, 1)
        for n in range(5):
            assert abs(2 * p[n] - p[n + 1]) <= 1
            assert 0 <= p[n + 1] <= 2 ** (n + 1)


def stack_and_sort_paths(floor):
    """The paths to the floor by a depth-first walk from the root, sorted."""
    paths, stack = [], [(1,), (0,)]
    while stack:
        p = stack.pop()
        n = len(p) - 1
        if n == floor:
            paths.append(p)
            continue
        for c in (2 * p[-1] + 1, 2 * p[-1], 2 * p[-1] - 1):
            if 0 <= c <= 2 ** (n + 1):
                stack.append(p + (c,))
    return tuple(sorted(paths))


def indexed_extensions(low, high):
    """Per floor-M path, the index of its first floor-N extension and their
    number, by looking each floor-N path's head up among the floor-M paths."""
    starts, counts, index = [0] * low.dim, [0] * low.dim, path_index(low)
    for j, p in enumerate(high.paths):
        i = index[p[: low.floor + 1]]
        if not counts[i]:
            starts[i] = j
        counts[i] += 1
    return tuple(starts), tuple(counts)


def test_paths_and_extensions_grown_floor_by_floor_match_the_stack_and_sort_walk():
    floors = range(path_algebra.MAX_PATH_FLOOR + 1)
    for floor in floors:
        assert path_context(floor).paths == stack_and_sort_paths(floor), floor
    for low, high in combinations(floors, 2):
        got = path_algebra._extensions(path_context(low), path_context(high))
        assert got == indexed_extensions(path_context(low), path_context(high)), (low, high)


def test_floor_guard(monkeypatch):
    with pytest.raises(ValueError):
        enumerate_paths(10)
    # a model is refused with the same message before any path is enumerated
    monkeypatch.setattr(path_algebra, "path_context", None)
    for floor in (-1, path_algebra.MAX_PATH_FLOOR + 1):
        with pytest.raises(ValueError, match=r"^floor must lie in 0\.\.9$"):
            Representation(floor, F(1))


def test_a_passing_model_reads_no_path_above_floor_4(monkeypatch):
    # the floor-N paths are built on first read, and a passing unmutated run
    # reads none above the home floors of the templates; a mutant's flip reads them
    floors, original = set(), path_algebra.path_context
    monkeypatch.setattr(path_algebra, "path_context", lambda floor: floors.add(floor) or original(floor))
    for floor in range(4, path_algebra.MAX_PATH_FLOOR + 1):
        rep = Representation(floor, F(1, 4))
        assert run_all_suites(floor, F(1, 4), rep).ok
        assert "ctx" not in vars(rep), floor
    assert max(floors) == 4
    mutated, _ = random_sign_mutation(rep, random.Random(0))
    assert not run_all_suites(rep.floor, F(1, 4), mutated).ok
    assert path_algebra.MAX_PATH_FLOOR in floors and vars(rep)["ctx"] is original(rep.floor)


# ---------------------------------------------------------------------------
# scalars


def test_quad_scalar_arithmetic():
    lam = F(2)
    x = QuadScalar(F(1), F(3), lam)
    y = QuadScalar(F(2), F(-1), lam)
    assert x + y == QuadScalar(F(3), F(2), lam)
    assert x * y == QuadScalar(F(1) * 2 + F(3) * (-1) * 2, F(-1) + F(6), lam)
    assert x * x.inverse() == QuadScalar.of(1, lam)
    with pytest.raises(ValueError):
        x * QuadScalar(F(1), F(0), F(3))
    # sqrt(lam) squared is lam
    root = QuadScalar.root(lam)
    assert root * root == QuadScalar.of(2, lam)


def test_sqrt_fraction():
    assert sqrt_fraction(F(9)) == 3
    assert sqrt_fraction(F(1, 4)) == F(1, 2)
    assert sqrt_fraction(F(2)) is None
    assert sqrt_fraction(F(-1)) is None


# ---------------------------------------------------------------------------
# split integer operators against the QuadScalar reference


ORACLE_LAMBDAS = (F(1), F(1, 4), F(2), F(9), F(2, 3))
SMALL_LAMBDAS = ORACLE_LAMBDAS + (F(4), F(1, 2))


def reference_reports(monkeypatch, floor, lam, mutant_seeds):
    """Suite reports for the representation and its seeded sign-flip
    mutants, once with the integer operators and once with
    ``ReferenceOperator`` patched in for ``SparseOperator``."""

    def reports():
        rep = Representation(floor, lam)
        out = [run_all_suites(floor, lam, rep).to_json()]
        for seed in mutant_seeds:
            mutated, info = random_sign_mutation(rep, random.Random(seed))
            out.append((info, run_all_suites(floor, lam, mutated).to_json()))
        return out

    fast = reports()
    with monkeypatch.context() as patch:
        patch.setattr(path_algebra, "SparseOperator", ReferenceOperator)
        slow = reports()
    return fast, slow


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids=str)
def test_suites_match_quad_reference_at_floor_4_with_mutants(monkeypatch, lam):
    # seeds 2, 5 and 6 flip a diagonal entry of e_2, a caught entry of w_2
    # and an invisible entry of w_1: failing checks, with their witness
    # strings, are compared as well as passing ones
    fast, slow = reference_reports(monkeypatch, 4, lam, (2, 5, 6))
    assert fast == slow
    assert ['"witness"' in text for _, text in fast[1:]] == [True, True, False]


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids=str)
def test_suites_match_quad_reference_at_floor_5(monkeypatch, lam):
    fast, slow = reference_reports(monkeypatch, 5, lam, ())
    assert fast == slow


def block_operator_data(ctx):
    keys = [(i, j) for i in range(ctx.dim) for j in range(ctx.dim) if ctx.endpoint[i] == ctx.endpoint[j]]
    part = st.dictionaries(st.sampled_from(keys), st.integers(-4, 4), max_size=10)
    return st.tuples(part, part, st.integers(1, 6))


SMALL_CTX = path_context(2)


@settings(max_examples=200, deadline=None)
@given(
    lam=st.sampled_from(SMALL_LAMBDAS),
    x=block_operator_data(SMALL_CTX),
    y=block_operator_data(SMALL_CTX),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    root=st.booleans(),
    k=st.integers(2, 5),
)
def test_split_operator_arithmetic_matches_quad_reference(lam, x, y, c, root, k):
    fx, fy = SparseOperator(SMALL_CTX, lam, *x), SparseOperator(SMALL_CTX, lam, *y)
    rx, ry = ReferenceOperator(SMALL_CTX, lam, *x), ReferenceOperator(SMALL_CTX, lam, *y)
    pairs = [
        (fx, rx),
        (fx + fy, rx + ry),
        (fx - fy, rx - ry),
        (fx * fy, rx * ry),
        (-fx, -rx),
        (fx.scale(c, root), rx.scale(c, root)),
        (fx.adjoint(), rx.adjoint()),
    ]
    for fast, slow in pairs:
        assert fast.entries == slow.entries
        assert fast.is_zero() == slow.is_zero()
    assert (fx == fy) == (rx == ry)
    assert fx.first_entry_of_difference(fy) == rx.first_entry_of_difference(ry)
    assert fx.is_projection() == rx.is_projection()
    assert (fx + fx.adjoint()).is_projection() == (rx + rx.adjoint()).is_projection()
    # canonical form: the same value written over k*d is the same operator
    A, B, d = x
    scaled = SparseOperator(SMALL_CTX, lam, {key: k * v for key, v in A.items()}, {key: k * v for key, v in B.items()}, k * d)
    assert scaled == fx and hash(scaled) == hash(fx)
    assert (fx - scaled).is_zero()


def assert_row_index_holds(op):
    """The cached row index reproduces A and B: a row with one entry is its
    bare (col, val) pair, a row with several is (None, ((col, val), ...))."""
    for part, rows in zip((op.A, op.B), op._row_index):
        rebuilt = {}
        for j, hit in rows.items():
            if hit[0] is None:
                assert len(hit[1]) >= 2
                rebuilt.update(((j, k), val) for k, val in hit[1])
            else:
                k, val = hit
                assert type(k) is int and type(val) is int
                rebuilt[(j, k)] = val
        assert rebuilt == part


def test_cached_row_index_changes_no_equality_hash_or_product():
    rep = Representation(4, F(2))
    e1, one = rep.tl("E", 1), rep.identity()
    fresh = SparseOperator(rep.ctx, rep.lam, dict(e1.A), dict(e1.B), e1.d)
    assert one * e1 == e1 and e1 * e1 == e1  # indexes e1 as a right factor
    assert e1._row_index is not None and fresh._row_index is None
    assert_row_index_holds(e1)
    assert e1 == fresh and hash(e1) == hash(fresh)
    flipped = e1.with_negated_entry(min(e1.support()))
    assert flipped._row_index is None
    rebuilt = SparseOperator(rep.ctx, rep.lam, dict(flipped.A), dict(flipped.B), flipped.d)
    assert one * flipped == flipped == rebuilt and hash(flipped) == hash(rebuilt)
    assert e1 * flipped == e1 * rebuilt != e1
    # the original keeps its own index and products
    assert one * e1 == e1 and e1 * e1 == e1 and e1 != flipped
    for derived in (e1.scale(3), e1.scale(1, root=True), e1 + fresh, e1.adjoint()):
        assert derived._row_index is None
    # a right factor whose rows hold several entries goes through the same index
    mixed = rep.gen("e", 1) + rep.gen("v", 0) + e1
    assert mixed.B and mixed.d == 3 and one * mixed == mixed
    assert_row_index_holds(mixed)
    assert any(hit[0] is None for hit in mixed._row_index[0].values())
    reference = ReferenceOperator(rep.ctx, rep.lam, dict(e1.A), dict(e1.B), e1.d)
    assert (e1 * mixed).entries == (reference * ReferenceOperator(rep.ctx, rep.lam, mixed.A, mixed.B, mixed.d)).entries


KERNEL_CTXS = (path_context(3), path_context(4))


@st.composite
def kernel_operator_data(draw, negate=None):
    """(floor, A, B, d) of a split-form operator on floor 3 or 4 whose rows
    may hold several entries; with ``negate`` (floor, A, B, d), that operator
    negated on a drawn set of its entries, plus entries of its own."""
    ctx = KERNEL_CTXS[draw(st.integers(0, 1))] if negate is None else KERNEL_CTXS[negate[0] - 3]
    block = {}
    for i, end in enumerate(ctx.endpoint):
        block.setdefault(end, []).append(i)
    parts = []
    for _ in range(2):
        part = {}
        for i in draw(st.lists(st.integers(0, ctx.dim - 1), max_size=4)):
            for j in draw(st.lists(st.sampled_from(block[ctx.endpoint[i]]), min_size=1, max_size=3)):
                part[(i, j)] = draw(st.integers(-3, 3))
        parts.append(part)
    d = draw(st.integers(1, 4))
    if negate is not None:
        d = negate[3]
        for mine, theirs in zip(parts, negate[1:3]):
            mine.update({key: -val for key, val in theirs.items() if draw(st.booleans())})
    elif draw(st.booleans()):
        parts[1] = {}
    return ctx.floor, parts[0], parts[1], d


@st.composite
def kernel_operand_pair(draw):
    x = draw(kernel_operator_data())
    y = draw(st.one_of(kernel_operator_data(), kernel_operator_data(negate=x)))
    return x, y


@settings(max_examples=300, deadline=None)
@given(lam=st.sampled_from(SMALL_LAMBDAS), operands=kernel_operand_pair())
def test_row_index_kernel_matches_quad_reference(lam, operands):
    # several entries per row, nonzero B parts, d != 1, operands on floors 3
    # and 4 (the lower one lifts), and sums that cancel to zero in part or whole
    (fx, fy), (rx, ry) = [
        [cls(KERNEL_CTXS[floor - 3], lam, A, B, d) for floor, A, B, d in operands]
        for cls in (SparseOperator, ReferenceOperator)
    ]
    for fast, slow in ((fx * fy, rx * ry), (fy * fx, ry * rx), (fx + fy, rx + ry), (fx - fy, rx - ry)):
        assert fast.ctx is slow.ctx
        assert fast.entries == slow.entries
        assert fast.is_zero() == slow.is_zero()
    assert_row_index_holds(fy.lift(fx.ctx) if fy.ctx.floor < fx.ctx.floor else fy)


TRUSTED_CTXS = (path_context(2), path_context(3))


@st.composite
def canonical_operand_pair(draw):
    """Two canonical block operators on floor 2 or 3, built by the public
    constructor with B parts and d up to 6; the second is either drawn on
    its own or negates a drawn set of the first's entries over the same d,
    so that their sum cancels there."""
    ctx = TRUSTED_CTXS[draw(st.integers(0, 1))]
    lam = draw(st.sampled_from(SMALL_LAMBDAS))
    x = draw(block_operator_data(ctx))
    if draw(st.booleans()):
        y = draw(block_operator_data(ctx))
    else:
        own = draw(block_operator_data(ctx))
        y = tuple({**mine, **{key: -val for key, val in theirs.items() if draw(st.booleans())}}
                  for mine, theirs in zip(own[:2], x[:2])) + (x[2],)
    return SparseOperator(ctx, lam, *x), SparseOperator(ctx, lam, *y)


def raw_product(x, y):
    """(A, B, d) of xy by the definition, nothing reduced:
    (A1 + r B1)(A2 + r B2) = q A1 A2 + p B1 B2 + r q (A1 B2 + B1 A2) over q d1 d2."""
    p, q = x.lam.numerator, x.lam.denominator
    A, B = Counter(), Counter()
    for left, right, part, factor in ((x.A, y.A, A, q), (x.B, y.B, A, p), (x.A, y.B, B, q), (x.B, y.A, B, q)):
        for (i, j), a in left.items():
            for (k, m), b in right.items():
                if j == k:
                    part[(i, m)] += factor * a * b
    return dict(A), dict(B), q * x.d * y.d


def raw_lift(x, ctx):
    """(A, B, d) of the tail embedding, entry by entry: (x, y) goes to
    (x + t, y + t) for every floor-N path y + t."""
    head, index = x.ctx.floor + 1, path_index(ctx)
    parts = []
    for part in (x.A, x.B):
        out = {}
        for (i, j), val in part.items():
            for p in ctx.paths:
                if p[:head] == x.ctx.paths[j]:
                    out[(index[x.ctx.paths[i] + p[head:]], index[p])] = val
        parts.append(out)
    return parts[0], parts[1], x.d


@settings(max_examples=200, deadline=None)
@given(operands=canonical_operand_pair(), c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
       root=st.booleans())
def test_trusted_constructors_build_what_the_public_one_builds_from_the_raw_entries(operands, c, root):
    # products, sums, scalings, lifts and adjoints skip the block check, and
    # the zero filter unless a zero is there; each must equal the public
    # constructor applied to the raw, unreduced entries of the operation
    x, y = operands
    ctx, lam = x.ctx, x.lam
    p, q = lam.numerator, lam.denominator
    n, m = c.numerator, c.denominator
    up = path_context(ctx.floor + 1)
    cases = [
        (x * y, raw_product(x, y)),
        (y * x, raw_product(y, x)),
        (x + y, ({k: y.d * x.A.get(k, 0) + x.d * y.A.get(k, 0) for k in x.A.keys() | y.A.keys()},
                 {k: y.d * x.B.get(k, 0) + x.d * y.B.get(k, 0) for k in x.B.keys() | y.B.keys()}, x.d * y.d)),
        (x - x, ({k: 0 for k in x.A}, {k: 0 for k in x.B}, x.d * x.d)),
        (x.scale(c, root), ({k: n * p * v for k, v in x.B.items()}, {k: n * q * v for k, v in x.A.items()}, x.d * m * q)
         if root else ({k: n * v for k, v in x.A.items()}, {k: n * v for k, v in x.B.items()}, x.d * m)),
        (x.lift(up), raw_lift(x, up)),
        (x.adjoint(), ({(j, i): v for (i, j), v in x.A.items()}, {(j, i): v for (i, j), v in x.B.items()}, x.d)),
    ]
    for op, raw in cases:
        public = SparseOperator(op.ctx, lam, *raw)
        assert (op.ctx, op.A, op.B, op.d) == (public.ctx, public.A, public.B, public.d)
        assert op == public and hash(op) == hash(public)
        assert type(op) is SparseOperator and op._row_index is None
    assert (x - x).is_zero() and (x - x).d == 1


@settings(max_examples=100, deadline=None)
@given(data=st.data(), floor=st.integers(2, 3), d=st.integers(-3, 0))
def test_the_public_constructor_refuses_off_block_entries_and_non_positive_denominators(data, floor, d):
    ctx = path_context(floor)
    off = [(i, j) for i in range(ctx.dim) for j in range(ctx.dim) if ctx.endpoint[i] != ctx.endpoint[j]]
    key, val = data.draw(st.sampled_from(off)), data.draw(st.sampled_from([-2, -1, 1, 3]))
    with pytest.raises(ValueError, match="leaves the endpoint blocks"):
        SparseOperator(ctx, F(2), {key: val})
    with pytest.raises(ValueError, match="leaves the endpoint blocks"):
        SparseOperator(ctx, F(2), {}, {key: val}, 2)
    with pytest.raises(ValueError, match="denominator must be positive"):
        SparseOperator(ctx, F(2), {}, None, d)


def test_adjoint_is_the_transpose_and_its_products_are_the_bare_operators():
    rep = Representation(4, F(2))
    v = rep.gen("v", 1)
    fresh = SparseOperator(rep.ctx, rep.lam, dict(v.A), dict(v.B), v.d)
    star = v.adjoint()
    assert star == fresh.adjoint() and star != v
    bare = SparseOperator(rep.ctx, rep.lam, dict(v.A), dict(v.B), v.d)
    assert v == bare and hash(v) == hash(bare)
    assert star * v == bare.adjoint() * bare and v * star == bare * bare.adjoint()
    assert v.with_negated_entry(min(v.support())).adjoint() != star


def test_scalars_only_appear_as_text_at_the_boundary():
    rep = Representation(3, F(2))
    e1 = rep.tl("E", 1)
    assert e1.B and all(type(v) is int for v in (*e1.A.values(), *e1.B.values(), e1.d))
    entry = min(e1.support())
    assert e1.witness() == {"row": entry[0], "col": entry[1], "value": e1.entries[entry]}
    with pytest.raises(ValueError):
        SparseOperator(rep.ctx, rep.lam, {}, None, 0)


# ---------------------------------------------------------------------------
# generators


def test_diagonal_generator_examples():
    # f0 selects paths through the right floor-0 vertex; 5 of 10 at floor 2
    f0 = generator("f", 0, 2)
    assert f0.trace() == "5+0*sqrt(1)"
    for n in range(1, 3):
        total = generator("e", n, 2) + generator("f", n, 2) + generator("g", n, 2)
        assert total == SparseOperator.identity(path_context(2), ONE)
    assert generator("f", 0, 2) + generator("g", 0, 2) == SparseOperator.identity(path_context(2), ONE)


def test_e0_does_not_exist():
    with pytest.raises(ValueError):
        generator("e", 0, 3)
    with pytest.raises(ValueError):
        generator("q", 1, 3)


@pytest.mark.parametrize("lam", (F(1), F(2, 3)), ids=str)
def test_generator_returns_every_kind_of_the_table(lam):
    floor = 4
    rep = Representation(floor, lam)
    keys = reference_generator_keys(floor)
    keys += [("E", n) for n in range(floor)] + [("F", n) for n in range(1, floor)]
    for kind, n in keys:
        op = generator(kind, n, floor, lam)
        assert op.ctx is rep.ctx
        if kind in "EF":
            assert op == projection(direct_generator(rep.ctx, lam, "v" if kind == "E" else "w", n), lam) == rep.tl(kind, n)
        else:
            assert op == direct_generator(rep.ctx, lam, kind, n) == rep.gen(kind, n)
    for kind, n in (("q", 1), ("", 0), ("EF", 1), ("ef", 1), ("v", 4), ("w", 0), ("E", 4), ("E", -1), ("F", 0), ("F", 4)):
        with pytest.raises(ValueError):
            generator(kind, n, floor, lam)


def test_v0_swaps_the_single_diamond_at_floor_1():
    v0 = generator("v", 0, 1)
    ctx = path_context(1)
    src = path_index(ctx)[(0, 1)]
    dst = path_index(ctx)[(1, 1)]
    assert v0.entries == {(dst, src): "1+0*sqrt(1)"}
    assert (v0.A, v0.B, v0.d) == ({(dst, src): 1}, {}, 1)


def test_flip_supports():
    for n in range(4):
        v = generator("v", n, 5)
        assert v.adjoint() * v == generator("g", n, 5) * generator("f", n + 1, 5)
        assert v * v.adjoint() == generator("f", n, 5) * generator("e", n + 1, 5)
    for n in range(1, 4):
        w = generator("w", n, 5)
        assert w.adjoint() * w == generator("g", n, 5) * generator("e", n + 1, 5)
        assert w * w.adjoint() == generator("e", n, 5) * generator("f", n + 1, 5)
        assert (w * generator("v", n, 5)).is_zero()


def test_block_structure_enforced():
    ctx = path_context(1)
    lam = ONE
    # (0,0) ends at 0 while (1,1) ends at 1: entry leaves the blocks
    bad = {(path_index(ctx)[(0, 0)], path_index(ctx)[(1, 1)]): 1}
    with pytest.raises(ValueError):
        SparseOperator(ctx, lam, bad)
    with pytest.raises(ValueError):
        SparseOperator(ctx, lam, {}, bad)


def test_block_sizes_match_denominators():
    # every operator lives inside endpoint blocks of size q(N, k)
    ctx = path_context(4)
    sizes = Counter(ctx.endpoint)
    assert sizes == {k: x.denominator for k, x in enumerate(row(4))}


def test_matrix_units():
    ctx = path_context(3)
    lam = ONE
    prefixes = sorted({p[:2] for p in ctx.paths})
    total = SparseOperator.zero(ctx, lam)
    for pre in prefixes:
        total = total + path_matrix_unit(ctx, lam, pre, pre)
    assert total == SparseOperator.identity(ctx, lam)
    # composition rule: T(a,b) T(c,d) = delta(b,c) T(a,d); endpoints all 1
    a, b, d = (0, 1), (1, 1), (0, 1)
    with_match = path_matrix_unit(ctx, lam, a, b) * path_matrix_unit(ctx, lam, b, d)
    assert with_match == path_matrix_unit(ctx, lam, a, d)
    without = path_matrix_unit(ctx, lam, a, b) * path_matrix_unit(ctx, lam, a, d)
    assert without.is_zero()
    assert path_matrix_unit(ctx, lam, a, b).adjoint() == path_matrix_unit(ctx, lam, b, a)
    with pytest.raises(ValueError):
        path_matrix_unit(ctx, lam, (0, 0), (0, 1))


@pytest.mark.parametrize("floor", (4, 5))
def test_matrix_units_of_every_lower_floor_sum_to_the_identity(floor):
    # the unit-partition rows compare the floor-r identity with the identity
    rep = Representation(floor, F(2, 3))
    for r in range(floor):
        total = SparseOperator.zero(rep.ctx, rep.lam)
        for prefix in sorted({p[: r + 1] for p in rep.ctx.paths}):
            total = total + path_matrix_unit(rep.ctx, rep.lam, prefix, prefix)
        assert total == rep.identity()


# ---------------------------------------------------------------------------
# projections


def test_tl_projection_tau_values():
    assert Representation(4, F(1)).tau() == F(1, 4)
    assert Representation(4, F(1, 4)).tau() == F(4, 25)
    assert Representation(4, F(9)).tau() == F(9, 100)


def test_tl_projections_are_exact_projections():
    for lam in (F(1), F(1, 4), F(2)):
        rep = Representation(4, lam)
        for n in range(4):
            assert rep.tl("E", n).is_projection()
        for n in range(1, 4):
            assert rep.tl("F", n).is_projection()
            assert (rep.tl("E", n) * rep.tl("F", n)).is_zero()


def flip_certified(rep, kind, n):
    """Whether the flip of E_n or F_n of ``rep`` carries its certificate;
    asserts that the certificate the suites use for E_n or F_n is the
    verdict of the entry check on the built operator, and that it holds
    whenever the flip's does (the operators window-local for one window are
    closed under sums, scalars, adjoints and products)."""
    flip = "v" if kind == "E" else "w"
    certified = certificate(rep, kind, n) is not None
    assert certified == rep._home(kind, n).is_window_local(*path_algebra._window(kind, n))
    flip_ok = certificate(rep, flip, n) is not None
    assert certified or not flip_ok
    return flip_ok


@pytest.mark.parametrize("lam", (F(1), F(1, 4), F(9), F(2, 3)), ids=str)
def test_closed_form_projections_equal_the_ring_formula(lam):
    for floor in range(7):
        rep = Representation(floor, lam)
        for kind, n in path_algebra._generator_keys(floor, "EF"):
            flip = "v" if kind == "E" else "w"
            closed = rep._home(kind, n)
            assert closed == projection(rep._home(flip, n), lam)
            assert rep.tl(kind, n) == projection(rep.gen(flip, n), lam)
            assert flip_certified(rep, kind, n)  # every flip of the model is certified


@pytest.mark.parametrize("lam", (F(1), F(1, 4), F(9), F(2, 3)), ids=str)
def test_closed_form_projections_of_every_flipped_isometry_at_floor_4(lam):
    rep = Representation(4, lam)
    certified = []
    for mutated in every_isometry_flip(rep)[1:]:
        (flip, n), = [key for key in mutated._changed if key[0] in "vw"]
        kind = "E" if flip == "v" else "F"
        closed = mutated._home(kind, n)
        assert closed is not rep._home(kind, n)
        assert closed == projection(mutated._home(flip, n), lam)
        certified.append(flip_certified(mutated, kind, n))
    # most flips lose the certificate; a flip on a class of one path keeps it
    assert len(certified) == 81 and 0 < sum(certified) < 81


def test_closed_form_refuses_what_is_not_a_flip():
    rep = Representation(3, F(2, 3))
    v = rep.gen("v", 0)
    for bad in (v.scale(1, root=True), v.scale(F(1, 2)), v.scale(2), rep.tl("E", 0)):
        with pytest.raises(ValueError, match="entries 1 or -1"):
            bad.flip_projection()
    # sources and targets must be distinct and disjoint: two entries of v in
    # one endpoint block give a repeated target, a repeated source, and a
    # chain whose first source is the second's target
    entries = sorted(v.A)
    (t1, s1), (t2, s2) = next((a, b) for a in entries for b in entries
                              if a < b and v.ctx.endpoint[a[0]] == v.ctx.endpoint[b[0]])
    made = [{(t1, s1): 1, (t1, s2): -1}, {(t1, s1): 1, (t2, s1): 1}, {(t1, s1): 1, (s1, s2): 1}]
    for bad in [SparseOperator(v.ctx, v.lam, entries) for entries in made] + [v + v.adjoint(), v.adjoint() * v]:
        with pytest.raises(ValueError, match="distinct and disjoint"):
            bad.flip_projection()
    assert v.flip_projection() == rep.tl("E", 0)
    assert SparseOperator.zero(v.ctx, v.lam).flip_projection().is_zero()


def test_tl_projection_rank_matches_support():
    e0 = generator("E", 0, 2, F(1))
    v0 = generator("v", 0, 2, F(1))
    assert rank(e0) == rank(v0.adjoint() * v0) == 3
    # non-square field constant goes through the quadratic elimination
    e0_irr = generator("E", 0, 2, F(2))
    assert rank(e0_irr) == 3
    # a projection's rank is its trace, for square and non-square lam alike
    for lam in (F(2), F(2, 3), F(9)):
        rep = Representation(3, lam)
        for kind, n in (("E", 0), ("E", 2), ("F", 1)):
            p = rep.tl(kind, n)
            assert p.trace() == f"{rank(p)}+0*sqrt({lam})"


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        Representation(4, F(0))
    with pytest.raises(ValueError):
        Representation(4, F(-1))


def test_operators_check_lambda_like_the_representation():
    ctx = path_context(1)
    for bad, message in ((0.5, "not the float"), (True, "not the bool"), (F(-1), "positive"), (0, "positive"),
                         (F(1, 2**256), "more than 256 bits"), (2**256, "more than 256 bits"), ("x", "not a fraction")):
        with pytest.raises(ValueError, match=message):
            SparseOperator(ctx, bad, {(0, 0): 1})
        with pytest.raises(ValueError, match=message):
            Representation(1, bad)
    assert SparseOperator(ctx, "2/3", {(0, 0): 1}).lam == F(2, 3)
    assert Representation(1, F(2**256 - 1, 2**255)).gen("v", 0).lam == F(2**256 - 1, 2**255)


@pytest.mark.parametrize("lam", (0.1, 0.25))
def test_lambda_must_not_be_a_float(lam):
    # 0.1 would run over lambda = 3602879701896397/36028797018963968
    calls = [
        lambda: Representation(4, lam),
        lambda: generator("e", 1, 4, lam),
        lambda: generator("v", 0, 4, lam),
        lambda: generator("E", 1, 4, lam),
        lambda: verify_relation_suite(4, lam),
        lambda: yang_baxter_check(4, lam),
        lambda: verify_braiding_suite(4, lam, rep=Representation(4, F(1, 4))),
        lambda: run_all_suites(4, lam),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="not the float"):
            call()


def test_square_lambda_embeds_into_rationals():
    for lam in (F(1), F(9), F(1, 4)):
        rep = Representation(3, lam)
        e1 = rep.tl("E", 1)
        embedded = embed_root(e1)
        assert e1.B and not embedded.B
        assert all(v.endswith(f"+0*sqrt({lam})") for v in embedded.entries.values())
        assert embedded * embedded == embedded
        v1, w1 = rep.gen("v", 1), rep.gen("w", 1)
        assert embed_root(v1 * w1.adjoint()) == embed_root(v1) * embed_root(w1.adjoint())
    with pytest.raises(ValueError):
        embed_root(Representation(3, F(2)).tl("E", 1))


# ---------------------------------------------------------------------------
# suites


def test_relation_suite_passes():
    report = verify_relation_suite(5, F(1))
    assert report.ok, report.failures()[:5]


@pytest.mark.parametrize("floor", (4, 5))
@pytest.mark.parametrize("suite, table", [(verify_relation_suite, "base"), (verify_braiding_suite, "braiding")])
def test_products_count_every_multiplication_of_a_suite(monkeypatch, floor, suite, table):
    # every multiplication is a product node of the words, or the square
    # that decides a projection row; a row that takes its translate's
    # verdict multiplies nothing
    rep = Representation(floor, F(2))
    calls = []
    multiply = SparseOperator.__mul__
    monkeypatch.setattr(SparseOperator, "__mul__", lambda x, y: calls.append(1) or multiply(x, y))
    report = suite(floor, F(2), rep)
    rows = path_algebra._table(table, floor)
    assert report.ok and report.products > 0
    assert len(calls) == report.products + sum(row.kind == "projection" and row.link is None for row in rows)


# ---------------------------------------------------------------------------
# work-cutting steps of the suites against their slow references


def reports_with_reference(monkeypatch, floor, lam, make_reps, install=patch_reference):
    """Suite reports for the representations ``make_reps()`` returns, once
    as the suites run and once with a reference from ``suite_reference``
    installed.  The reference side builds its representations and mutants
    afresh, so that no verdict a parent kept on the fast side is reused."""

    def reports():
        return [run_all_suites(floor, lam, rep).to_json() for rep in make_reps()]

    fast = reports()
    with monkeypatch.context() as patch:
        install(patch)
        slow = reports()
    return fast, slow


def every_isometry_flip(rep):
    mutants = [rep]
    for kind, n in [("v", n) for n in range(rep.floor)] + [("w", n) for n in range(1, rep.floor)]:
        mutants += [rep.with_sign_flip(kind, n, entry) for entry in sorted(rep.gen(kind, n).support())]
    return mutants


def seeded_mutants(rep, seeds):
    return [random_sign_mutation(rep, random.Random(seed))[0] for seed in seeds]


def test_every_isometry_flip_at_floor_4_matches_suite_reference(monkeypatch):
    lam = F(2)
    fast, slow = reports_with_reference(monkeypatch, 4, lam, lambda: every_isometry_flip(Representation(4, lam)))
    assert fast == slow
    assert len(fast) == 82 and any('"fail"' in text for text in fast)


@pytest.mark.parametrize("lam", (F(1, 4), F(2), F(2, 3)), ids=str)
def test_seeded_mutants_at_floor_5_match_suite_reference(monkeypatch, lam):
    def reps():
        rep = Representation(5, lam)
        return [rep] + seeded_mutants(rep, range(10))

    fast, slow = reports_with_reference(monkeypatch, 5, lam, reps)
    assert fast == slow
    assert '"fail"' not in fast[0] and any('"witness"' in text for text in fast[1:])


def test_commutation_rows_compare_products_and_the_reference_forms_commutators(monkeypatch):
    def kinds():
        rows = path_algebra._table("base", 5) + path_algebra._table("braiding", 5)
        return Counter(row.kind for row in rows if "commutator" in row.indices)

    fast = kinds()
    with monkeypatch.context() as patch:
        patch_reference(patch)
        assert kinds() == {"vanishes": fast["commutes"]}
    assert set(fast) == {"commutes"} and kinds() == fast


@pytest.mark.parametrize("lam", (F(2), F(1, 4), F(2, 3)), ids=str)
@pytest.mark.parametrize("floor", (4, 5))
def test_skipping_zero_terms_changes_no_report(monkeypatch, floor, lam):
    def reports():
        rep = Representation(floor, lam)
        runs = [run_all_suites(floor, lam, subject) for subject in [rep] + seeded_mutants(rep, range(10))]
        return [(run.to_json(), run.decided_at(), run.products) for run in runs]

    fast = reports()
    with monkeypatch.context() as patch:
        patch.setattr(path_algebra, "_combination", every_term)
        slow = reports()
    assert fast == slow
    assert '"fail"' not in fast[0][0] and any('"witness"' in text for text, _, _ in fast[1:])


def test_a_sum_lifts_to_the_highest_floor_among_all_its_terms():
    # the model's sums never meet a zero term above their other terms, so the
    # lift of the skipped terms' floor is checked here on its own
    rep = Representation(4, F(2, 3))
    low, high = rep._home("e", 1), rep._home("v", 2)
    zero_low, zero_high = (SparseOperator.zero(path_context(r), rep.lam) for r in (1, 3))
    one, minus, tau = path_algebra.ONE, path_algebra.MINUS, path_algebra.TAU
    cases = ([(one, low), (minus, zero_high)], [(tau, zero_low), (one, zero_high)], [(tau, zero_low)],
             [(one, zero_high), (tau, low), (minus, high)], [(tau, low), (one, zero_low)])
    for terms in cases:
        fast, slow = path_algebra._combination(terms, rep.lam), every_term(terms, rep.lam)
        assert fast.ctx is slow.ctx and fast == slow
    assert path_algebra._combination(cases[0], rep.lam).ctx.floor == 3


def test_yang_baxter_rows_of_the_model_scale_and_add_nothing(monkeypatch):
    # both 6.4 coefficients vanish on the model, so every term is zero
    rep = Representation(5, F(2, 3))
    broken = unlinked(rep, {("v", 1): rep.tl("E", 1), ("v", 2): rep.tl("E", 2)})
    calls = []
    for name in ("scale", "_combine"):
        original = getattr(SparseOperator, name)
        monkeypatch.setattr(SparseOperator, name, lambda *args, _run=original, **kwargs: calls.append(1) or _run(*args, **kwargs))
    report = yang_baxter_check(5, F(2, 3), rep=rep)
    assert report.ok and report.products > 0 and not calls
    # with E_1, E_2 in place of v_1, v_2 the terms are not zero, and the sums are formed
    assert not yang_baxter_check(5, F(2, 3), rep=broken).ok and calls


# ---------------------------------------------------------------------------
# window certificates: the commutation lemma and the rows it decides


def draw_window(data, floor):
    """Writes {m} or nothing, reads m and its neighbours; the last coordinate
    is never written, so the endpoint blocks hold."""
    m = data.draw(st.integers(0, floor - 1))
    return range(m, m + data.draw(st.integers(0, 1))), range(max(0, m - 1), min(floor, m + 1) + 1)


def window_local_data(data, ctx, writes, reads):
    """(A, B, d) of a random sum of c(a, b) T_{a->b}: per class a of paths p
    with p|reads = a, a random set of targets b, each with random A and B
    values, on every path of the class."""
    lo, hi, index = writes.start, writes.stop, path_index(ctx)
    classes: dict[tuple, list] = {}
    for p in ctx.paths:
        classes.setdefault(p[reads.start : reads.stop], []).append(p)
    A, B = {}, {}
    for members in classes.values():
        for b in sorted({q[lo:hi] for q in ctx.paths}):
            targets = [p[:lo] + b + p[hi:] for p in members]
            if not all(q in index for q in targets) or not data.draw(st.booleans()):
                continue
            a_value, b_value = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
            for p, q in zip(members, targets):
                A[(index[q], index[p])] = a_value
                B[(index[q], index[p])] = b_value
    return A, B, data.draw(st.integers(1, 4))


def reference_local(op, writes, reads):
    return ReferenceOperator(op.ctx, op.lam, op.A, op.B, op.d).is_window_local(writes, reads)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), floor=st.integers(2, 3), lam=st.sampled_from(SMALL_LAMBDAS))
def test_window_local_operators_with_windows_apart_commute(data, floor, lam):
    ctx = path_context(floor)
    wx, wy = draw_window(data, floor), draw_window(data, floor)
    x_data = window_local_data(data, ctx, *wx)
    x, y = SparseOperator(ctx, lam, *x_data), SparseOperator(ctx, lam, *window_local_data(data, ctx, *wy))
    assert x.is_window_local(*wx) and y.is_window_local(*wy) and reference_local(x, *wx)
    # adjoints and lifts keep the window
    assert x.adjoint().is_window_local(*wx) and x.lift(path_context(floor + 1)).is_window_local(*wx)
    apart = path_algebra._apart(wx, wy)
    if apart:
        assert x * y == y * x
    # flip one entry, drop one, or add one that changes a coordinate outside the writes
    lo, hi = wx[0].start, wx[0].stop
    outside = [
        (i, j) for i, q in enumerate(ctx.paths) for j, p in enumerate(ctx.paths)
        if ctx.endpoint[i] == ctx.endpoint[j] and (p[:lo] != q[:lo] or p[hi:] != q[hi:])
    ]
    how = data.draw(st.sampled_from(["outside"] + (["flip", "drop"] if x.support() else [])))
    if how == "outside":
        A, B, d = dict(x_data[0]), dict(x_data[1]), x_data[2]
        key = data.draw(st.sampled_from(outside))
        A[key] = data.draw(st.sampled_from([-2, -1, 1, 3]))
        mutant = SparseOperator(ctx, lam, A, B, d)
    elif how == "flip":
        mutant = x.with_negated_entry(data.draw(st.sampled_from(sorted(x.support()))))
    else:
        key = data.draw(st.sampled_from(sorted(x.support())))
        mutant = SparseOperator(ctx, lam, {k: v for k, v in x.A.items() if k != key},
                                {k: v for k, v in x.B.items() if k != key}, x.d)
    local = mutant.is_window_local(*wx)
    assert local == reference_local(mutant, *wx)
    if how == "outside":
        assert not local
    if local and apart:
        assert mutant * y == y * mutant


# the offsets from n of the coordinates each kind writes and reads, as the
# generator table listed them before the windows were computed from its reach
WINDOW_OFFSETS = {
    **dict.fromkeys("efg", (range(0), range(-1, 1))),
    **dict.fromkeys("vwEF", (range(0, 1), range(-1, 2))),
}


def test_windows_from_the_reach_equal_the_listed_offsets():
    assert path_algebra._LETTERS == set(WINDOW_OFFSETS)
    for (kind, (writes, reads)), n in product(WINDOW_OFFSETS.items(), range(path_algebra.MAX_PATH_FLOOR + 1)):
        expected = [(n + writes.start, n + writes.stop), (max(0, n + reads.start), n + reads.stop)]
        # start and stop, as empty ranges compare equal wherever they sit
        assert [(r.start, r.stop) for r in path_algebra._window(kind, n)] == expected, (kind, n)


def commutation_rows(floor):
    rows = path_algebra._table("base", floor) + path_algebra._table("braiding", floor)
    return [row for row in rows if row.kind == "commutes"]


@pytest.mark.parametrize("lam", (F(1), F(1, 4), F(9), F(2, 3)), ids=str)
@pytest.mark.parametrize("floor", (4, 5, 6))
def test_every_commutation_row_of_the_model_is_certified_and_agrees_with_products(monkeypatch, floor, lam):
    rep = Representation(floor, lam)
    rows = commutation_rows(floor)
    for row in rows:
        (x, wx), (y, wy) = ((rep._home(*letter), path_algebra._window(*letter)) for letter in row.reads)
        assert path_algebra._apart(wx, wy) and x.is_window_local(*wx) and y.is_window_local(*wy), row.indices
    report = run_all_suites(floor, lam, rep)
    with monkeypatch.context() as patch:
        patch.setattr(SparseOperator, "is_window_local", lambda op, writes, reads: False)
        products = run_all_suites(floor, lam, Representation(floor, lam))
    assert report.to_json() == products.to_json() and report.decided_at() == products.decided_at()
    assert rows and report.ok and report.products < products.products


def oracle_commutation_rows(floor):
    """(equation, commutator, first letter, second letter) of every
    commutation row, in table order, by the distance rules that picked the
    partners before the windows did: every pair of e/f/g for R1; for
    locality the v/w pairs with n2 - n1 >= 2 (four rows each, one per
    placement of the stars) and the v/w x e/f/g pairs with r <= n1 - 1 or
    r >= n1 + 2; the E/F pairs with n2 - n1 >= 2 for 6.8."""
    keys = reference_generator_keys(floor)
    diag = sorted((key for key in keys if key[0] in "efg"), key=lambda key: (key[0] != "e", key[1]))
    isos = [key for key in keys if key[0] in "vw"]
    projections = [("E" if kind == "v" else "F", n) for kind, n in isos]
    rows = [("R1", f"{k1}{n1},{k2}{n2}", (k1, n1), (k2, n2)) for (k1, n1), (k2, n2) in combinations(diag, 2)]
    for k1, n1 in isos:
        for k2, n2 in isos:
            if n2 - n1 >= 2:
                for s1, s2 in product(("", "*"), ("", "*")):
                    rows.append(("locality", f"{k1}{s1}{n1},{k2}{s2}{n2}", (k1, n1), (k2, n2)))
        for kind, r in diag:
            if r <= n1 - 1 or r >= n1 + 2:
                rows.append(("locality", f"{k1}{n1},{kind}{r}", (k1, n1), (kind, r)))
    for (k1, n1), (k2, n2) in product(projections, projections):
        if n2 - n1 >= 2:
            rows.append(("6.8", f"{k1}{n1},{k2}{n2}", (k1, n1), (k2, n2)))
    return rows


@pytest.mark.parametrize("floor", range(4, 10))
def test_commutation_rows_are_the_window_apart_pairs_of_the_distance_rules(floor):
    rows = commutation_rows(floor)
    expected = oracle_commutation_rows(floor)
    assert [(row.equation, row.indices["commutator"]) for row in rows] == [(eq, name) for eq, name, _, _ in expected]
    for row, (_, _, a, b) in zip(rows, expected):
        assert row.reads == {a, b} and row.apart == path_algebra._windows_apart(a, b) is not None
    # every other row of the tables holds no pair
    tables = path_algebra._table("base", floor) + path_algebra._table("braiding", floor)
    assert sum(row.apart is not None for row in tables) == len(rows)


def test_commutation_rows_carry_their_letters_and_read_only_kept_certificates(monkeypatch):
    floor, lam = 5, F(2, 3)
    for row in commutation_rows(floor):
        assert set(row.apart) == row.reads
    # letters whose windows meet are no partners; a row that is not a
    # commutation holds no pair, whatever its builder passed
    assert path_algebra._windows_apart(("v", 1), ("e", 2)) is None
    pair = path_algebra._windows_apart(("v", 1), ("e", 3))
    assert path_algebra._Row("locality", {}, "vanishes", (("v", 1),), apart=pair).apart is None
    rep = Representation(floor, lam)
    first = run_all_suites(floor, lam, rep)
    # a second run on one model reads every check it kept: no certificate is
    # checked again and nothing is multiplied out
    with monkeypatch.context() as patch:
        fail = lambda *args: pytest.fail("a second run read more than its kept checks")  # noqa: E731
        for name in ("_window", "_apart"):
            patch.setattr(path_algebra, name, fail)
        patch.setattr(SparseOperator, "is_window_local", fail)
        patch.setattr(SparseOperator, "__mul__", fail)
        again = run_all_suites(floor, lam, rep)
    assert again.to_json() == first.to_json() and again.decided_at() == first.decided_at()
    assert first.products > 0 and again.products == 0


def spy_on_entry_checks(monkeypatch):
    """The operators ``is_window_local`` is called on, in call order."""
    checked, original = [], SparseOperator.is_window_local
    monkeypatch.setattr(SparseOperator, "is_window_local", lambda op, *window: checked.append(op) or original(op, *window))
    return checked


@pytest.mark.parametrize("floor", (5, 9))
def test_an_unmutated_run_checks_the_entries_of_every_letter_at_index_2_or_less(monkeypatch, floor):
    # every letter is certified alike: e, f, g, v, w, E and F at index <= 2
    # on their entries, once each, and a letter at index 3 or more from its
    # translate at index 2, unbuilt
    lam = F(1, 4)
    checked = spy_on_entry_checks(monkeypatch)
    rep = Representation(floor, lam)
    assert run_all_suites(floor, lam, rep).ok
    low = [key for key in path_algebra._generator_keys(floor, path_algebra._LETTERS) if key[1] <= 2]
    assert len(checked) == len(low) == 18
    assert sorted(map(id, checked)) == sorted(id(rep._gens[key]) for key in low)
    for kind, n in path_algebra._generator_keys(floor, "EF"):
        assert certificate(rep, kind, n) == n + 1


@pytest.mark.parametrize("kind, n", (("v", 3), ("w", 2), ("e", 2)))
def test_a_mutant_reads_the_certificates_of_the_letters_it_did_not_change_from_its_parent(monkeypatch, kind, n):
    floor, lam = 5, F(2)
    rep = Representation(floor, lam)
    assert run_all_suites(floor, lam, rep).ok
    # the parent's run kept the certificate of every letter of a commutation row
    kept = dict(rep._verdicts)
    letters = {letter for row in commutation_rows(floor) for letter in row.reads}
    assert all(path_algebra._certificate(*letter) in kept for letter in letters)
    mutated = rep.with_sign_flip(kind, n, min(rep.gen(kind, n).support()))
    checked = spy_on_entry_checks(monkeypatch)
    report = run_all_suites(floor, lam, mutated)
    # the flip and its rebuilt E/F are checked on their own entries, once
    # each, and no parent operator is; the mutant keeps only those certificates
    assert sorted(map(id, checked)) == sorted(id(mutated._gens[key]) for key in mutated._changed)
    own = {row.operands[0] for row in mutated._verdicts if row.kind == "window"}
    assert own == mutated._changed and len(mutated._changed) == (2 if kind in "vw" else 1)
    # and reads every other certificate from its parent, adding nothing there
    for letter in letters - mutated._changed:
        assert certificate(mutated, *letter) == certificate(rep, *letter) == kept[path_algebra._certificate(*letter)].floor
    assert rep._verdicts == kept
    monkeypatch.undo()
    assert report.to_json() == run_all_suites(floor, lam, unlinked(mutated)).to_json()


def test_a_flipped_generator_loses_its_certificate_and_its_rows_multiply():
    lam = F(2)
    rep = Representation(5, lam)
    mutated = rep.with_sign_flip("w", 2, min(rep.gen("w", 2).support()))
    assert rep._home("w", 2).is_window_local(*path_algebra._window("w", 2))
    assert not mutated._home("w", 2).is_window_local(*path_algebra._window("w", 2))
    report = run_all_suites(5, lam, unlinked(mutated))
    # locality catches the flip: its witness comes from the difference xy - yx
    failed = [c for c in report.failures() if c.equation == "locality"]
    assert failed and all(c.witness is not None for c in failed)


@pytest.mark.parametrize("floor", range(3, path_algebra.MAX_PATH_FLOOR + 1))
@pytest.mark.parametrize("lam", (F(1), F(2, 3)), ids=str)
def test_translated_certificates_equal_the_entry_check(floor, lam):
    # kind_n at n >= 3 takes kind_2's certificate without being built; built
    # now, its entries give the same verdict, at its home floor
    rep = Representation(floor, lam)
    for kind, n in path_algebra._generator_keys(floor, path_algebra._LETTERS):
        if n >= 3:
            row = path_algebra._certificate(kind, n)
            assert row.link == (path_algebra._certificate(kind, 2), n - 2)
            assert shifted(row.operands[0], n - 2) == row.link[0].operands[0]
            floor_of = certificate(rep, kind, n)
            assert (kind, n) not in rep._gens
            home = rep._home(kind, n)
            local = home.is_window_local(*path_algebra._window(kind, n))
            assert floor_of == (home.ctx.floor if local else None), (kind, n)
            assert floor_of == n + path_algebra._KINDS[kind][2]


def spy_on_checks(patch, name):
    """The (equation, indices) of every check that ``Check.<name>`` decides, in call order."""
    decided, original = [], getattr(path_algebra.Check, name)

    def spy(equation, indices, *args):
        decided.append((equation, json.dumps(indices)))
        return original(equation, indices, *args)

    patch.setattr(path_algebra.Check, name, staticmethod(spy))
    return decided


def spy_on_deltas(patch):
    """The (model, node) of every delta built, in call order."""
    built, original = [], path_algebra._delta
    patch.setattr(path_algebra, "_delta", lambda rep, node, *args: built.append((rep, node)) or original(rep, node, *args))
    return built


def row_key(row):
    return row.equation, json.dumps(row.indices)


def test_a_generator_flipped_at_index_3_fails_its_certificate_and_its_rows_multiply(monkeypatch):
    floor, lam = 6, F(2)
    rep = Representation(floor, lam)
    window = path_algebra._window("w", 3)
    mutated = rep.with_sign_flip("w", 3, min(rep.gen("w", 3).support()))
    # the parent takes w_3's certificate from w_2; the mutant checks its flip's entries
    assert certificate(rep, "w", 3) == 4
    assert certificate(mutated, "w", 3) is None
    assert not mutated._home("w", 3).is_window_local(*window)
    with monkeypatch.context() as patch:
        on_operands, on_deltas = spy_on_checks(patch, "equality"), spy_on_checks(patch, "vanishes")
        report = run_all_suites(floor, lam, mutated)
    # every locality row that reads w_3 passes on the parent and is
    # multiplied out on its deltas, xy - yx less the parent's, and locality
    # catches the flip with a witness from that difference
    rows = [row for row in path_algebra._table("base", floor) if row.equation == "locality" and ("w", 3) in row.reads]
    assert rows and all(rep._verdicts[row].status == "pass" for row in rows)
    assert all(row_key(row) in on_deltas and row_key(row) not in on_operands for row in rows)
    failed = [c for c in report.failures() if c.equation == "locality"]
    assert failed and all(c.witness is not None for c in failed)
    assert report.to_json() == run_all_suites(floor, lam, unlinked(mutated)).to_json()


# ---------------------------------------------------------------------------
# mutants re-decide only the rows that read their flip


@pytest.mark.parametrize("lam", (F(1), F(2, 3)), ids=str)
def test_a_flip_rebuilds_exactly_the_projection_of_its_flip(lam):
    rep = Representation(5, lam)
    for kind, n in path_algebra._generator_keys(5):
        mutated = rep.with_sign_flip(kind, n, min(rep.gen(kind, n).support()))
        rebuilt = {key for key, op in mutated._gens.items() if op is not rep._home(*key)}
        projection_key = {"v": ("E", n), "w": ("F", n)}.get(kind)
        assert rebuilt == mutated._changed == {(kind, n), projection_key} - {None}
        if projection_key:
            assert mutated._home(*projection_key) == projection(mutated._home(kind, n), lam)
            assert mutated._home(*projection_key) != rep._home(*projection_key)
    for kind, flip in (("E", "v"), ("F", "w")):
        message = f"{kind}_1 is a projection, read with tl and rebuilt from {flip}_1; it cannot be flipped"
        with pytest.raises(ValueError, match=message):
            rep.gen(kind, 1)
        with pytest.raises(ValueError, match=message):
            rep.with_sign_flip(kind, 1, (0, 0))


def assert_reuse_matches_unlinked(floor, lam, mutants):
    """Each mutant's report, with its parent's verdicts and passes reused,
    equals in its checks and the floors they were decided at the report of a
    copy with the same generators and no parent link, which decides every
    row on its operands."""
    for mutated in mutants:
        assert mutated._parent is not None
        reused, copied = run_all_suites(floor, lam, mutated), run_all_suites(floor, lam, unlinked(mutated))
        assert (reused.to_json(), reused.decided_at()) == (copied.to_json(), copied.decided_at())


def test_every_flip_at_floor_4_reuses_parent_verdicts_exactly():
    # every single flip of every generator: the rows it reads are decided on
    # deltas where the parent passes them, the others by the parent
    rep = Representation(4, F(2))
    mutants = [rep.with_sign_flip(kind, n, entry)
               for kind, n in path_algebra._generator_keys(4) for entry in sorted(rep.gen(kind, n).support())]
    assert len(mutants) == 491
    assert_reuse_matches_unlinked(4, F(2), mutants)
    assert run_all_suites(4, F(2), rep).to_json() == run_all_suites(4, F(2), unlinked(rep)).to_json()


@pytest.mark.parametrize("lam", (F(1, 4), F(2), F(2, 3)), ids=str)
def test_seeded_mutants_at_floor_5_reuse_parent_verdicts_exactly(lam):
    assert_reuse_matches_unlinked(5, lam, seeded_mutants(Representation(5, lam), range(10)))


def test_mutants_of_mutants_reuse_verdicts_through_each_parent(monkeypatch):
    lam = F(2, 3)
    rep = Representation(5, lam)
    # a diagonal flip is always caught, so a grandchild that took the
    # grandparent's verdicts for the rows reading it would pass them
    child = rep.with_sign_flip("e", 2, min(rep.gen("e", 2).support()))
    assert not run_all_suites(5, lam, unlinked(child)).ok
    # again e_2 (the child's changed keys), an isometry and its projection, a far one
    grandchildren = [
        child.with_sign_flip("e", 2, max(rep.gen("e", 2).support())),
        child.with_sign_flip("v", 1, min(rep.gen("v", 1).support())),
        child.with_sign_flip("w", 3, min(rep.gen("w", 3).support())),
    ]
    assert grandchildren[0]._changed == {("e", 2)} and grandchildren[1]._changed == {("v", 1), ("E", 1)}
    # e_2 flipped twice: the child fails R1's sum at 2, so the grandchild
    # decides it on its operands; the child passes w g = e w at 2, and the
    # grandchild decides it on deltas from the child's operands
    twice = grandchildren[0]
    rows = {row_key(row): row for row in path_algebra._table("base", 5)}
    total = rows[("R1", json.dumps({"sum_at": 2}))]
    law = rows[("R3", json.dumps({"family": "w", "n": 2, "law": "w g = e w"}))]
    run_all_suites(5, lam, child)  # the child and its parent keep every check it reads
    with monkeypatch.context() as patch:
        deltas, on_operands = spy_on_deltas(patch), spy_on_checks(patch, "equality")
        run_all_suites(5, lam, twice)
    assert (child._verdicts[total].status, child._verdicts[law].status) == ("fail", "pass")
    assert (twice._verdicts[total].status, twice._verdicts[law].status) == ("fail", "fail")
    assert row_key(total) in on_operands and (twice, total.operands[0]) not in deltas
    assert row_key(law) not in on_operands and (twice, law.operands[1]) in deltas
    great = grandchildren[1].with_sign_flip("g", 4, min(rep.gen("g", 4).support()))
    assert_reuse_matches_unlinked(5, lam, [great] + grandchildren + [child] + seeded_mutants(child, range(4)))


def test_a_mutant_rereads_only_the_rows_of_its_flip(monkeypatch):
    lam = F(2)
    full = run_all_suites(5, lam, Representation(5, lam))
    # the products of a full run that multiplies out every commutation row too
    with monkeypatch.context() as patch:
        patch.setattr(SparseOperator, "is_window_local", lambda op, writes, reads: False)
        products_only = run_all_suites(5, lam, Representation(5, lam))
    assert products_only.to_json() == full.to_json() and products_only.products > full.products
    # the first mutant of a parent that has not run has the parent decide the
    # rows its flip leaves alone, and the rows it reads of the kinds a delta
    # decides (with the translates and certificates they read); it decides
    # every row its flip reads itself, on deltas where the parent passes
    rep = Representation(5, lam)
    first = rep.with_sign_flip("w", 3, min(rep.gen("w", 3).support()))
    run_all_suites(5, lam, first)
    rows = suite_rows(5)
    alone = {row for row in rows if first._changed.isdisjoint(row.reads)}
    passed = {row for row in rows if row not in alone and row.kind in path_algebra._DELTA_KINDS}
    decided = alone | passed
    translates = {row.link[0] for row in decided if row.link}
    assert 0 < len(alone) < len(rows) and decided <= rep._verdicts.keys()
    assert all(row in decided or row in translates or row.kind == "window" for row in rep._verdicts)
    assert all(rep._verdicts[row].status == "pass" for row in passed)
    assert {row for row in first._verdicts if row.kind != "window"} == set(rows) - alone
    second = rep.with_sign_flip("w", 3, max(rep.gen("w", 3).support()))
    report = run_all_suites(5, lam, second)
    parents = {id(c) for c in rep._verdicts.values()}
    reread = {(c.equation, json.dumps(c.indices)) for c in report.checks if id(c) not in parents}
    assert 0 < len(reread) < len(full.checks) / 4
    assert 0 < report.products < products_only.products / 4
    assert ("R3", json.dumps({"family": "w", "n": 3, "law": "w g = e w"})) in reread
    assert ("6.7", json.dumps({"n": 3, "law": "E F"})) in reread  # reads F_3
    assert ("R3", json.dumps({"family": "v", "n": 1, "law": "v g = f v"})) not in reread


def test_a_parent_decides_for_its_mutant_what_an_unmutated_model_decides():
    # a fresh parent that has not run decides for its mutant the rows the
    # flip leaves alone, and the translates and certificates they read, on
    # its own operators: every check it keeps is an unmutated model's
    floor, lam = 4, F(2)
    fresh = Representation(floor, lam)
    run_all_suites(floor, lam, fresh)
    for kind, n in path_algebra._generator_keys(floor):
        support = sorted(fresh.gen(kind, n).support())
        for entry in (support[0], support[-1]):
            parent = Representation(floor, lam)
            run_all_suites(floor, lam, parent.with_sign_flip(kind, n, entry))
            assert parent._verdicts
            for row, check in parent._verdicts.items():
                expected = path_algebra._verdict(fresh, row, {}, path_algebra.Report())
                assert (check, check.floor) == (expected, expected.floor), (kind, n, entry, row.equation, row.indices)


def test_suite_calls_without_a_model_build_one_each():
    # no model is shared between calls: the second multiplies out what the first did
    first, second = run_all_suites(5, 2), run_all_suites(5, 2)
    assert first.products == second.products > 0
    assert first.decided_at() == second.decided_at() and first.to_json() == second.to_json()
    assert generator("v", 1, 5, F(2)) == generator("v", 1, 5, F(2))


def test_a_mutant_is_freed_by_reference_counting_once_its_suites_return():
    # no reference cycle holds a model, its parent or a suite call's nodes
    lam = F(2, 3)
    rep = Representation(5, lam)
    enabled = gc.isenabled()
    gc.disable()
    try:
        mutated = rep.with_sign_flip("e", 2, min(rep.gen("e", 2).support()))
        assert not run_all_suites(5, lam, mutated).ok
        alive = weakref.ref(mutated)
        del mutated
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_seeded_mutants_match_the_committed_golden():
    # the only diff of the 150 mutants: tests/golden_mutants.py's output against its committed file
    assert golden_mutants.golden_text() == (Path(__file__).parent / "golden_mutants.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# translates: a row at index 3 or more takes the verdict of its translate at 2


STATES = ("bottom", "interior", "top")


def letter_classes(op, n):
    """A generator kind_n at its home floor as a function of (state of
    xi_{n-1}, column letters d_n..): {class: the set of (row letters, A, B,
    d) of the column's entries}, checked to be one set per class, with
    every entry keeping xi_0..xi_{n-1}."""
    ctx = op.ctx
    columns = [ctx.letters(m) for m in range(n, ctx.floor + 1)]
    top = 2 ** (n - 1)
    entries = {j: set() for j in range(ctx.dim)}
    for i, j in op.support():
        assert ctx.paths[i][:n] == ctx.paths[j][:n]
        entries[j].add((tuple(column[i] for column in columns), op.A.get((i, j), 0), op.B.get((i, j), 0), op.d))
    classes = {}
    for j, column in entries.items():
        x = ctx.paths[j][n - 1]
        state = "bottom" if x == 0 else "top" if x == top else "interior"
        assert classes.setdefault((state, *(c[j] for c in columns)), column) == column
    return classes


@pytest.mark.parametrize("lam", (F(1, 4), F(2, 3)), ids=str)
def test_generators_at_index_2_or_more_are_one_window_operator(lam):
    rep = Representation(path_algebra.MAX_PATH_FLOOR, lam)
    for kind, low, reach, *_ in path_algebra._GENERATORS:
        base = letter_classes(rep._home(kind, 2), 2)
        assert {key[0] for key in base} == set(STATES), kind
        for n in range(3, rep.floor - reach + 1):
            assert letter_classes(rep._home(kind, n), n) == base, (kind, n)


def test_letters_are_the_steps_of_each_path():
    for floor in range(6):
        ctx = path_context(floor)
        for m in range(floor + 1):
            assert ctx.letters(m) == tuple(p[m] - 2 * (p[m - 1] if m else 0) for p in ctx.paths)
            assert set(ctx.letters(m)) <= {-1, 0, 1} and ctx.letters(m) is ctx.letters(m)


@pytest.mark.parametrize("lam", (F(1), F(2, 3)), ids=str)
def test_generators_from_letter_columns_equal_the_path_loop(lam):
    rep = Representation(path_algebra.MAX_PATH_FLOOR, lam)
    for kind, n in path_algebra._generator_keys(rep.floor):
        home = rep._home(kind, n)
        assert home == direct_generator(home.ctx, lam, kind, n), (kind, n)


def suite_rows(floor):
    """Every row of the three suites, in report order."""
    return [row for suite in ("base", "yb", "braiding") for row in path_algebra._table(suite, floor)]


def shifted(node, k):
    """The node with every letter index, and the floor of every identity but
    the unit ("1", 0), moved down by k."""
    tag = node[0]
    if tag in path_algebra._LETTERS or tag == "1" and node[1]:
        return (tag, node[1] - k)
    if tag == "+":
        return ("+", tuple((scalar, shifted(x, k)) for scalar, x in node[1]))
    return (tag, *(shifted(x, k) for x in node[1:])) if tag in ("·", "*") else node


def lowest_letter(row):
    return min(n for _, n in row.reads)


def index(row):
    """The index a row is named by: its n, sum_at or r."""
    return next(row.indices[key] for key in ("n", "sum_at", "r") if key in row.indices)


def test_a_model_and_its_index_ranges_build_nothing():
    for floor in range(path_algebra.MAX_PATH_FLOOR + 1):
        rep = Representation(floor, F(2, 3))
        keys = set(path_algebra._generator_keys(floor, path_algebra._LETTERS))
        assert all(rep.has(kind, n) for kind, n in keys)
        assert not any(rep.has(kind, n) for kind in "efgvwEF" for n in range(-1, floor + 2) if (kind, n) not in keys)
        assert not rep.has("x", 0)
        with pytest.raises(ValueError, match="not defined"):
            rep._home("v", floor)
        assert not rep._gens


def test_a_mutant_reads_the_generators_it_did_not_change_from_its_parent():
    lam = F(2, 3)
    rep = Representation(5, lam)
    mutated = rep.with_sign_flip("v", 1, min(rep.gen("v", 1).support()))
    # the victim is read from the parent, and the mutant holds what it changed
    assert set(rep._gens) == {("v", 1)} and set(mutated._gens) == mutated._changed == {("v", 1), ("E", 1)}
    far = mutated._home("w", 3)
    assert far is rep._gens[("w", 3)] and far is mutated._home("w", 3) and far.ctx.floor == 4
    # E/F build their flip first, in the model that builds them
    assert rep._home("F", 2) is mutated._home("F", 2) and ("w", 2) in rep._gens
    assert set(mutated._gens) == mutated._changed


@pytest.mark.parametrize("floor", range(4, path_algebra.MAX_PATH_FLOOR + 1))
def test_an_unmutated_run_builds_the_letters_of_the_rows_it_multiplies_out(floor):
    # linked rows take their translate's verdict and commutation rows the
    # certificates, so what is built is the letters of every other row: the
    # same 26, at indices <= 4, at every floor
    lam = F(2, 3)
    rep = Representation(floor, lam)
    assert run_all_suites(floor, lam, rep).ok
    expected = set().union(*(row.reads for row in suite_rows(floor) if not row.link and row.kind != "commutes"))
    assert set(rep._gens) == expected
    assert len(expected) == 26 and max(n for _, n in expected) == 4


@pytest.mark.parametrize("floor", range(4, 10))
def test_every_link_points_to_the_translate_at_index_2(floor):
    rows = suite_rows(floor)
    links = [row for row in rows if row.link]
    for row in links:
        translate, shift = row.link
        assert (translate.equation, translate.kind) == (row.equation, row.kind) and shift >= 1
        assert index(translate) == 2 and index(row) == 2 + shift
        # the unit-partition rows read no letter: the floor of their identity moves
        assert not row.reads or lowest_letter(translate) == 2 and lowest_letter(row) == 2 + shift
        assert tuple(shifted(x, shift) for x in row.operands) == translate.operands
        assert translate.link is None
    # every other row at index 3 or more is a commutation row, decided by
    # window certificates
    assert all(row.kind == "commutes" for row in rows if not row.link and row.reads and lowest_letter(row) >= 3)
    assert links


def letters_of(nodes):
    """The letters of some nodes, by a walk over them."""
    found, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        found.add(node) if node[0] in path_algebra._LETTERS else stack.extend(path_algebra._children(node))
    return found


@pytest.mark.parametrize("floor", range(4, 10))
def test_expanded_tables_equal_the_tables_built_per_floor(floor):
    # row by row against the tables built and linked floor by floor:
    # equation, indices in order, kind, operands (built here on demand),
    # letters, letter pair, and the link's translate and shift
    for suite in ("base", "yb", "braiding"):
        rows, expected = path_algebra._table(suite, floor), reference_table(suite, floor)
        assert len(rows) == len(expected), suite
        for row, ref in zip(rows, expected):
            assert (row.equation, json.dumps(row.indices), row.kind) == (ref.equation, json.dumps(ref.indices), ref.kind)
            assert row.operands == ref.operands and row.reads == letters_of(ref.operands)
            assert row.apart == ref.apart
            link = row.link and (row.link[0].equation, row.link[0].indices, row.link[1])
            assert link == (ref.link and (ref.link[0].equation, ref.link[0].indices, ref.link[1])), row.indices


def fresh_tables(patch):
    """Empty caches for the templates, tables and certificate rows, so that a
    test reads rows no other test has read."""
    for name in ("_templates", "_rows_at", "_table", "_certificate"):
        patch.setattr(path_algebra, name, lru_cache(maxsize=None)(getattr(path_algebra, name).__wrapped__))


def test_template_builders_build_only_the_rows_they_keep(monkeypatch):
    built = []

    class Counted(path_algebra._Row):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(path_algebra, "_Row", Counted)
    kept = {}
    for suite in ("base", "yb", "braiding"):
        built.clear()
        rows, _ = path_algebra._templates.__wrapped__(suite)
        assert built == list(rows)
        for row in rows:
            index = next(row.indices[key] for key in path_algebra._INDEX if key in row.indices)
            assert index <= 2 and all(n >= path_algebra._KINDS[kind][1] for kind, n in row.reads), row.indices
        kept[suite] = len(rows)
    assert kept == {"base": 167, "yb": 27, "braiding": 63}


def test_linked_and_commutation_rows_build_their_operands_only_when_decided_on_them(monkeypatch):
    fresh_tables(monkeypatch)
    floor, lam = 6, F(1, 4)
    assert run_all_suites(floor, lam, Representation(floor, lam)).ok
    rows = suite_rows(floor)
    unbuilt = [row for row in rows if callable(row._operands)]
    assert unbuilt == [row for row in rows if row.link or row.apart]
    assert len(rows) == 1001 and len(unbuilt) == 744
    # a mutant builds the operands of rows that read its flip, and no others
    rep = Representation(floor, lam)
    mutated = rep.with_sign_flip("w", 3, min(rep.gen("w", 3).support()))
    assert not run_all_suites(floor, lam, mutated).ok
    built = [row for row in unbuilt if not callable(row._operands)]
    assert built and all(not mutated._changed.isdisjoint(row.reads) for row in built)


def test_an_unmutated_run_builds_identities_at_floor_2_or_below(monkeypatch):
    # the unit-partition rows at r >= 3 take the verdict of r = 2, at floor r
    floors, identity = [], SparseOperator.identity
    monkeypatch.setattr(SparseOperator, "identity", staticmethod(lambda ctx, lam: floors.append(ctx.floor) or identity(ctx, lam)))
    floor, lam = 9, F(2, 3)
    report = run_all_suites(floor, lam, Representation(floor, lam))
    assert report.ok and floors and max(floors) == 2
    assert [c.floor for c in report.checks if c.equation == "unit-partition"] == list(range(floor))


ORACLE_FLOORS = range(4, 9)


def reports_and_unlinked(monkeypatch, floor, lam, make_rep=Representation):
    """(report, report with every link dropped) of the suites on a fresh
    representation each."""
    report = run_all_suites(floor, lam, make_rep(floor, lam))
    with monkeypatch.context() as patch:
        patch_unlinked_tables(patch)
        plain = run_all_suites(floor, lam, make_rep(floor, lam))
    return report, plain


@pytest.mark.parametrize("lam", ORACLE_LAMBDAS, ids=str)
def test_translated_verdicts_equal_the_products(monkeypatch, lam):
    totals = []
    for floor in ORACLE_FLOORS:
        report, plain = reports_and_unlinked(monkeypatch, floor, lam)
        assert report.ok and report.to_json() == plain.to_json() and report.decided_at() == plain.decided_at()
        assert [c.floor for c in report.checks] == [c.floor for c in plain.checks]
        assert report.products < plain.products
        totals.append(report.products)
    # the products of the rows decided directly do not grow with the floor
    assert len(set(totals)) == 1


def test_translated_verdicts_equal_the_products_at_the_top_floor(monkeypatch):
    report, plain = reports_and_unlinked(monkeypatch, path_algebra.MAX_PATH_FLOOR, F(2, 3))
    assert report.ok and report.to_json() == plain.to_json() and report.decided_at() == plain.decided_at()


def test_a_failing_translate_has_its_rows_multiplied_out(monkeypatch):
    floor, lam = 6, F(2, 3)

    def broken(floor, lam):
        # an unparented representation whose e_2 and v_2 each lose one sign
        rep = Representation(floor, lam)
        for key in (("e", 2), ("v", 2)):
            op = rep._home(*key)
            rep._gens[key] = op.with_negated_entry(min(op.support()))
        return rep

    decided = []
    for name in ("equality", "vanishes", "nonzero", "projection"):
        original = getattr(path_algebra.Check, name)

        def spy(equation, indices, *args, _run=original, **kwargs):
            decided.append((equation, json.dumps(indices)))
            return _run(equation, indices, *args, **kwargs)

        monkeypatch.setattr(path_algebra.Check, name, staticmethod(spy))
    rep = broken(floor, lam)
    report = run_all_suites(floor, lam, rep)
    monkeypatch.undo()
    rows, checks = suite_rows(floor), report.checks
    assert len(rows) == len(checks)
    name = {id(row): (row.equation, json.dumps(row.indices)) for row in rows}
    status = {id(row): check.status for row, check in zip(rows, checks)}
    behind = [row for row in rows if row.link and status[id(row.link[0])] == "fail"]
    ahead = [row for row in rows if row.link and status[id(row.link[0])] == "pass"]
    assert behind and ahead
    # the model keeps a check for every row it decided
    assert all(rep._verdicts[row] is check for row, check in zip(rows, checks))
    # the rows behind a failing translate are multiplied out, the others not
    assert all(name[id(row)] in decided for row in behind)
    assert not any(name[id(row)] in decided for row in ahead)
    # and every check and witness is that of a run with the links dropped
    _, plain = reports_and_unlinked(monkeypatch, floor, lam, broken)
    assert report.to_json() == plain.to_json() and report.decided_at() == plain.decided_at()
    assert not report.ok


# ---------------------------------------------------------------------------
# home floors and the tail embedding against floor-N evaluation


@pytest.mark.parametrize("lam", (F(1), F(1, 4), F(2), F(2, 3)), ids=str)
def test_home_floor_operators_lift_to_their_floor_n_builds(lam):
    for floor in range(8):
        rep = Representation(floor, lam)
        keys = reference_generator_keys(floor)
        # the index table: the draw order of seeded mutants; nothing is built yet
        projections = [("E", n) for n in range(floor)] + [("F", n) for n in range(1, floor)]
        assert path_algebra._generator_keys(floor) == keys and not rep._gens
        for kind, n in keys:
            home = rep._home(kind, n)
            assert home.ctx.floor == (n + 1 if kind in "vw" else n)
            direct = direct_generator(rep.ctx, lam, kind, n)
            assert home.lift(rep.ctx) == direct == rep.gen(kind, n)
            if kind in "vw":
                tl = "E" if kind == "v" else "F"
                assert rep._home(tl, n).ctx is home.ctx
                assert rep._home(tl, n).lift(rep.ctx) == projection(direct, lam) == rep.tl(tl, n)
        assert sorted(rep._gens) == sorted(keys + projections)


LOW_CTX, HIGH_CTX = path_context(2), path_context(4)


@settings(max_examples=150, deadline=None)
@given(
    lam=st.sampled_from(SMALL_LAMBDAS),
    x=block_operator_data(LOW_CTX),
    y=block_operator_data(LOW_CTX),
    z=block_operator_data(HIGH_CTX),
    c=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    root=st.booleans(),
)
def test_tail_embedding_is_an_injective_unital_star_homomorphism(lam, x, y, z, c, root):
    fx, fy, fz = SparseOperator(LOW_CTX, lam, *x), SparseOperator(LOW_CTX, lam, *y), SparseOperator(HIGH_CTX, lam, *z)

    def lift(op):
        return op.lift(HIGH_CTX)

    assert lift(SparseOperator.identity(LOW_CTX, lam)) == SparseOperator.identity(HIGH_CTX, lam)
    assert lift(fx + fy) == lift(fx) + lift(fy)
    assert lift(fx - fy) == lift(fx) - lift(fy)
    assert lift(fx * fy) == lift(fx) * lift(fy)
    assert lift(fx.scale(c, root)) == lift(fx).scale(c, root)
    assert lift(fx.adjoint()) == lift(fx).adjoint()
    assert lift(fx).is_zero() == fx.is_zero()
    assert (lift(fx) == lift(fy)) == (fx == fy)
    # mixed floors lift the lower operand; equality stays within one floor
    assert fx * fz == lift(fx) * fz and fz * fx == fz * lift(fx)
    assert fx + fz == lift(fx) + fz and fz - fx == fz - lift(fx)
    assert fx != lift(fx)
    # the lift agrees with the path-by-path definition, and so does its witness
    reference = ReferenceOperator(LOW_CTX, lam, *x).lift(HIGH_CTX)
    assert lift(fx).entries == reference.entries
    assert lift(fx).witness() == reference.witness()
    assert fx.first_entry_of_difference(fz) == (lift(fx) - fz).witness()
    # the lift is kept, and ignored by equality and hashing
    assert lift(fx) is lift(fx)
    assert fx == SparseOperator(LOW_CTX, lam, *x) and hash(fx) == hash(SparseOperator(LOW_CTX, lam, *x))


def at_high_floor(witness):
    """A floor-2 witness moved to the first extensions of its row and column at floor 4."""
    if witness is None:
        return None
    first = path_algebra._extensions(LOW_CTX, HIGH_CTX)[0]
    return {**witness, "row": first[witness["row"]], "col": first[witness["col"]]}


@settings(max_examples=150, deadline=None)
@given(lam=st.sampled_from(SMALL_LAMBDAS), x=block_operator_data(LOW_CTX), y=block_operator_data(LOW_CTX))
def test_first_extension_of_a_witness_is_the_witness_of_the_lift(lam, x, y):
    # the oracle of the one place that maps a failing check's witness to
    # floor N (``_verdict``): the least entry of the lift is the first
    # extension of the least entry, with its value
    fx, fy = SparseOperator(LOW_CTX, lam, *x), SparseOperator(LOW_CTX, lam, *y)
    lx, ly = fx.lift(HIGH_CTX), fy.lift(HIGH_CTX)
    assert at_high_floor(fx.witness()) == lx.witness()
    assert at_high_floor(fx.first_entry_of_difference(fy)) == lx.first_entry_of_difference(ly)
    # a skew operator, and a self-adjoint one, whose witness is read off X^2 - X
    for op in (fx, fx + fx.adjoint()):
        assert at_high_floor(op.projection_witness()) == op.lift(HIGH_CTX).projection_witness()


def test_lift_refuses_lower_or_foreign_floors():
    op = SparseOperator.identity(path_context(3), ONE)
    with pytest.raises(ValueError):
        op.lift(path_context(2))
    with pytest.raises(ValueError):
        op + SparseOperator.identity(PathContext(3), ONE)


HOME_ORACLE_CASES = [(4, lam) for lam in ORACLE_LAMBDAS] + [(5, lam) for lam in ORACLE_LAMBDAS] + [(6, F(2, 3))]


@pytest.mark.parametrize("floor, lam", HOME_ORACLE_CASES, ids=str)
def test_home_floor_suites_match_floor_n_evaluation(monkeypatch, floor, lam):
    def reps():
        rep = Representation(floor, lam)
        return [rep] + seeded_mutants(rep, range(6))

    fast, slow = reports_with_reference(monkeypatch, floor, lam, reps, patch_floor_n)
    assert fast == slow
    assert '"fail"' not in fast[0] and any('"witness"' in text for text in fast[1:])


def test_home_floor_flips_name_floor_n_witnesses(monkeypatch):
    # a flip made at a generator's home floor fails checks decided below
    # floor N; their witnesses, lifted to floor N, must be the floor-N ones
    lam, stored = F(2, 3), Representation._home

    def mutants():
        rep = Representation(4, lam)
        out = []
        for kind, n in reference_generator_keys(4):
            home = stored(rep, kind, n)  # at its home floor, also where _home is patched
            out.append(unlinked(rep, {(kind, n): home.with_negated_entry(max(home.support()))}))
        return out

    fast, slow = reports_with_reference(monkeypatch, 4, lam, mutants, patch_floor_n)
    assert fast == slow
    lifted = [c for m in mutants() for c in run_all_suites(4, lam, m).failures() if c.witness and c.floor < 4]
    assert len(lifted) > 20


def test_every_isometry_flip_at_floor_4_matches_floor_n_evaluation(monkeypatch):
    lam = F(1, 4)
    fast, slow = reports_with_reference(monkeypatch, 4, lam, lambda: every_isometry_flip(Representation(4, lam)), patch_floor_n)
    assert fast == slow
    assert len(fast) == 82 and any('"witness"' in text for text in fast)


def test_checks_are_decided_at_the_highest_home_floor():
    rep = Representation(5, F(2))
    report = run_all_suites(5, F(2), rep)
    floors = report.decided_at()
    assert set(floors) == set(range(6)) and floors[5] < len(report.checks) / 2
    by_name = {(c.equation, json.dumps(c.indices)): c.floor for c in report.checks}
    assert by_name[("R3", json.dumps({"family": "v", "n": 1, "law": "v g = f v"}))] == 2
    assert by_name[("locality", json.dumps({"commutator": "v0,w3"}))] == 4
    # a mutant's flipped generator lives at floor N, and so do the checks on it
    mutated = rep.with_sign_flip("v", 1, min(rep.gen("v", 1).support()))
    assert mutated._home("v", 1).ctx is rep.ctx and mutated._home("E", 1).ctx is rep.ctx
    assert all(mutated._home(kind, n) is rep._home(kind, n) for kind, n in path_algebra._generator_keys(5, "EF") if (kind, n) != ("E", 1))
    flipped = {(c.equation, json.dumps(c.indices)): c.floor for c in run_all_suites(5, F(2), mutated).checks}
    assert flipped[("R3", json.dumps({"family": "v", "n": 1, "law": "v g = f v"}))] == 5


def test_yang_baxter_expansion_matches_both_sides_multiplied_out():
    rep = Representation(5, F(2, 3))
    mutated = random_sign_mutation(rep, random.Random(3))[0]
    # sign flips keep a^2 and aba - bab zero; with E_1, E_2 in place of
    # v_1, v_2 neither coefficient vanishes and 6.4 fails at n = 0, 1, 2
    broken = unlinked(rep, {("v", 1): rep.tl("E", 1), ("v", 2): rep.tl("E", 2)})
    for subject in (rep, mutated, broken):
        fast = yang_baxter_check(5, F(2, 3), rep=subject)
        slow = reference_yang_baxter_check(5, F(2, 3), rep=subject)
        assert fast.to_json() == slow.to_json()
    assert fast.failures() and all(c.witness for c in fast.failures())
    # the points with s*t == 0 pass whatever the generators are; the other
    # four fail at each n where a coefficient does not vanish
    failed = {(c.indices["n"], c.indices["s"], c.indices["t"]) for c in fast.failures()}
    assert failed == {(n, s, t) for n in range(3) for s in "12" for t in "12"}


def test_suites_need_enough_floors():
    with pytest.raises(ValueError):
        verify_relation_suite(3, F(1))
    with pytest.raises(ValueError):
        verify_braiding_suite(3, F(1))


@pytest.mark.parametrize("suite", [verify_relation_suite, yang_baxter_check, verify_braiding_suite, run_all_suites])
def test_suites_refuse_a_representation_of_another_floor_or_lambda(suite):
    # a rep used to override both arguments: floor 3 at lambda 2 for a floor-6
    # lambda-1/4 call, or floor 2 below the suites' own floor-4 minimum
    for floor, lam, (rep_floor, rep_lam) in ((6, F(1, 4), (3, F(2))), (5, 1, (2, F(2))), (5, F(2), (5, F(1))), (4, "2", (5, F(2)))):
        message = rf"floor-{rep_floor} model at lambda {rep_lam}, not floor {floor} at lambda {lam}"
        with pytest.raises(ValueError, match=message):
            suite(floor, lam, rep=Representation(rep_floor, rep_lam))
    assert suite(4, "2/3", rep=Representation(4, F(2, 3))).ok


def test_suite_reports_match_the_frozen_floor_5_reports():
    # tests/golden_suites_floor5.json holds the reports of the floor-5
    # representation and of ten seeded mutants, as run before the suites
    # became one relation table: each mutant as the checks that differ from
    # the representation's report
    frozen = json.loads((Path(__file__).parent / "golden_suites_floor5.json").read_text(encoding="utf-8"))
    assert frozen["floor"] == 5 and list(frozen["lambdas"]) == ["1/4", "2/3"]
    for text, data in frozen["lambdas"].items():
        lam = F(text)
        rep = Representation(5, lam)
        assert len(data["mutants"]) == frozen["seeds"] == 10
        for item in data["mutants"]:
            mutated, info = random_sign_mutation(rep, random.Random(item["seed"]))
            assert info == item["flip"]
            expected = list(data["report"])
            for index, check in item["differs"].items():
                expected[int(index)] = check
            assert run_all_suites(5, lam, mutated).to_json() == json.dumps(expected)
        assert run_all_suites(5, lam, rep).to_json() == json.dumps(data["report"])


def test_yang_baxter():
    report = yang_baxter_check(5, F(1))
    assert report.ok
    # one row per n <= N - 2 and point (s, t) of the grid {0, 1, 2}^2
    points = [(c.indices["n"], c.indices["s"], c.indices["t"]) for c in report.checks]
    assert points == [(n, str(s), str(t)) for n in range(4) for s in range(3) for t in range(3)]


def test_braiding_suite_passes_for_several_lambdas():
    for lam in (F(1), F(1, 4)):
        report = verify_braiding_suite(5, lam)
        assert report.ok, (lam, report.failures()[:5])


def test_report_json_shape():
    report = yang_baxter_check(4, F(1))
    payload = json.loads(report.to_json())
    assert len(payload) == 27 and all(item["status"] == "pass" for item in payload)
    assert payload[0] == {"equation": "6.4", "indices": {"n": 0, "s": "0", "t": "0"}, "status": "pass"}
    assert payload[5]["indices"] == {"n": 0, "s": "1", "t": "2"}


def test_failing_projection_rows_name_a_witness():
    rep = Representation(4, F(2))
    mutated = rep.with_sign_flip("e", 2, min(rep.gen("e", 2).support()))
    witnesses = {(c.equation, json.dumps(c.indices)): c.witness for c in run_all_suites(4, F(2), mutated).failures()}
    # the flipped diagonal entry of e_2 is -1, where X^2 - X reads 1 - (-1)
    assert witnesses[("R1", json.dumps({"kind": "e", "n": 2}))] == {"row": 14, "col": 14, "value": "2+0*sqrt(2)"}
    # E_0(1 - e_2) is no longer self-adjoint: the least nonzero entry unlike its transpose
    dominance = witnesses[("dominance", json.dumps({"n": 0, "law": "E_n(1-e_n+2) projection"}))]
    assert dominance == {"row": 41, "col": 14, "value": "0+2/3*sqrt(2)"}
    assert all(w is not None for w in witnesses.values())


def test_projection_witness_reads_asymmetry_before_idempotence():
    ctx = path_context(2)
    lam = F(1)
    assert SparseOperator(ctx, lam, {(0, 0): 1, (3, 3): 1}).projection_witness() is None
    skew = SparseOperator(ctx, lam, {(0, 0): 1, (2, 1): 5, (7, 4): 3})
    assert skew.projection_witness() == {"row": 2, "col": 1, "value": "5+0*sqrt(1)"}
    double = SparseOperator(ctx, lam, {(1, 1): 2})
    assert double.projection_witness() == {"row": 1, "col": 1, "value": "2+0*sqrt(1)"}
    assert not skew.is_projection() and not double.is_projection()


def test_failed_check_carries_witness():
    rep = Representation(4, F(1))
    entry = sorted(rep.gen("g", 2).entries)[0]
    mutated = rep.with_sign_flip("g", 2, entry)
    report = verify_relation_suite(4, F(1), mutated)
    assert not report.ok
    failures = report.failures()
    assert any(c.witness is not None for c in failures)
    witness = next(c.witness for c in failures if c.witness)
    assert set(witness) == {"row", "col", "value"}


# ---------------------------------------------------------------------------
# mutation sensitivity and its provable limits


def find_entry(op, predicate):
    for (i, j) in sorted(op.entries):
        if predicate(op.ctx.paths[i], op.ctx.paths[j]):
            return (i, j)
    raise AssertionError("no entry matching the predicate")


def test_diagonal_sign_flips_are_always_caught():
    rep = Representation(4, F(1))
    for kind, n in (("e", 2), ("f", 0), ("g", 3)):
        entry = sorted(rep.gen(kind, n).entries)[0]
        mutated = rep.with_sign_flip(kind, n, entry)
        assert not verify_relation_suite(4, F(1), mutated).ok


def test_cross_pattern_isometry_flip_is_caught_by_locality():
    rep = Representation(5, F(1))
    # a v_1 target whose tail enters a v_3 diamond: detected by [v_1', v_3]
    entry = find_entry(
        rep.gen("v", 1),
        lambda t, s: t[3] == 2 * t[2] and t[4] == 4 * t[2] + 1,
    )
    mutated = rep.with_sign_flip("v", 1, entry)
    report = verify_relation_suite(5, F(1), mutated)
    assert not report.ok
    assert any(c.equation == "locality" for c in report.failures())


def test_pattern_avoiding_isometry_flip_is_invisible():
    # Sign flips of a diamond isometry are gauge transformations: the
    # mutated family still satisfies (R1)-(R4) verbatim (v'*v' == v*v), and
    # with an all-same-direction tail the flipped path meets no other
    # diamond, so even the far-floor commutators stay zero.  No identity in
    # the verified suites can see such a flip.
    rep = Representation(5, F(1))
    entry = find_entry(
        rep.gen("v", 1),
        lambda t, s: all(t[n + 1] == 2 * t[n] for n in range(2, 5)),
    )
    mutated = rep.with_sign_flip("v", 1, entry)
    assert run_all_suites(5, F(1), mutated).ok
    # the flip really changed the operator
    assert mutated.gen("v", 1) != rep.gen("v", 1)


def test_five_random_mutations_are_caught():
    rep = Representation(5, F(1))
    rng = random.Random(1)
    for _ in range(5):
        mutated, info = random_sign_mutation(rep, rng)
        assert not run_all_suites(5, F(1), mutated).ok, info


def crosses_far_diamond(path, s, floor):
    """Whether the path matches a v_r/w_r source or target pattern at some
    index r at distance >= 2 from s: exactly the condition under which a
    sign flip at this path is visible to a far-floor commutator."""
    for r in range(floor):
        if abs(r - s) < 2:
            continue
        base = path[r - 1] if r >= 1 else 0
        xi, xi_next = path[r], path[r + 1]
        if xi == 2 * base and xi_next == 2 * xi + 1:
            return True  # v_r source
        if xi == 2 * base + 1 and xi_next == 2 * xi - 1:
            return True  # v_r target
        if r >= 1 and xi == 2 * base and xi_next == 2 * xi - 1:
            return True  # w_r source
        if r >= 1 and xi == 2 * base - 1 and xi_next == 2 * xi + 1:
            return True  # w_r target
    return False


def locality_sees(rep_mutated):
    isos = [("v", n) for n in range(rep_mutated.floor)]
    isos += [("w", n) for n in range(1, rep_mutated.floor)]
    for k1, n1 in isos:
        for k2, n2 in isos:
            if n2 - n1 < 2:
                continue
            a, b = rep_mutated.gen(k1, n1), rep_mutated.gen(k2, n2)
            for x in (a, a.adjoint()):
                for y in (b, b.adjoint()):
                    if not (x * y - y * x).is_zero():
                        return True
    return False


def test_mutation_census_matches_pattern_criterion():
    # Exhaustive at floor 4: a flip of entry (t, s-path) in v_n/w_n is
    # detected iff the flipped path crosses another diamond at distance two
    # or more.  Detection lives entirely in the locality commutators; a
    # sample is cross-checked against the full suites.
    floor = 4
    rep = Representation(floor, F(1))
    kinds = [("v", n) for n in range(floor)] + [("w", n) for n in range(1, floor)]
    census = {"caught": 0, "invisible": 0}
    sample = []
    for kind, n in kinds:
        for entry in sorted(rep.gen(kind, n).entries):
            target = rep.ctx.paths[entry[0]]
            predicted = crosses_far_diamond(target, n, floor)
            mutated = rep.with_sign_flip(kind, n, entry)
            seen = locality_sees(mutated)
            assert seen == predicted, (kind, n, entry, target)
            census["caught" if seen else "invisible"] += 1
            if len(sample) < 6:
                sample.append((mutated, predicted))
    # both outcomes occur, and the full suites agree with the local detector
    assert census["caught"] > 0 and census["invisible"] > 0
    for mutated, predicted in sample:
        assert run_all_suites(floor, F(1), mutated).ok == (not predicted)
