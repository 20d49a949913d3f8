"""Quotient/ideal level sets, admissibility, and finite-depth topology checks."""

import itertools
import json
import time
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference
from fareybratteli import ideals
from fareybratteli.core import cf_convergents, height, label
from fareybratteli.ideals import (
    CFStream,
    IdealSpec,
    LevelSet,
    children,
    classify_admissible,
    complement,
    convergence_check,
    ideal_contains,
    ideal_join,
    ideal_levels,
    is_directed,
    is_hereditary,
    kernel_intersection,
    levelset_from_json,
    levelset_to_dot,
    levelset_to_json,
    parents_of,
    quotient_levels,
)

F = Fraction


def stream(*period):
    return CFStream(itertools.cycle(period))


def test_children():
    assert children(1, 0) == (0, 1)
    assert children(1, 1) == (1, 2, 3)
    assert children(2, 4) == (7, 8)
    assert children(0, 0) == (0, 1)
    with pytest.raises(ValueError):
        children(1, 3)


# ---------------------------------------------------------------------------
# quotient level sets


def test_quotient_one_third_plain():
    ls = quotient_levels(IdealSpec(F(1, 3)), 5)
    assert ls.retained == ((0, 1), (0, 1), (1,), (2,), (4,), (8,))
    for n in range(2, 6):
        (k,) = ls.retained[n]
        assert label(n, k) == F(1, 3)
    # single retained column of denominator 3: the quotient is a 3x3 block
    assert label(2, 1).denominator == 3


def test_quotient_one_third_plus_matches_two_column_figure():
    ls = quotient_levels(IdealSpec(F(1, 3), "plus"), 5)
    assert ls.retained == ((0, 1), (0, 1), (1, 2), (2, 3), (4, 5), (8, 9))
    assert ls.labels()[3] == (F(1, 3), F(2, 5))
    assert ls.labels()[4] == (F(1, 3), F(3, 8))
    assert ls.labels()[5] == (F(1, 3), F(4, 11))


def test_quotient_two_fifths_minus_matches_two_column_figure():
    ls = quotient_levels(IdealSpec(F(2, 5), "minus"), 5)
    assert ls.retained == ((0, 1), (0, 1), (1, 2), (2, 3), (5, 6), (11, 12))
    assert ls.labels()[3] == (F(1, 3), F(2, 5))
    assert ls.labels()[4] == (F(3, 8), F(2, 5))
    assert ls.labels()[5] == (F(5, 13), F(2, 5))


def test_quotient_endpoints():
    assert quotient_levels(IdealSpec(F(0)), 4).retained == ((0,),) * 5
    assert quotient_levels(IdealSpec(F(1)), 3).retained == ((1,), (2,), (4,), (8,))
    assert quotient_levels(IdealSpec(F(0), "plus"), 3).retained == ((0, 1),) * 4
    assert quotient_levels(IdealSpec(F(1), "minus"), 3).retained == ((0, 1), (1, 2), (3, 4), (7, 8))


def test_spec_validation():
    with pytest.raises(ValueError):
        IdealSpec(F(1), "plus")
    with pytest.raises(ValueError):
        IdealSpec(F(0), "minus")
    with pytest.raises(ValueError):
        IdealSpec(F(1, 3), "both")
    with pytest.raises(ValueError):
        IdealSpec(stream(1, 2), "plus")


def test_quotient_figure_chain_labels():
    # theta = [1,2,2,1,1,...]: the second quotient column walks through the
    # convergents 2/3, 5/7, 7/10, 12/17.
    ls = quotient_levels(IdealSpec(stream(1, 2, 2, 1)), 8)
    flat = {x for floor in ls.labels() for x in floor}
    for conv in cf_convergents((1, 2, 2, 1, 1)):
        assert conv in flat
    assert ls.labels()[2] == (F(2, 3), F(1, 1))
    assert ls.labels()[6] == (F(7, 10), F(12, 17))


def test_stream_exhaustion_is_an_error():
    with pytest.raises(ValueError):
        quotient_levels(IdealSpec(CFStream(iter([1, 2]))), 10)


def test_irrational_straddle_property():
    theta = stream(2)  # sqrt(2) - 1
    ls = quotient_levels(IdealSpec(theta), 12)
    lo, hi = theta.bounds()
    for n, (a, b) in enumerate(ls.retained):
        assert b == a + 1
        # the retained labels straddle every approximant of theta
        assert label(n, a) < lo and hi < label(n, b) or label(n, a) < hi and lo < label(n, b)


def test_effros_shen_two_column_labels():
    # Between consecutive first-appearance floors the quotient pair is
    # {p_n/q_n, (p_{n-1} + (m - h_n) p_n) / (q_{n-1} + (m - h_n) q_n)}.
    for period in ((1, 2, 2, 1), (2,)):
        ls = quotient_levels(IdealSpec(stream(*period)), 20)
        terms = []
        cycle = itertools.cycle(period)
        while sum(terms) <= 21:
            terms.append(next(cycle))
        convs = cf_convergents(terms)
        p = [0] + [c.numerator for c in convs]
        q = [1] + [c.denominator for c in convs]
        heights = [None] + [height(c) for c in convs]
        for n in range(1, len(convs)):
            h_n, h_next = heights[n], heights[n + 1]
            for m in range(h_n, min(h_next, 21)):
                want = {
                    F(p[n], q[n]),
                    F(p[n - 1] + (m - h_n) * p[n], q[n - 1] + (m - h_n) * q[n]),
                }
                assert set(ls.labels()[m]) == want, (period, n, m)


# ---------------------------------------------------------------------------
# ideal sides


def test_ideal_plus_quotient_partition():
    spec = IdealSpec(F(1, 3))
    quot = quotient_levels(spec, 8)
    side = ideal_levels(spec, 8)
    for n in range(9):
        assert sorted(quot.retained[n] + side.retained[n]) == list(range(2**n + 1))


def test_ideal_sides_hereditary_and_directed():
    for spec in (
        IdealSpec(F(1, 3)),
        IdealSpec(F(1, 3), "plus"),
        IdealSpec(F(2, 5), "minus"),
        IdealSpec(F(0)),
        IdealSpec(F(1)),
    ):
        side = ideal_levels(spec, 12)
        assert is_hereditary(side)
        assert is_directed(side)
    side = ideal_levels(IdealSpec(stream(1, 2, 2, 1)), 12)
    assert is_hereditary(side) and is_directed(side)


def test_non_hereditary_counterexample():
    only_11 = LevelSet(2, ((), (1,), ()))
    assert not is_hereditary(only_11)
    assert is_directed(only_11)  # no omitted vertex has all children retained


def test_full_diagram_hereditary_and_directed():
    full = LevelSet(5, tuple(tuple(range(2**n + 1)) for n in range(6)))
    assert is_hereditary(full)
    assert is_directed(full)


def test_ideal_lattice_relations_at_depth_12():
    depth = 12
    plain = ideal_levels(IdealSpec(F(1, 3)), depth)
    plus = ideal_levels(IdealSpec(F(1, 3), "plus"), depth)
    minus = ideal_levels(IdealSpec(F(1, 3), "minus"), depth)
    # the one-sided ideals sit inside the plain one, not conversely
    assert ideal_contains(plus, plain)
    assert ideal_contains(minus, plain)
    assert not ideal_contains(plain, plus)
    assert not ideal_contains(plain, minus)
    # the plain ideal is exactly their join; its quotient is the floorwise
    # intersection of the two quotient columns
    assert ideal_join([plus, minus]) == plain
    qplain = quotient_levels(IdealSpec(F(1, 3)), depth)
    qplus = quotient_levels(IdealSpec(F(1, 3), "plus"), depth)
    qminus = quotient_levels(IdealSpec(F(1, 3), "minus"), depth)
    assert kernel_intersection([qplus, qminus]) == qplain
    # kernel of the pair of ideal sides is itself an ideal diagram
    meet = kernel_intersection([plus, minus])
    assert is_hereditary(meet) and is_directed(meet)


def test_kernel_intersection_depth_mismatch():
    a = ideal_levels(IdealSpec(F(1, 3)), 4)
    b = ideal_levels(IdealSpec(F(1, 3)), 5)
    with pytest.raises(ValueError):
        kernel_intersection([a, b])


def test_complement_guard():
    deep = quotient_levels(IdealSpec(F(1, 3)), 40)
    assert len(deep.retained) == 41
    with pytest.raises(ValueError):
        complement(deep)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_complement_equals_the_set_difference(data):
    depth = data.draw(st.integers(0, 8))
    floors = tuple(tuple(sorted(data.draw(st.sets(st.integers(0, 2**n))))) for n in range(depth + 1))
    out = complement(LevelSet(depth, floors))
    assert out.retained == tuple(tuple(sorted(set(range(2**n + 1)) - set(idx))) for n, idx in enumerate(floors))


def test_ideal_side_keeps_a_few_runs_per_floor():
    spec = IdealSpec(stream(1, 2, 2, 1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        side = ideal_levels(spec, 18)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, f"ideal_levels at depth 18 keeps {kept} bytes"
    assert sum(map(len, side.retained)) == sum(2**n - 1 for n in range(19))


def _floors(data, depth):
    return tuple(tuple(sorted(data.draw(st.sets(st.integers(0, 2**n))))) for n in range(depth + 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_runs_floor_behaves_as_the_tuple_of_its_indices(data):
    n = data.draw(st.integers(0, 8))
    idx = tuple(sorted(data.draw(st.sets(st.integers(0, 2**n)))))
    floor = complement(LevelSet(n, ((),) * n + (idx,))).retained[n]
    expected = tuple(sorted(set(range(2**n + 1)) - set(idx)))
    assert isinstance(floor, ideals._Runs) and len(floor.ends) <= 2 * (len(idx) + 1)
    assert floor == expected and expected == floor and not floor != expected
    assert hash(floor) == hash(expected) and len(floor) == len(expected) and list(floor) == list(expected)
    size = len(expected)
    for i in range(-size - 2, size + 2):
        if -size <= i < size:
            assert floor[i] == expected[i]
        else:
            with pytest.raises(IndexError):
                floor[i]
    start, stop = data.draw(st.integers(-size - 2, size + 2)), data.draw(st.integers(-size - 2, size + 2))
    step = data.draw(st.sampled_from([None, 1, 2, -1, -3]))
    assert floor[start:stop:step] == expected[start:stop:step]
    for k in range(-1, 2**n + 2):
        assert bisect_left(floor, k) == bisect_left(expected, k)
        assert (k in floor) == (k in expected)
    assert idx + floor == idx + expected


def _hereditary_per_index(ls):
    return all(c in ls.retained[n + 1] for n in range(ls.depth) for k in ls.retained[n] for c in children(n, k))


def _directed_per_index(ls):
    return not any(
        k not in ls.retained[n] and all(c in ls.retained[n + 1] for c in children(n, k))
        for n in range(ls.depth)
        for k in range(2**n + 1)
    )


def _drawn_level_set(data, depth):
    if data.draw(st.booleans()):  # a generic level set
        return LevelSet(depth, _floors(data, depth))
    # an ideal side or its quotient, perhaps with one index toggled
    spec = IdealSpec(data.draw(st.fractions(0, 1, max_denominator=40)))
    ls = data.draw(st.sampled_from([quotient_levels, ideal_levels]))(spec, depth)
    if data.draw(st.booleans()):
        n = data.draw(st.integers(0, depth))
        floors = [tuple(floor) for floor in ls.retained]
        floors[n] = tuple(sorted(set(floors[n]) ^ {data.draw(st.integers(0, 2**n))}))
        ls = LevelSet(depth, tuple(floors))
    return ls


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hereditary_and_directed_match_the_per_index_oracle(data):
    depth = data.draw(st.integers(0, 8))
    ls = _drawn_level_set(data, depth)
    as_runs = complement(complement(ls))
    assert as_runs == ls and all(isinstance(floor, ideals._Runs) for floor in as_runs.retained)
    hereditary, directed = _hereditary_per_index(ls), _directed_per_index(ls)
    assert is_hereditary(ls) == is_hereditary(as_runs) == hereditary
    assert is_directed(ls) == is_directed(as_runs) == directed


def _per_index(floors):
    """Per-floor sets as the sorted tuples the set-building lattice operations returned."""
    return tuple(tuple(sorted(floor)) for floor in floors)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_run_algebra_matches_per_index_set_oracles(data):
    depth = data.draw(st.integers(0, 8))
    sides = []
    for _ in range(data.draw(st.integers(1, 3))):
        ls = _drawn_level_set(data, depth)
        sides.append(complement(complement(ls)) if data.draw(st.booleans()) else ls)
    full = [set(range(2**n + 1)) for n in range(depth + 1)]
    floors = [[set(ls.retained[n]) for ls in sides] for n in range(depth + 1)]
    outs = (
        (complement(sides[0]), [top - floor[0] for top, floor in zip(full, floors)]),
        (kernel_intersection(sides), [set.intersection(*floor) for floor in floors]),
        (ideal_join(sides), [set().union(*floor) for floor in floors]),
    )
    for out, expected in outs:
        expected = _per_index(expected)
        assert out.retained == expected and expected == out.retained
        assert all(isinstance(floor, ideals._Runs) for floor in out.retained)
        assert list(map(hash, out.retained)) == list(map(hash, expected))
    meet, join = outs[1][0], outs[2][0]
    for a, b in ((sides[0], sides[-1]), (sides[-1], sides[0]), (meet, sides[0]), (sides[0], join), (join, meet)):
        assert ideal_contains(a, b) == all(set(x) <= set(y) for x, y in zip(a.retained, b.retained))
    for ls in (*sides, meet, join):
        assert is_hereditary(ls) == _hereditary_per_index(ls)
        assert is_directed(ls) == _directed_per_index(ls)


def test_join_kernel_and_containment_of_ideal_sides_keep_a_few_runs():
    plus, minus = (ideal_levels(IdealSpec(F(1, 3), variant), 18) for variant in ("plus", "minus"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        join, meet, contained = ideal_join([plus, minus]), kernel_intersection([plus, minus]), ideal_contains(plus, minus)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, f"join, kernel and containment at depth 18 keep {kept} bytes"
    assert join == ideal_levels(IdealSpec(F(1, 3)), 18) and not contained
    quotients = [quotient_levels(IdealSpec(F(1, 3), variant), 18) for variant in ("plus", "minus")]
    assert meet == complement(ideal_join(quotients))


@pytest.mark.parametrize(
    "spec",
    [IdealSpec(F(1, 3)), IdealSpec(F(1, 3), "plus"), IdealSpec(F(1, 3), "minus"), IdealSpec(stream(1, 2, 2, 1))],
    ids=["plain", "plus", "minus", "stream"],
)
def test_both_checks_decide_a_depth_60_quotient_side_on_its_gaps(spec):
    quotient = quotient_levels(spec, 60)
    start = time.perf_counter()
    verdicts = is_hereditary(quotient), is_directed(quotient)
    assert time.perf_counter() - start < 1.0
    assert verdicts == (False, True)


def test_an_ideal_side_exports_as_its_floors_built_as_tuples():
    for spec in (IdealSpec(F(1, 3), "plus"), IdealSpec(F(2, 5)), IdealSpec(stream(2, 1, 3))):
        side = ideal_levels(spec, 9)
        as_tuples = LevelSet(9, tuple(tuple(floor) for floor in side.retained))
        assert levelset_to_json(side) == levelset_to_json(as_tuples)
        assert side.labels() == as_tuples.labels()


@pytest.mark.parametrize("ends", [(0, 2, 2, 4), (3, 1), (1, 1), (0, 1, 0, 2), (2, 6), (-1, 2)])
def test_runs_that_are_not_maximal_or_leave_the_floor_are_refused(ends):
    with pytest.raises(ValueError, match="floor 2 ind"):
        LevelSet(2, ((0,), (1,), ideals._Runs(ends)))


@pytest.mark.parametrize("floor", [(1, 0), (0, 0), (0, 2, 1), (1, 1, 2), (2, 2)])
def test_unsorted_or_repeated_indices_are_refused(floor):
    with pytest.raises(ValueError, match="floor 2 indices must be sorted and unique"):
        LevelSet(2, ((0,), (1,), floor))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: quotient_levels(IdealSpec(CFStream(iter([1, 0, 2]))), 3),
            ValueError,
            "continued-fraction terms must be positive, got 0",
        ),
        (lambda: IdealSpec(F(3, 2)), ValueError, "theta 3/2 outside [0, 1]"),
        (lambda: LevelSet(1, ((0,),)), ValueError, "retained must list floors 0..depth"),
        # floor 0 holds only 0 and 1, so the admissibility automaton never sees another index there
        (lambda: classify_admissible(LevelSet(0, ((1, 2),))), ValueError, "floor 0 index out of range"),
    ],
    ids=["cf-digit-0", "theta-above-1", "floor-count", "floor-0-index"],
)
def test_guards_refuse_with_one_line_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_every_floor_0_level_set_starts_the_automaton():
    for floor in ((0,), (1,), (0, 1)):
        assert classify_admissible(LevelSet(0, (floor,))).admissible


def test_deep_stream_walk_keeps_invariants():
    # full advertised depth with an irrational stream: indices near 2**60,
    # nested straddling intervals all the way down
    theta = stream(1, 2, 2, 1)
    ls = quotient_levels(IdealSpec(theta), 60)
    previous = None
    for n, (a, b) in enumerate(ls.retained):
        assert b == a + 1 and 0 <= a and b <= 2**n
        left, right = label(n, a), label(n, b)
        # the stream itself certifies the strict straddle at every floor
        assert theta.compare(left) == 1 and theta.compare(right) == -1
        if previous is not None:
            assert previous[0] <= left and right <= previous[1]
        previous = (left, right)
    with pytest.raises(ValueError):
        quotient_levels(IdealSpec(theta), 61)


def _walk(quotient, spec_of):
    """The level set, or the ValueError text, and the digits pulled."""
    theta, variant = spec_of()
    try:
        result = quotient(IdealSpec(theta, variant), 60)
    except ValueError as exc:
        result = str(exc)
    return result, len(theta.terms) if isinstance(theta, CFStream) else None


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=10**6) | st.fractions(0, 1),
    st.sampled_from(["plain", "plus", "minus"]),
)
def test_quotient_walk_on_ints_matches_the_fraction_walk_on_rationals(theta, variant):
    if (variant, theta) in (("plus", 1), ("minus", 0)):
        return
    spec_of = lambda: (theta, variant)  # noqa: E731
    assert _walk(quotient_levels, spec_of) == _walk(tree_reference.quotient_levels, spec_of)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=70))
def test_quotient_walk_on_ints_matches_the_fraction_walk_on_streams(terms):
    # prefixes of term sum 60 or less can run dry before floor 60, and both
    # walks must refuse them after pulling the same digits
    spec_of = lambda: (CFStream(iter(terms)), "plain")  # noqa: E731
    assert _walk(quotient_levels, spec_of) == _walk(tree_reference.quotient_levels, spec_of)


def test_stream_bounds_and_comparisons_read_the_convergent_interval():
    theta = CFStream(iter([2, 3, 1, 4]))  # 19/43 once every digit is read
    assert theta.bounds() == (F(0), F(1))
    assert theta.compare(F(1, 3)) == 1 and theta.terms == [2]
    assert theta.bounds() == (F(1, 3), F(1, 2))  # one digit: the convergent 1/2 is the upper end
    assert theta.compare_pair(3, 7) == 1 and theta.terms == [2, 3]
    assert theta.bounds() == (F(3, 7), F(4, 9))  # two digits: the convergent 3/7 is the lower end
    assert theta.compare_pair(4, 9) == -1 and theta.terms == [2, 3]


# ---------------------------------------------------------------------------
# admissibility


def test_computed_quotients_are_admissible():
    specs = [
        IdealSpec(F(1, 3)),
        IdealSpec(F(1, 3), "plus"),
        IdealSpec(F(1, 3), "minus"),
        IdealSpec(F(2, 5), "minus"),
        IdealSpec(F(3, 7), "plus"),
        IdealSpec(F(1, 2)),
        IdealSpec(F(0)),
        IdealSpec(F(0), "plus"),
        IdealSpec(F(1)),
        IdealSpec(F(1), "minus"),
    ]
    for spec in specs:
        report = classify_admissible(quotient_levels(spec, 20))
        assert report.admissible, spec
    assert classify_admissible(quotient_levels(IdealSpec(stream(1, 2, 2, 1)), 20)).admissible


def test_admissible_tags():
    assert classify_admissible(quotient_levels(IdealSpec(F(1, 3)), 10)).tag == "rational-plain"
    # A pair window is never attributable: the plus construction of its final
    # left label reproduces it exactly, as do minus and irrational targets.
    plus_window = quotient_levels(IdealSpec(F(1, 3), "plus"), 10)
    assert classify_admissible(plus_window).tag is None
    left_final = label(10, plus_window.retained[10][0])
    assert quotient_levels(IdealSpec(left_final, "plus"), 10) == plus_window
    minus_window = quotient_levels(IdealSpec(F(2, 5), "minus"), 10)
    assert classify_admissible(minus_window).tag is None
    right_final = label(10, minus_window.retained[10][1])
    assert quotient_levels(IdealSpec(right_final, "minus"), 10) == minus_window
    # and conversely the minus window is also a plus window for another target
    other = label(10, minus_window.retained[10][0])
    assert quotient_levels(IdealSpec(other, "plus"), 10) == minus_window
    assert classify_admissible(quotient_levels(IdealSpec(stream(1, 2, 2, 1)), 20)).tag is None


def test_inadmissible_singleton_jump():
    # singleton {1} must double to {2}; jumping to {3} is not allowed
    ls = LevelSet(2, ((0, 1), (1,), (3,)))
    report = classify_admissible(ls)
    assert not report.admissible
    assert report.failure_floor == 2


def test_inadmissible_wide_floor():
    ls = LevelSet(1, ((0, 1), (0, 1, 2)))
    report = classify_admissible(ls)
    assert not report.admissible


def test_nested_intervals_contain_theta():
    theta = F(2, 5)
    report = classify_admissible(quotient_levels(IdealSpec(theta, "minus"), 15))
    previous = None
    for lo, hi in report.intervals:
        assert lo <= theta <= hi
        if previous is not None:
            assert previous[0] <= lo and hi <= previous[1]
        previous = (lo, hi)


def admissible_sequences(depth):
    """DFS over the transition rules, yielding every quotient-form sequence."""
    starts = [((0,),), ((1,),), ((0, 1),)]
    stack = [(s, 0) for s in starts]
    while stack:
        seq, n = stack.pop()
        if n == depth:
            yield seq
            continue
        cur = seq[-1]
        a = cur[0]
        if len(cur) == 1:
            nexts = [(2 * a,)]
        else:
            nexts = [(2 * a, 2 * a + 1), (2 * a + 1, 2 * a + 2), (2 * a + 1,)]
        for nxt in nexts:
            stack.append((seq + (nxt,), n + 1))


def test_depth6_enumeration_matches_automaton_count():
    depth = 6
    found = list(admissible_sequences(depth))
    for seq in found:
        assert classify_admissible(LevelSet(depth, seq)).admissible
    # abstract automaton: singleton -> singleton; pair -> 2 pairs + 1 singleton
    pair_ways = 1
    for _ in range(depth):
        pair_ways = 2 * pair_ways + 1
    assert len(found) == 2 + pair_ways == 129
    assert len(set(found)) == len(found)


# ---------------------------------------------------------------------------
# parents


def test_parents_examples():
    assert parents_of(F(1, 2)) == parents_of(F(1, 2)).__class__(F(0), F(1))
    pair = parents_of(F(2, 5))
    assert (pair.left, pair.right) == (F(1, 3), F(1, 2))
    pair = parents_of(F(3, 7))
    assert (pair.left, pair.right) == (F(2, 5), F(1, 2))
    with pytest.raises(ValueError):
        parents_of(F(0))


def test_parents_mismatch_is_an_exception(monkeypatch):
    # a real exception, not an assert that python -O would drop
    monkeypatch.setattr(ideals, "mediant", lambda x, y: F(0))
    with pytest.raises(RuntimeError, match="mediant"):
        parents_of(F(2, 5))


def test_parents_heights_drop():
    for q in range(2, 40):
        for p in range(1, q):
            if F(p, q).denominator != q:
                continue
            x = F(p, q)
            pair = parents_of(x)
            assert pair.left < x < pair.right or pair.left == 0
            assert pair.left < pair.right
            assert height(pair.left) < height(x)
            assert height(pair.right) < height(x)


def test_gap_bounds():
    # Pair gap below a repeated label: r(n, 2j+1) - r(n, 2j-1) < 2/q^2, and
    # the k-step bound below a first appearance: max one-sided gap < 1/(k q^2).
    for q in range(2, 31):
        for p in range(1, q):
            x = F(p, q)
            if x.denominator != q:
                continue
            n0 = height(x)
            import fareybratteli.core as core

            qm = core.question_mark(x)
            j0 = qm.numerator * (2**n0 // qm.denominator)
            for k in range(1, 11):
                n, j = n0 + k, 2**k * j0
                left, mid, right = label(n, j - 1), label(n, j), label(n, j + 1)
                assert mid == x
                assert right - left < F(2, q * q)
                assert max(right - x, x - left) < F(1, k * q * q)


# ---------------------------------------------------------------------------
# convergence


def test_convergence_check_positive():
    thetas = [F(1, 2) + F(1, m + 10) for m in range(1, 41)]
    report = convergence_check(thetas, F(1, 2), 10)
    assert report.converged
    assert all(pos is not None for pos in report.settled_from)


def test_convergence_check_negative():
    thetas = [F(1, 3)] * 20
    report = convergence_check(thetas, F(1, 2), 10)
    assert not report.converged
    # floor 0 always meets; deep floors never do
    assert report.settled_from[0] == 0
    assert report.settled_from[-1] is None


def test_convergence_matches_numeric_limit():
    import random

    rng = random.Random(7)
    for _ in range(5):
        target = F(rng.randrange(1, 7), 7)
        # fast geometric approach so every floor <= 8 settles inside the window
        converging = [target + F((-1) ** m, 2 ** (m + 2)) for m in range(1, 30)]
        assert convergence_check(converging, target, 8).converged
        away = F(1, 5) if target != F(1, 5) else F(2, 5)
        staying = [away] * 30
        assert not convergence_check(staying, target, 8).converged


# ---------------------------------------------------------------------------
# serialisation


def test_json_round_trip():
    ls = quotient_levels(IdealSpec(F(1, 3), "plus"), 6)
    text = levelset_to_json(ls)
    assert levelset_from_json(text) == ls
    payload = json.loads(text)
    assert payload["depth"] == 6
    assert payload["retained"][2] == [1, 2]
    assert payload["labels"][2] == ["1/3", "1/2"]


def test_json_rejects_inconsistent_labels():
    ls = quotient_levels(IdealSpec(F(1, 3)), 3)
    payload = json.loads(levelset_to_json(ls))
    payload["labels"][2] = ["1/2"]
    with pytest.raises(ValueError):
        levelset_from_json(json.dumps(payload))


def test_dot_export():
    ls = quotient_levels(IdealSpec(F(1, 3)), 4)
    dot = levelset_to_dot(ls)
    assert dot.startswith("digraph")
    assert '"v2_1" [label="1/3", shape=box' in dot
    assert '"v2_0" [label="0", shape=circle]' in dot
    assert '"v0_0" -> "v1_0"' in dot
    with pytest.raises(ValueError):
        levelset_to_dot(quotient_levels(IdealSpec(F(1, 3)), 11))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"retained": [[0, 1]]}', "needs the key 'depth'"),
        ('{"depth": 0}', "needs the key 'retained'"),
        ('{"depth": 0, "retained": 7}', "malformed level set"),
        ('{"depth": 0, "retained": [3]}', "malformed level set"),
        ('{"depth": "0", "retained": [[0, 1]]}', "malformed level set"),
        ('{"depth": 1, "retained": [[0], [1.5]]}', "must be ints"),
        ('{"depth": 1, "retained": [[true], [2]]}', "must be ints"),
        ('{"depth": 1.0, "retained": [[0], [1]]}', "must be ints"),
        ('{"depth": true, "retained": [[0], [1]]}', "must be ints"),
        ("[0]", "JSON object"),
        pytest.param("[" * 100000, "nests too deeply", id="nested-100000"),
    ],
)
def test_json_rejects_missing_or_ill_typed_keys(text, message):
    with pytest.raises(ValueError, match=message):
        levelset_from_json(text)


@st.composite
def level_sets(draw, max_depth=8):
    """Random level sets to depth max_depth: each floor keeps a few indices
    or all but a few, so omitted vertices with fully retained children occur."""
    depth = draw(st.integers(0, max_depth))
    floors = []
    for n in range(depth + 1):
        picked = draw(st.sets(st.integers(0, 2**n), max_size=8))
        if draw(st.booleans()):
            picked = set(range(2**n + 1)) - picked
        floors.append(tuple(sorted(picked)))
    return LevelSet(depth, tuple(floors))


@settings(max_examples=300, deadline=None)
@given(level_sets())
def test_is_directed_matches_reference(ls):
    assert is_directed(ls) == tree_reference.is_directed(ls)


@st.composite
def closed_level_sets(draw):
    """Random level sets to depth 8 closed under children, so hereditary;
    with one retained index then dropped from a floor below the top, the
    result is usually not."""
    depth = draw(st.integers(0, 8))
    floors = [set(draw(st.sets(st.integers(0, 2**n), max_size=4))) for n in range(depth + 1)]
    for n in range(depth):
        floors[n + 1].update(c for k in floors[n] for c in children(n, k))
    closed = LevelSet(depth, tuple(tuple(sorted(f)) for f in floors))
    candidates = [(n, k) for n in range(1, depth + 1) for k in floors[n]]
    if candidates and draw(st.booleans()):
        n, k = draw(st.sampled_from(candidates))
        floors[n].discard(k)
    return closed, LevelSet(depth, tuple(tuple(sorted(f)) for f in floors))


@settings(max_examples=300, deadline=None)
@given(closed_level_sets(), level_sets())
def test_is_hereditary_matches_reference(pair, ls):
    closed, dropped = pair
    assert is_hereditary(closed) and tree_reference.is_hereditary(closed)
    assert is_hereditary(dropped) == tree_reference.is_hereditary(dropped)
    assert is_hereditary(ls) == tree_reference.is_hereditary(ls)


def test_is_hereditary_catches_a_dropped_child_of_each_parity():
    side = ideal_levels(IdealSpec(stream(1, 2, 3)), 8)
    assert is_hereditary(side)
    # an ideal side retains 2k and 2k +- 1 below every retained k; drop one of each
    n = 6
    k = side.retained[n][len(side.retained[n]) // 2]
    for child in children(n, k):
        floors = list(side.retained)
        floors[n + 1] = tuple(j for j in floors[n + 1] if j != child)
        broken = LevelSet(side.depth, tuple(floors))
        assert not is_hereditary(broken) and not tree_reference.is_hereditary(broken), child


def _walked_labels(ls):
    return [[str(label(n, k)) for k in idx] for n, idx in enumerate(ls.retained)]


@settings(max_examples=200, deadline=None)
@given(level_sets(max_depth=10))
def test_exported_labels_of_any_level_set_match_the_label_walk(ls):
    # all-but-a-few floors label most odd indices as mediants of the floor
    # above; a-few floors fall back to label
    want = _walked_labels(ls)
    assert json.loads(levelset_to_json(ls))["labels"] == want
    assert [[str(x) for x in floor] for floor in ls.labels()] == want
    assert levelset_from_json(levelset_to_json(ls)) == ls


@st.composite
def quotient_specs(draw):
    """Every quotient variant: plain, plus and minus at a rational theta
    (the endpoints included), and plain at an irrational prefix deep
    enough for depth 60."""
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(1, 9), min_size=1, max_size=70).filter(lambda t: sum(t) > 60))
        return IdealSpec(CFStream(iter(terms)))
    theta = draw(st.sampled_from([F(0), F(1)]) | st.fractions(0, 1, max_denominator=10**6))
    variants = [v for v in ("plain", "plus", "minus") if (v, theta) not in (("plus", 1), ("minus", 0))]
    return IdealSpec(theta, draw(st.sampled_from(variants)))


@settings(max_examples=200, deadline=None)
@given(quotient_specs())
def test_exported_labels_of_every_quotient_variant_match_the_label_walk(spec):
    ls = quotient_levels(spec, 60)
    assert json.loads(levelset_to_json(ls))["labels"] == _walked_labels(ls)


@settings(max_examples=40, deadline=None)
@given(level_sets(), quotient_specs(), st.integers(0, 10))
def test_dot_export_matches_the_label_reference(ls, spec, depth):
    assert levelset_to_dot(ls) == tree_reference.levelset_to_dot(ls)
    quotient = quotient_levels(spec, depth)
    assert levelset_to_dot(quotient) == tree_reference.levelset_to_dot(quotient)


def test_ideal_spec_converts_ints_and_refuses_other_types():
    assert IdealSpec(0).theta == 0 and type(IdealSpec(1).theta) is F
    assert quotient_levels(IdealSpec(0), 3) == quotient_levels(IdealSpec(F(0)), 3)
    assert quotient_levels(IdealSpec(1, "minus"), 3) == quotient_levels(IdealSpec(F(1), "minus"), 3)
    for bad in (0.1, 0.0, True, False, "1/2", None, [F(1, 2)]):
        with pytest.raises(ValueError, match="theta must be a Fraction, an int or a CFStream"):
            IdealSpec(bad)
