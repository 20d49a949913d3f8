"""Memoryless-tree moves, branch sets, and the trace condition."""

import json
import tracemalloc
from collections.abc import Mapping, Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference
from goldens import TRACE_SPECS
from fareybratteli import core, traces
from fareybratteli.core import cf_decode, cf_encode, height, label, totient_sieve
from fareybratteli.traces import (
    MAX_DEPTH,
    STAR,
    TraceCandidate,
    TraceReport,
    alpha_from_phi,
    candidate_from_json,
    cf_of_vertex,
    check_trace,
    geometric_candidate,
    move_left,
    move_left_cf,
    move_right,
    move_right_cf,
    neighbor_set,
    table_candidate,
    tree_vertices,
    vertex_of_cf,
    zero_candidate,
)

F = Fraction


def test_moves_in_coordinates():
    assert move_right(STAR) == (0, 1)
    assert label(0, 1) == 1
    assert move_left((0, 1)) == (1, 1)
    assert move_left((1, 1)) == (2, 1)
    assert move_right((1, 1)) == (2, 3)
    with pytest.raises(ValueError):
        move_left(STAR)
    with pytest.raises(ValueError):
        move_right((0, 1))
    with pytest.raises(ValueError):
        move_left((1, 2))  # even index is not a tree vertex


def test_moves_on_continued_fractions():
    assert move_left_cf((2,)) == (3,)  # 1/2 -> 1/3
    assert move_right_cf((2,)) == (1, 2)  # 1/2 -> 2/3
    assert move_right_cf(()) == (1,)  # root label 0 -> 1
    assert move_left_cf((1,)) == (2,)  # 1 -> 1/2
    with pytest.raises(ValueError):
        move_right_cf((1,))


def test_cf_moves_agree_with_coordinate_moves():
    for v in tree_vertices(7):
        if v == STAR:
            assert cf_decode(move_right_cf(cf_of_vertex(v))) == label(0, 1)
            continue
        n, k = v
        assert cf_decode(move_left_cf(cf_of_vertex(v))) == label(n + 1, 2 * k - 1)
        if k < 2**n:
            assert cf_decode(move_right_cf(cf_of_vertex(v))) == label(n + 1, 2 * k + 1)


def test_cf_of_vertex_bijection():
    vertices = tree_vertices(8)
    labels = {cf_of_vertex(v) for v in vertices}
    assert len(labels) == len(vertices)
    values = {cf_decode(t) for t in labels}
    expected = {F(0)}
    for q in range(1, 200):
        for p in range(0 if q == 1 else 1, q + 1):
            x = F(p, q)
            if 0 < x <= 1 and height(x) <= 8:
                expected.add(x)
    assert values == expected
    for v in vertices:
        assert vertex_of_cf(cf_of_vertex(v)) == v
    assert vertex_of_cf(cf_encode(F(2, 5))) == (3, 3)


def test_neighbor_sets():
    assert neighbor_set(STAR, 3) == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert neighbor_set((0, 1), 3) == [(1, 1), (2, 3), (3, 7)]
    assert neighbor_set((1, 1), 4) == sorted([(2, 1), (3, 3), (4, 7), (2, 3), (3, 5), (4, 9)])


def test_neighbor_labels():
    # branch labels of the root are 1/k; of (0,1) are k/(k+1)
    assert [label(*w) for w in neighbor_set(STAR, 5)] == [F(1, j) for j in range(1, 7)]
    assert [label(*w) for w in neighbor_set((0, 1), 5)] == [F(j, j + 1) for j in range(1, 6)]


def test_neighbor_set_matches_cf_families():
    # C(v) in label form: {[.., a_t - 1, 1, j]} and {[.., a_t, j]}, j >= 1
    for v in tree_vertices(4):
        if v in (STAR, (0, 1)):
            continue
        terms = cf_of_vertex(v)
        got = {cf_of_vertex(w) for w in neighbor_set(v, 8)}
        expected = set()
        j = 1
        while True:
            one = terms[:-1] + (terms[-1] - 1, 1, j) if terms[-1] > 1 else (1, j)
            two = terms + (j,)
            new = {cf_encode(cf_decode(one)), cf_encode(cf_decode(two))}
            candidates = {t for t in new if sum(t) - 1 <= 8}
            if not candidates and j > 1:
                break
            expected |= candidates
            j += 1
        assert got == expected, v


# ---------------------------------------------------------------------------
# the trace condition


def test_zero_candidate_is_a_trace():
    report = check_trace(zero_candidate(), 10)
    assert report.valid and report.exact


def test_geometric_quarter_is_a_trace():
    candidate = geometric_candidate(F(1, 4))
    report = check_trace(candidate, 10)
    assert report.valid and report.exact
    # frozen closed-form branch masses: 1/3 at the root, (2/3) * 4**-(n+1) off it
    by_vertex = {v: mass for v, _, mass in report.rows}
    assert by_vertex[STAR] == F(1, 3)
    assert by_vertex[(2, 3)] == F(2, 3) * F(1, 4) ** 3
    assert by_vertex[(0, 1)] == F(1, 12)


def test_geometric_half_is_rejected_at_the_first_two_branch_vertex():
    candidate = geometric_candidate(F(1, 2))
    report = check_trace(candidate, 10)
    assert not report.valid and report.exact
    assert report.first_violation == (1, 1)
    by_vertex = {v: (value, mass) for v, value, mass in report.rows}
    # the root and (0,1) hold with equality; every two-branch vertex fails
    assert by_vertex[STAR] == (F(1), F(1))
    assert by_vertex[(0, 1)] == (F(1, 2), F(1, 2))
    for v, (value, mass) in by_vertex.items():
        if v in (STAR, (0, 1)):
            continue
        assert mass == 2 * value


def _table(ratio, zeroed=None):
    entries = {(n, k): ratio ** (n + 1) for n in range(6) for k in range(1, 2**n + 1, 2)}
    entries.pop(zeroed, None)
    return table_candidate(entries, F(0))


def _many_denominator_table():
    """Floors 0..11 near the geometric 1/4 weights, each of the 4095
    vertices with its own prime factor in the denominator."""
    phi = totient_sieve(40000)
    primes = iter([p for p in range(2, 40001) if phi[p] == p - 1])
    entries = {}
    for n in range(12):
        for k in range(1, 2**n + 1, 2):
            entries[(n, k)] = F(1, 4 ** (n + 1)) - F(1, next(primes) * 4 ** (n + 2))
    return table_candidate(entries, F(0))


def _with_negative_phi(at):
    geometric = geometric_candidate(F(1, 4))
    return TraceCandidate(lambda v: F(-1, 9) if v == at else geometric.phi(v), geometric.tail)


def _all_distinct(*negative_at):
    """phi(n, k) = 4^-(n+1) - 1/((k+2) 4^(n+3)): no two vertices share a
    weight, so no operand tuple of a floor repeats; -1/9 and -1/10 at the
    vertices given."""

    def phi(v):
        if v == STAR:
            return F(1)
        if v in negative_at:
            return F(-1, 9 + negative_at.index(v))
        n, k = v
        return F(1, 4 ** (n + 1)) - F(1, (k + 2) * 4 ** (n + 3))

    return TraceCandidate(phi)


def _fresh_objects():
    """The geometric 1/4 weights and tails, each call a new ``Fraction``:
    equal weights are never the same object, so every floor takes the
    value-keyed table and none is passed as one repeated object."""
    geometric = geometric_candidate(F(1, 4))
    return TraceCandidate(lambda v: F(geometric.phi(v)), lambda v, depth: F(geometric.tail(v, depth)))


def _negative_floor(n):
    """The geometric 1/4 weights with floor n all one negative object."""
    geometric = geometric_candidate(F(1, 4))
    negative = F(-1, 9)
    return TraceCandidate(lambda v: negative if v[0] == n else geometric.phi(v), geometric.tail)


def _mixed_floors(tailed=True):
    """Floors of every kind the pair kernels tell apart: one shared object
    (n % 4 == 0), equal weights as distinct objects (n % 4 == 1), a shared
    default with one entry of its own (n % 4 == 2), and all distinct
    (n % 4 == 3); the tail is one object per floor, or a new one per call."""
    shared = {n: F(1, 4 ** (n + 1)) for n in range(MAX_DEPTH + 1)}

    def phi(v):
        if v == STAR:
            return F(1)
        n, k = v
        kind = n % 4
        if kind == 0:
            return shared[n]
        if kind == 1:
            return F(1, 4 ** (n + 1))
        if kind == 2:
            return F(1, 5 ** (n + 1)) if k == 2**n - 1 else shared[n]
        return F(1, 4 ** (n + 1)) - F(1, (k + 2) * 4 ** (n + 3))

    def tail(v, depth):
        return shared[depth] if depth % 2 else F(v[1], 4 ** (depth + 2))

    return TraceCandidate(phi, tail if tailed else None)


ONE_PASS_CANDIDATES = {
    **{f"geometric {r}": geometric_candidate(r) for r in (F(1, 4), F(2, 7), F(3, 10), F(1, 3), F(2, 5), F(3, 7))},
    "table valid": _table(F(1, 4)),
    "table zeroed": _table(F(2, 7), zeroed=(2, 1)),
    "table many denominators": _many_denominator_table(),
    "table with zero floors between its entries": table_candidate({(0, 1): F(1, 4), (1, 1): F(1, 16), (4, 3): F(1, 64)}),
    "zero": zero_candidate(),
    "no tail": TraceCandidate(geometric_candidate(F(1, 5)).phi, None),
    "negative phi": _with_negative_phi((3, 5)),
    "all distinct": _all_distinct(),
    # (4, 5), (4, 7) and (4, 9) sit at positions 2, 3 and 4 of floor 4's
    # odd vertices; the first negative one must be reported
    "all distinct, negative at an odd position": _all_distinct((4, 7)),
    "all distinct, negative at an even position": _all_distinct((4, 9)),
    "all distinct, negative at an odd, then an even position": _all_distinct((4, 7), (4, 9)),
    "all distinct, negative at an even, then an odd position": _all_distinct((4, 5), (4, 7)),
    "equal weights as distinct objects": _fresh_objects(),
    "one negative object on floor 0": _negative_floor(0),
    "one negative object on floor 3": _negative_floor(3),
    "mixed floors": _mixed_floors(),
    "mixed floors, no tail": _mixed_floors(tailed=False),
}


def _outcome(fn, *args):
    """The result, with a mapping as its item list so that order counts, or
    the message of the ValueError raised."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return list(result.items()) if isinstance(result, Mapping) else result


@pytest.mark.parametrize("name", sorted(ONE_PASS_CANDIDATES))
def test_one_pass_check_matches_branch_set_sums(name):
    candidate = ONE_PASS_CANDIDATES[name]
    for depth in range(1, 13):
        got = _outcome(check_trace, candidate, depth)
        assert got == _outcome(tree_reference.check_trace, candidate, depth), depth
        if isinstance(got, TraceReport):
            assert all(type(value) is F and type(mass) is F for _, value, mass in got.rows)


@pytest.mark.parametrize("name", sorted(ONE_PASS_CANDIDATES))
def test_alpha_pair_kernel_matches_fraction_reference(name):
    candidate = ONE_PASS_CANDIDATES[name]
    for depth in range(13):
        got = _outcome(alpha_from_phi, candidate, depth)
        assert got == _outcome(tree_reference.alpha_from_phi, candidate, depth), depth
        assert got[0] == "ValueError" or all(type(value) is F for _, value in got)


@pytest.mark.parametrize("name", sorted(ONE_PASS_CANDIDATES))
def test_alpha_equals_the_reference_dict(name):
    candidate = ONE_PASS_CANDIDATES[name]
    for depth in range(13):
        try:
            want = tree_reference.alpha_from_phi(candidate, depth)
        except ValueError:
            continue
        alpha = alpha_from_phi(candidate, depth)
        assert alpha == want and want == alpha, depth
        assert len(alpha) == 1 + sum(2**n + 1 for n in range(depth + 1)) == len(want)


def test_alpha_is_a_read_only_mapping_of_the_vertices_only():
    depth = 5
    alpha = alpha_from_phi(geometric_candidate(F(1, 4)), depth)
    assert isinstance(alpha, Mapping) and not isinstance(alpha, dict)
    assert not hasattr(alpha, "__setitem__")
    assert alpha[STAR] == 1 and alpha.get((2, 3)) == F(1, 64) and (depth, 2**depth) in alpha
    assert min(alpha.values()) >= 0 and list(alpha.values()) == [alpha[v] for v in alpha]
    not_vertices = [(-1, 1), (-1, -1), (-2, 0), (depth + 1, 0), (depth + 1, 1), "ab", 3, None, [0, 1], (0, 1, 0)]
    for n in range(depth + 1):
        not_vertices += [(n, -1), (n, 2**n + 1), (n, -(2**n) - 1), (F(n), 0), (float(n), 1)]
    for key in not_vertices:
        with pytest.raises(KeyError):
            alpha[key]
        assert key not in alpha and alpha.get(key) is None, key


def test_alpha_keeps_one_list_per_floor():
    # one pointer per vertex in one list per floor; the dict of (n, k) keys kept 15.8 MB
    tracemalloc.start()
    try:
        alpha = alpha_from_phi(geometric_candidate(F(1, 4)), 16)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(alpha) == 1 + sum(2**n + 1 for n in range(17))
    assert kept < 4 << 20


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(ONE_PASS_CANDIDATES)), depth=st.integers(1, 10))
def test_rows_are_a_read_only_view_equal_to_the_reference_tuple(name, depth):
    candidate = ONE_PASS_CANDIDATES[name]
    try:
        want = tree_reference.check_trace(candidate, depth).rows
    except ValueError:
        return
    rows = check_trace(candidate, depth).rows
    assert type(want) is tuple and isinstance(rows, Sequence) and not isinstance(rows, tuple)
    assert not hasattr(rows, "__setitem__")
    assert rows == want and want == rows and not rows != want and not want != rows
    assert rows == check_trace(candidate, depth).rows and rows != want[:-1] and rows != list(want)
    assert hash(rows) == hash(want) and len(rows) == len(want) == 2 ** (depth - 1) + 1
    assert list(rows) == list(want) and list(reversed(rows)) == list(reversed(want))
    assert [rows[i] for i in range(len(want))] == [rows[i - len(want)] for i in range(len(want))] == list(want)
    assert [rows.position(v) for v, _, _ in want] == list(range(len(want)))
    assert all(type(value) is F and type(mass) is F for _, value, mass in rows)
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            rows[i]


def test_rows_refuse_vertices_without_a_row():
    rows = check_trace(geometric_candidate(F(1, 4)), 4).rows
    assert rows.position((3, 7)) == len(rows) - 1
    for v in ((4, 1), (3, 2), (-1, 1), (0, 0)):
        with pytest.raises(ValueError):
            rows.position(v)


@pytest.mark.parametrize("spec", [{"kind": "geometric", "ratio": "1/4"}, TRACE_SPECS["table.json"]])
def test_check_trace_keeps_columns_not_rows(spec):
    # a floor of one repeated weight keeps that weight and its length; tuples
    # of (vertex, phi, mass) rows peaked at 7.1 MB
    candidate = candidate_from_json(json.dumps(spec))
    tracemalloc.start()
    try:
        report = check_trace(candidate, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid and len(report.rows) == 2**15 + 1
    assert peak < 4 << 20


def test_negative_weights_are_reported_with_their_vertex():
    candidate = _with_negative_phi((3, 5))
    # floor 3 carries rows at depth 6 and only the masses of floor 2 at depth 3
    for depth in (6, 3):
        with pytest.raises(ValueError, match=r"negative weight at \(3, 5\)"):
            check_trace(candidate, depth)
    assert check_trace(candidate, 2).valid
    with pytest.raises(ValueError, match=r"negative reconstructed weight -1/9 at \(3, 5\)"):
        alpha_from_phi(candidate, 6)
    # a geometric ratio above 1/3 drives an even index negative first
    with pytest.raises(ValueError, match=r"negative reconstructed weight -99/2401 at \(3, 4\)"):
        alpha_from_phi(geometric_candidate(F(3, 7)), 6)


def _counting(calls):
    geometric = geometric_candidate(F(1, 4))
    return TraceCandidate(lambda v: calls.append(v) or geometric.phi(v), geometric.tail)


def test_check_trace_calls_phi_once_per_vertex():
    # the benchmark's traces.phi_calls counter relies on this
    for depth in range(1, 13):
        calls = []
        check_trace(_counting(calls), depth)
        assert sorted(calls) == sorted(tree_vertices(depth)), depth


def test_alpha_from_phi_calls_phi_once_per_vertex():
    for depth in range(1, 13):
        calls = []
        alpha_from_phi(_counting(calls), depth)
        assert sorted(calls) == sorted(tree_vertices(depth)), depth


def test_geometric_phi_answers_any_floor():
    candidate = geometric_candidate(F(2, 7))
    for n in (200, 3, 0, 57, 3):
        assert candidate.phi((n, 1)) == F(2, 7) ** (n + 1)
    assert candidate.tail((1, 1), 300) == 2 * F(2, 7) ** 302 / (1 - F(2, 7))
    assert candidate.tail(STAR, 4) == F(2, 7) ** 6 / (1 - F(2, 7))


def test_check_trace_requires_unit_root():
    bad = table_candidate({}, F(0))
    object.__setattr__(bad, "phi", lambda v: F(0))
    with pytest.raises(ValueError):
        check_trace(bad, 5)


def test_truncated_check_is_monotone_in_depth():
    # no tail oracle: default mass 1/2 everywhere, violated at the root
    # once enough branch floors are visible, and then forever after
    candidate = table_candidate({}, F(1, 2))
    assert candidate.tail is None
    verdicts = [check_trace(candidate, d).valid for d in range(1, 8)]
    assert not check_trace(candidate, 7).exact
    first_fail = verdicts.index(False)
    assert all(not ok for ok in verdicts[first_fail:])


def test_alpha_zero_candidate():
    alpha = alpha_from_phi(zero_candidate(), 6)
    for n in range(7):
        for k in range(2**n + 1):
            assert alpha[(n, k)] == (1 if k == 0 else 0)


def assert_alpha_recursion(alpha, depth):
    for n in range(depth):
        for k in range(2**n + 1):
            kids = [j for j in (2 * k - 1, 2 * k, 2 * k + 1) if 0 <= j <= 2 ** (n + 1)]
            assert alpha[(n, k)] == sum(alpha[(n + 1, j)] for j in kids)
    assert alpha[STAR] == alpha[(0, 0)] + alpha[(0, 1)]


def test_alpha_geometric_quarter_nonnegative_and_consistent():
    alpha = alpha_from_phi(geometric_candidate(F(1, 4)), 10)
    assert all(value >= 0 for value in alpha.values())
    assert_alpha_recursion(alpha, 10)
    # frozen spot values from the geometric sums
    assert alpha[(0, 0)] == 1 - sum(F(1, 4) ** (j + 1) for j in range(1)) == F(3, 4)
    assert alpha[(2, 2)] == F(1, 4) ** 2 - 2 * F(1, 4) ** 3


def test_alpha_zero_recursion():
    alpha = alpha_from_phi(zero_candidate(), 8)
    assert_alpha_recursion(alpha, 8)


def test_alpha_geometric_half_raises():
    with pytest.raises(ValueError, match="negative"):
        alpha_from_phi(geometric_candidate(F(1, 2)), 6)


# ---------------------------------------------------------------------------
# JSON interface


def test_candidate_json_geometric():
    candidate = candidate_from_json('{"kind": "geometric", "ratio": "1/4"}')
    assert candidate.phi((3, 5)) == F(1, 4) ** 4
    assert check_trace(candidate, 8).valid


def test_candidate_json_table():
    text = '{"kind": "table", "entries": [[0, 1, "1/2"], [1, 1, "1/8"]], "default": "0"}'
    candidate = candidate_from_json(text)
    assert candidate.phi((0, 1)) == F(1, 2)
    assert candidate.phi((5, 1)) == 0
    report = check_trace(candidate, 8)
    assert report.valid and report.exact


def test_candidate_json_table_nonzero_default_has_no_tail():
    candidate = candidate_from_json('{"kind": "table", "entries": [], "default": "1/16"}')
    assert candidate.tail is None
    assert not check_trace(candidate, 5).exact


@pytest.mark.parametrize("check", [check_trace, alpha_from_phi])
def test_a_table_weight_at_the_root_is_read_not_overwritten(check):
    # the spec's root weight reaches the root check; an explicit 1 checks as no entry does
    half = candidate_from_json('{"kind": "table", "entries": [[-1, 0, "1/2"]], "default": "0"}')
    assert half.phi(STAR) == F(1, 2)
    with pytest.raises(ValueError, match="^a trace candidate must have weight exactly 1 at the root$"):
        check(half, 3)
    one, absent = table_candidate({STAR: F(1), (0, 1): F(1, 2)}), table_candidate({(0, 1): F(1, 2)})
    assert one.phi(STAR) == 1 and check_trace(one, 3).valid and check_trace(absent, 3).valid
    assert list(check_trace(one, 3).rows) == list(check_trace(absent, 3).rows)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: alpha_from_phi(geometric_candidate(F(1, 4)), -1), ValueError, f"depth must lie in 0..{MAX_DEPTH}"),
        (
            lambda: alpha_from_phi(zero_candidate(), MAX_DEPTH + 1),
            ValueError,
            f"depth must lie in 0..{MAX_DEPTH}",
        ),
        (
            lambda: alpha_from_phi(table_candidate({STAR: F(2)}), 2),
            ValueError,
            "a trace candidate must have weight exactly 1 at the root",
        ),
        (lambda: check_trace(geometric_candidate(F(1, 4)), 0), ValueError, f"depth must lie in 1..{MAX_DEPTH}"),
        (lambda: geometric_candidate(F(1)), ValueError, "ratio must lie in (0, 1)"),
        (lambda: geometric_candidate(F(0)), ValueError, "ratio must lie in (0, 1)"),
        (lambda: move_left_cf(()), ValueError, "no left move from the root"),
    ],
    ids=["alpha-depth-negative", "alpha-depth-above", "alpha-root", "check-depth-0", "ratio-1", "ratio-0", "cf-root"],
)
def test_guards_refuse_with_one_line_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_table_tail_oracle_sees_beyond_the_horizon():
    # the branch of (1,1) holds (2,1) inside depth 3 and (4,7), (4,9)
    # beyond it; the exact tail must count the deep entries
    entries = {(2, 1): F(1, 64), (4, 7): F(1, 32), (4, 9): F(1, 32)}
    candidate = table_candidate(entries, F(0))
    assert candidate.tail((1, 1), 3) == F(1, 16)
    report = check_trace(candidate, 3)
    assert report.exact and not report.valid
    assert report.first_violation == (1, 1)  # phi = 0 < deep branch mass
    # weights along the whole chain above the deep entries repair it
    repaired = table_candidate({(0, 1): F(1, 4), (1, 1): F(1, 8), **entries}, F(0))
    assert check_trace(repaired, 3).valid


def branch_set_tail(entries):
    """The tail of a default-0 table summed over its branch set as
    ``neighbor_set`` lists it, down to the deepest entry."""
    deepest = max(n for n, _ in entries)
    return lambda v, depth: sum((entries.get(w, F(0)) for w in neighbor_set(v, deepest) if w[0] > depth), F(0))


def ancestors(w):
    """The vertices on the way from STAR down to w, w excluded: the parent of
    (n, k) is the odd one of (n - 1, (k +- 1) / 2), and STAR that of (0, 1)."""
    out = []
    while w != STAR:
        n, k = w
        w = STAR if n == 0 else (n - 1, (k + 1) // 2 if (k + 1) // 2 % 2 else (k - 1) // 2)
        out.append(w)
    return out


def test_entry_owners_are_the_branch_sets_that_hold_it():
    vertices = tree_vertices(9)
    holders = {w: [] for w in vertices}
    for v in vertices:
        for w in neighbor_set(v, 9):
            holders[w].append(v)
    for w in vertices[1:]:
        assert sorted(traces._owners(w)) == sorted(holders[w]), w
        assert len(holders[w]) == (1 if w == (0, 1) else 2)


@st.composite
def deep_tables(draw):
    """Up to six entries on floors 0..MAX_TABLE_FLOOR, weights k/8."""
    entries = {}
    for n in draw(st.lists(st.integers(0, traces.MAX_TABLE_FLOOR), min_size=1, max_size=6)):
        k = 2 * draw(st.integers(0, max(2 ** (n - 1) - 1, 0))) + 1
        entries[(n, k)] = F(draw(st.integers(0, 8)), 8)
    return entries


@settings(max_examples=200, deadline=None)
@given(entries=deep_tables(), depth=st.integers(0, MAX_DEPTH))
def test_table_tails_equal_the_branch_set_sums(entries, depth):
    tail, brute = table_candidate(entries).tail, branch_set_tail(entries)
    # every vertex whose branch set holds an entry is one of its ancestors
    for v in {*tree_vertices(3), *(u for w in entries for u in ancestors(w))}:
        assert tail(v, depth) == brute(v, depth), v


@pytest.mark.parametrize("entries", [
    {(40, 1): F(1, 2)},
    {(0, 1): F(1, 4), (1, 1): F(1, 8), (2, 3): F(1, 16), (9, 1): F(1, 32), (9, 511): F(1, 32), (14, 9001): F(1, 64)},
    {(0, 1): F(1, 2), (1, 1): F(1, 4), (13, 1): F(1, 16), (30, 2**29 + 1): F(1, 16), (40, 2**40 - 1): F(1, 8)},
], ids=["deepest", "within the depths", "below the depths"])
def test_deep_tables_check_as_their_branch_set_sums(entries):
    candidate = table_candidate(entries)
    reference = TraceCandidate(candidate.phi, branch_set_tail(entries))
    for depth in range(1, 13):
        assert check_trace(candidate, depth) == tree_reference.check_trace(reference, depth), depth


def test_vertex_of_cf_refuses_heights_above_the_bound(monkeypatch):
    def fail(*args):
        raise AssertionError("reached past the height guard")

    # 10**30/(10**30 + 1): its index would have 10**30 bits
    monkeypatch.setattr(core, "label", fail)
    with pytest.raises(ValueError, match="above MAX_QMARK_HEIGHT = 14000"):
        vertex_of_cf((1, 10**30))


def test_table_entry_floors_are_guarded_before_any_walk_or_power(monkeypatch):
    # an entry at floor 10**9 once built 2**(10**9), a 125 MB int, and every
    # tail walked its branch down to that floor: the walk from each entry to
    # its owners is patched to fail, and the allocations are traced
    def fail(*args):
        raise AssertionError("reached past the floor guard")

    tracemalloc.start()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(traces, "_owners", fail)
            for floor in (traces.MAX_TABLE_FLOOR + 1, 10**9):
                with pytest.raises(ValueError, match=f"deeper than floor {traces.MAX_TABLE_FLOOR}"):
                    candidate_from_json(f'{{"kind": "table", "entries": [[{floor}, 1, "1/2"]]}}')
        # vertex checks read bit lengths, so a deep vertex builds no 2**n either
        assert move_left((10**9, 2**40 + 1)) == (10**9 + 1, 2**41 + 1)
        with pytest.raises(ValueError):
            move_left((10**9, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    deepest = table_candidate({(traces.MAX_TABLE_FLOOR, 1): F(1, 2)}, F(0))
    assert deepest.phi((traces.MAX_TABLE_FLOOR, 1)) == F(1, 2)


def test_candidate_json_unknown_kind():
    with pytest.raises(ValueError):
        candidate_from_json('{"kind": "uniform"}')
