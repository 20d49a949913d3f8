"""Tree labels, continued fractions, question mark, Farey map, matrix words."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tree_reference
from fareybratteli import core
from fareybratteli.core import (
    MAT_A,
    MAT_B,
    Mat2,
    cf_convergents,
    cf_decode,
    cf_encode,
    cf_normalize,
    euler_phi,
    farey_inverse_orbit,
    farey_map,
    farey_map_cf,
    farey_preimages,
    height,
    label,
    matrix_m,
    matrix_to_vertex,
    mediant,
    partition_function,
    question_mark,
    question_mark_inv,
    row,
    row_ints,
    row_numerators,
    totient_fiber,
    totient_sieve,
    verify_matrix_words,
    vertex_of_label,
    vertex_to_matrix,
)

F = Fraction


def fracs(*pairs):
    return tuple(F(p, q) for p, q in pairs)


# Rows 0..5 transcribed from the tree figure, frozen verbatim.
ROWS_VERBATIM = {
    0: fracs((0, 1), (1, 1)),
    1: fracs((0, 1), (1, 2), (1, 1)),
    2: fracs((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)),
    3: fracs((0, 1), (1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (1, 1)),
    4: fracs(
        (0, 1), (1, 5), (1, 4), (2, 7), (1, 3), (3, 8), (2, 5), (3, 7), (1, 2),
        (4, 7), (3, 5), (5, 8), (2, 3), (5, 7), (3, 4), (4, 5), (1, 1),
    ),
    5: fracs(
        (0, 1), (1, 6), (1, 5), (2, 9), (1, 4), (3, 11), (2, 7), (3, 10), (1, 3),
        (4, 11), (3, 8), (5, 13), (2, 5), (5, 12), (3, 7), (4, 9), (1, 2),
        (5, 9), (4, 7), (7, 12), (3, 5), (8, 13), (5, 8), (7, 11), (2, 3),
        (7, 10), (5, 7), (8, 11), (3, 4), (7, 9), (4, 5), (5, 6), (1, 1),
    ),
}


def test_rows_match_figure_verbatim():
    for n, expected in ROWS_VERBATIM.items():
        assert row(n) == expected


def test_row_structure():
    for n in range(1, 11):
        prev, cur = row(n - 1), row(n)
        assert len(cur) == 2**n + 1
        assert cur[::2] == prev
        for k in range(1, len(cur), 2):
            assert cur[k] == mediant(cur[k - 1], cur[k + 1])
        assert all(a < b for a, b in zip(cur, cur[1:]))


def test_row_sums():
    # Stern-Brocot mass: denominators sum to 3**n + 1, numerators to half that.
    for n in range(15):
        r = row(n)
        assert sum(x.denominator for x in r) == 3**n + 1
        assert sum(x.numerator for x in r) == (3**n + 1) // 2
    # The 9-entry row 3 in particular (sum 28); the 17-entry row is floor 4.
    assert tuple(x.denominator for x in row(3)) == (1, 4, 3, 5, 2, 5, 3, 4, 1)
    assert sum(x.denominator for x in row(3)) == 28
    assert tuple(x.denominator for x in row(4)) == (1, 5, 4, 7, 3, 8, 5, 7, 2, 7, 5, 8, 3, 7, 4, 5, 1)


def test_row_guard():
    with pytest.raises(ValueError):
        row(25)
    with pytest.raises(ValueError):
        row(-1)


def test_determinant_identity():
    for n in range(13):
        r = row(n)
        for k in range(2**n):
            assert r[k + 1].numerator * r[k].denominator - r[k].numerator * r[k + 1].denominator == 1


def test_label_examples():
    assert label(0, 0) == 0
    assert label(2, 1) == F(1, 3)
    assert label(4, 7) == F(3, 7)
    assert label(1, 1) == F(1, 2)
    assert label(7, 2**7) == 1


def test_label_matches_rows():
    for n in range(9):
        for k, x in enumerate(row(n)):
            assert label(n, k) == x


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n))))
def test_label_matches_fraction_walk(vertex):
    assert label(*vertex) == tree_reference.label(*vertex)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12))
def test_row_matches_fraction_mediants(n):
    expected = tree_reference.row(n)
    assert row(n) == expected
    assert row_ints(n) == ([x.numerator for x in expected], [x.denominator for x in expected])


def test_row_ints_reads_the_denominators_off_the_numerators():
    # one refinement chain and Stern's identity, against two chains
    for n in range(17):
        assert row_ints(n) == tree_reference.row_ints(n), n
        assert row_numerators(n) == row_ints(n)[0], n


def test_vertex_of_label_inverts_label_on_odd_vertices():
    for n in range(11):
        for k in range(1, 2**n + 1, 2):
            assert vertex_of_label(label(n, k)) == (n, k)


@pytest.mark.parametrize("x", [F(0), F(-1, 2), F(3, 2), F(2)])
def test_vertex_of_label_rejects_values_outside_the_odd_labels(x):
    with pytest.raises(ValueError, match="outside"):
        vertex_of_label(x)


def test_vertex_of_label_mismatch_is_an_exception(monkeypatch):
    # a real exception, not an assert that python -O would drop
    monkeypatch.setattr(core, "label", lambda n, k: F(0))
    with pytest.raises(RuntimeError, match="first appearance"):
        vertex_of_label(F(2, 5))
    with pytest.raises(RuntimeError):
        totient_fiber(5)


def test_label_errors():
    with pytest.raises(ValueError):
        label(2, 5)
    with pytest.raises(ValueError):
        label(-1, 0)


# ---------------------------------------------------------------------------
# continued fractions


def test_cf_endpoints():
    assert cf_encode(F(0)) == ()
    assert cf_encode(F(1)) == (1,)
    assert cf_decode(()) == 0
    assert cf_decode((1,)) == 1


def test_cf_examples():
    for n in range(1, 12):
        assert cf_encode(F(1, n + 1)) == (n + 1,)
    assert cf_encode(F(2, 5)) == (2, 2)
    assert cf_decode((2, 2)) == F(2, 5)


def test_cf_canonical_last_term():
    for q in range(2, 40):
        for p in range(1, q):
            terms = cf_encode(F(p, q))
            assert terms[-1] >= 2 or terms == (1,)
            assert cf_decode(terms) == F(p, q)


def test_cf_normalize():
    assert cf_normalize((1, 2, 2, 1)) == (1, 2, 3)
    assert cf_normalize((2, 1)) == (3,)
    assert cf_normalize((1,)) == (1,)
    with pytest.raises(ValueError):
        cf_normalize((1, 0, 2))


def test_cf_convergents_figure_labels():
    # Quotient labels seen along the [1,2,2,1,1] chain.
    assert cf_convergents((1, 2, 2, 1, 1)) == [F(1), F(2, 3), F(5, 7), F(7, 10), F(12, 17)]


@given(st.fractions(min_value=0, max_value=1))
def test_cf_round_trip(x):
    assert cf_decode(cf_encode(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**12), st.lists(st.integers(1, 50), max_size=40))
def test_cf_decode_matches_the_fraction_fold(x, terms):
    # canonical tuples, the same with a trailing 1 split off, arbitrary tuples and ()
    canonical = cf_encode(x)
    split = canonical[:-1] + (canonical[-1] - 1, 1) if canonical and canonical[-1] > 1 else canonical + (1,)
    for t in (canonical, split, tuple(terms), (), (1,), (1, 1)):
        got = cf_decode(t)
        assert type(got) is F and got == tree_reference.cf_decode(t), t


@pytest.mark.parametrize("terms", [(0,), (2, 0, 3), (3, 1, -1), (0, 5)])
def test_cf_decode_refuses_a_term_below_one_like_the_fraction_fold(terms):
    with pytest.raises(ValueError) as got:
        cf_decode(terms)
    with pytest.raises(ValueError) as want:
        tree_reference.cf_decode(terms)
    assert str(got.value) == str(want.value)


def test_height():
    assert height(F(0)) == 0
    assert height(F(1)) == 0
    assert height(F(1, 2)) == 1
    assert height(F(2, 5)) == 3
    # x appears at floor h iff ?(x) * 2**h is an integer, so the first
    # appearance is the dyadic exponent of ?(x) -- an independent route.
    for q in range(2, 41):
        for p in range(1, q):
            x = F(p, q)
            h = height(x)
            assert question_mark(x).denominator == 2**h
            if h <= 12:
                assert x in row(h)
                assert h == 0 or x not in row(h - 1)


# ---------------------------------------------------------------------------
# question mark


def test_question_mark_endpoints():
    assert question_mark(F(0)) == 0
    assert question_mark(F(1)) == 1


def test_question_mark_values():
    assert question_mark(F(1, 3)) == F(1, 4)
    assert question_mark(F(2, 5)) == F(3, 8)  # series 1/2 - 1/8 for CF (2, 2)
    assert question_mark((2, 2)) == F(3, 8)
    assert label(3, 3) == F(2, 5)


def test_question_mark_sends_labels_to_dyadics():
    for n in range(13):
        for k, x in enumerate(row(n)):
            assert question_mark(x) == F(k, 2**n)


def test_question_mark_inv_round_trip():
    for n in range(13):
        for k in range(0, 2**n + 1, max(1, 2**n // 64)):
            x = question_mark_inv(k, n)
            assert question_mark(x) == F(k, 2**n)


def test_question_mark_strictly_increasing_on_rows():
    for n in range(9):
        values = [question_mark(x) for x in row(n)]
        assert all(a < b for a, b in zip(values, values[1:]))


@st.composite
def uncanonical_or_high_terms(draw):
    """Term tuples off the canonical walk: with trailing 1s, or with a height
    (the term sum minus 1) at MAX_QMARK_HEIGHT or one above it."""
    terms = tuple(draw(st.lists(st.integers(1, 60), max_size=12)))
    if draw(st.booleans()):
        return terms + (1,) * draw(st.integers(1, 3))
    return terms + (core.MAX_QMARK_HEIGHT + 1 + draw(st.integers(0, 1)) - sum(terms),)


@settings(max_examples=200, deadline=None)
@given(uncanonical_or_high_terms())
def test_question_mark_matches_the_fraction_series(terms):
    def outcome(walk):
        try:
            return walk(terms)
        except ValueError as exc:  # above the bound: the same refusal
            return str(exc)

    assert outcome(question_mark) == outcome(tree_reference.question_mark)


# ---------------------------------------------------------------------------
# Farey map


def test_farey_map_values():
    assert farey_map(F(1, 2)) == 1
    assert farey_map(F(0)) == 0
    assert farey_map(F(1)) == 0
    assert farey_map(F(2, 5)) == F(2, 3)


def test_farey_preimages():
    assert farey_preimages(F(0)) == (F(0), F(1))
    for n in range(11):
        for y in row(n):
            f1, f2 = farey_preimages(y)
            assert farey_map(f1) == y
            assert farey_map(f2) == y
            assert f2 == 1 - f1


def all_cfs_with_sum_at_most(s):
    """Every canonical CF tuple (last term >= 2, or (1,)) with term sum <= s."""
    out = [(1,)] if s >= 1 else []
    stack = [((a,), a) for a in range(2, s + 1)]
    out.extend(t for t, _ in stack)
    while stack:
        terms, total = stack.pop()
        # extend on the left so the last term stays >= 2
        for a in range(1, s - total + 1):
            stack.append(((a,) + terms, total + a))
            out.append((a,) + terms)
    return out


def test_farey_map_shifts_cf_digits():
    for terms in all_cfs_with_sum_at_most(8):
        x = cf_decode(terms)
        shifted = farey_map_cf(terms)
        assert cf_encode(farey_map(x)) == shifted
        assert farey_map(x) == cf_decode(shifted)


def test_farey_inverse_orbit():
    assert farey_inverse_orbit(1) == [F(0), F(1)]
    assert farey_inverse_orbit(2) == [F(0), F(1, 2), F(1)]
    with pytest.raises(ValueError):
        farey_inverse_orbit(15)
    for n in range(1, 11):
        orbit = farey_inverse_orbit(n)
        assert len(orbit) == 2 ** (n - 1) + 1
        assert orbit == sorted(set(row(n - 1)))
        cf_side = {F(0)} | {cf_decode(t) for t in all_cfs_with_sum_at_most(n)}
        assert set(orbit) == cf_side


# ---------------------------------------------------------------------------
# totients and the Dirichlet series


def test_totient_fiber_small():
    assert totient_fiber(2) == 1
    assert totient_fiber(5) == 4
    assert totient_fiber(12) == 4


def test_totient_fiber_matches_phi():
    for q in range(2, 61):
        assert totient_fiber(q) == euler_phi(q)


def test_totient_sieve_matches_trial_factorisation():
    sieve = totient_sieve(200)
    for q in range(1, 201):
        assert sieve[q] == euler_phi(q)


def test_totient_sieve_matches_prime_sieve_oracle():
    for n in range(-1, 2001):
        assert totient_sieve(n) == tree_reference.totient_sieve(n), n
    assert type(totient_sieve(10)) is list


@pytest.mark.parametrize(
    "n",
    sorted(
        {2**k + d for k in range(19) for d in (-1, 0, 1)}
        | {2 * (2**16 + 1) + d for d in (-1, 0, 1)}
        | {3 * 2**16 + d for d in (-1, 0, 1)}
        | {2 * (core._BLOCK + 1) + d for d in (-1, 0, 1)}
        | {3 * core._BLOCK + d for d in (-1, 0, 1)}
    ),
)
def test_totient_sieve_matches_prime_sieve_oracle_at_block_edges(n):
    # phi(q) for q <= n / 2 is built in blocks that double up to core._BLOCK wide
    assert totient_sieve(n) == tree_reference.totient_sieve(n)


# the seams of the zeta blocks: up to qmax // 2 the blocks double up to
# core._BLOCK wide and the last one ends at qmax // 2 + 1, and above it they
# hold core._BLOCK q each; 155763 is odd and its half, 77881, is no block edge.
# Up to the half, 6, 7 and 9 end on a short block, 4 * _B - 1 on a full
# doubled one, 6 * _B - 1 and 8 * _B - 1 on a full _BLOCK one, and 4 * _B,
# 4 * _B + 1, 6 * _B + 1 and 8 * _B + 3 on one or two q past a full one
_B = core._BLOCK
ZETA_SEAMS = [3, 6, 7, 9, 2 * _B - 1, 2 * _B, 2 * _B + 1, 4 * _B - 1, 4 * _B, 4 * _B + 1, 4 * _B + 3,
              6 * _B - 1, 6 * _B + 1, 8 * _B - 1, 8 * _B + 3, 155763]


@pytest.mark.parametrize("qmax", [0, 1, 2, 4, 5, *ZETA_SEAMS])
def test_totient_blocks_join_to_the_sieve(qmax):
    gen = core._totient_blocks(qmax)
    blocks, kept = [], []
    for block in gen:
        blocks.append(block)
        kept.append(list(gen.gi_frame.f_locals["odd"]))
    joined = [phi for block in blocks for phi in block]
    assert joined == totient_sieve(qmax) == tree_reference.totient_sieve(qmax)
    # phi(2j + 1) for 2j + 1 <= qmax // 2 is the one list kept (phi(1) when
    # that is none): after each block, phi of the odd q below its end up to
    # the half.  phi(0..1) comes first, and the blocks after it are short
    # and, up to the half, at most as wide as the q below them
    phi, half = tree_reference.totient_sieve(max(qmax, 1)), max(qmax // 2, 1)
    hi = 0
    for block, odd in zip(blocks, kept):
        lo, hi = hi, hi + len(block)
        assert odd == phi[1 : max(min(hi, half + 1), 2) : 2], (lo, hi)
        if 2 <= lo <= half:
            assert hi <= min(2 * lo, half + 1)
    assert blocks[0] == [0, 1][: qmax + 1]
    assert all(0 < len(block) <= _B for block in blocks[1:])


def test_totient_sieve_matches_trial_factorisation_up_to_a_million():
    sieve = totient_sieve(10**6)
    rng = random.Random(5)
    for q in [10**6, 999983, 2**19, 3**12, 720720] + rng.sample(range(1, 10**6), 15):
        assert sieve[q] == euler_phi(q), q


@pytest.mark.parametrize("qmax", [1, 2, 997, 10**5, *ZETA_SEAMS])
@pytest.mark.parametrize("s", [2.5, 3, 4.25])
def test_partition_function_matches_oracle_sum_bit_for_bit(s, qmax):
    got = partition_function(s, qmax)
    assert type(got) is float
    assert got == tree_reference.partition_function(s, qmax)


def test_sum_adds_floats_left_to_right():
    # partition_function sums its terms with the built-in sum, and the zeta
    # goldens (tests/golden_diagram/zeta_s3_qmax*.txt, diffed by the entries
    # of tests/goldens.py) hold what Python 3.11's plain left-to-right
    # summation gives.  Python 3.12 made sum of floats compensated, which
    # returns 1.0 here, and would move those goldens.
    assert sum([1e16, 1.0, -1e16]) == 0.0


def zeta_series(s: float, terms: int) -> float:
    """Independent oracle: direct partial sum with an Euler-Maclaurin tail."""
    partial = sum(n**-s for n in range(1, terms + 1))
    n = float(terms)
    tail = n ** (1 - s) / (s - 1) - 0.5 * n**-s + (s / 12.0) * n ** (-s - 1)
    return partial + tail


def test_partition_function_keeps_only_the_lower_totients():
    # phi(q) for odd q <= 5 * 10**5 as a list of ints, the 16-bit prime factor
    # array and a block or two: about 12.6 MB; phi(0..5 * 10**5) took 21.5 MB,
    # all 10**6 + 1 totients 32.9 MB
    tracemalloc.start()
    try:
        partition_function(3, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_partition_function_single_term():
    assert partition_function(4, 1) == 1.0


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf")])
def test_partition_function_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match="finite"):
        partition_function(s, 10)


def test_partition_function_matches_zeta_ratio():
    want = zeta_series(2, 10000) / zeta_series(3, 10000)
    got = partition_function(3, 10**5)
    assert abs(got - want) < 1e-4


def test_partition_function_monotone_in_qmax():
    values = [partition_function(3, q) for q in (10, 100, 1000)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        partition_function(2, 10)


# ---------------------------------------------------------------------------
# matrix words


def test_matrix_word_base_case():
    assert MAT_B @ MAT_A == Mat2(2, 1, 1, 1)
    assert matrix_m(1) @ matrix_m(1) == Mat2(2, 1, 1, 1)


def test_matrix_words_exhaustive():
    ok, witness = verify_matrix_words(12, 12)
    assert ok, witness


def test_vertex_to_matrix_examples():
    assert vertex_to_matrix(0, 0) == Mat2(1, 0, 1, 1)
    m = vertex_to_matrix(2, 1)
    assert m == Mat2(1, 1, 2, 3)
    assert m.det() == 1
    assert m.in_gamma_plus()
    with pytest.raises(ValueError):
        vertex_to_matrix(2, 4)


def test_matrix_vertex_round_trip():
    # every neighbour pair of floors 0-10, against the question-mark reference;
    # k = 0 has the left end 0 and k = 2**n - 1 the right end 1
    for n in range(11):
        for k in range(2**n):
            m = vertex_to_matrix(n, k)
            assert matrix_to_vertex(m) == tree_reference.matrix_to_vertex(m) == (n, k)


def test_matrix_vertex_round_trip_deep():
    # far beyond row materialisation: the dyadic walk carries both directions
    import random

    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(20, 45)
        k = rng.randrange(0, 2**n)
        m = vertex_to_matrix(n, k)
        assert m.det() == 1 and m.in_gamma_plus()
        assert matrix_to_vertex(m) == (n, k)


def test_matrix_to_vertex_rejects_non_gamma_plus():
    with pytest.raises(ValueError):
        matrix_to_vertex(Mat2(1, 1, 0, 1))  # det 1 but p' > q' fails 0<=p'<=q'... b<=d ok, a<=c fails


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: farey_map(F(3, 2)), ValueError, "value 3/2 outside [0, 1]"),
        (lambda: farey_map(F(-1, 2)), ValueError, "value -1/2 outside [0, 1]"),
        (lambda: farey_preimages(F(2)), ValueError, "value 2 outside [0, 1]"),
        (lambda: euler_phi(0), ValueError, "q must be >= 1"),
        (lambda: totient_fiber(1), ValueError, "q must be >= 2"),
        (lambda: MAT_A.power(-1), ValueError, "negative powers not needed here"),
    ],
    ids=["map-above-1", "map-below-0", "preimages-above-1", "phi-0", "fiber-1", "negative-power"],
)
def test_guards_refuse_with_one_line_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_farey_map_cf_sends_zero_to_zero():
    # 0 has no terms; the map fixes it, as farey_map does
    assert farey_map_cf(()) == () and farey_map(F(0)) == 0


def test_matrix_to_vertex_refuses_a_column_pair_whose_labels_disagree(monkeypatch):
    # every Gamma+ matrix is a neighbour pair, so the check guards the
    # dyadic location against the labels; break the labels to reach it
    m = vertex_to_matrix(2, 1)
    monkeypatch.setattr(core, "label", lambda n, k: F(0))
    with pytest.raises(ValueError) as info:
        matrix_to_vertex(m)
    assert str(info.value) == f"{m} does not describe a neighbour pair"


def test_parse_fraction_refuses_oversized_exponents_inexact_values_and_junk(monkeypatch):
    parse = core.parse_fraction
    assert parse("3/4") == F(3, 4) and parse(" -1.5e-3 ") == F(-3, 2000) and parse(7) == 7 and parse(F(2, 3)) == F(2, 3)
    assert parse("1e4300") == 10**4300 and parse("1e-0_4300") == F(1, 10**4300)  # at the default limit
    for text in ("1e4301", "1e-4301", "1E+10000000", "2.5e1_0000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="decimal exponent"):
            parse(text)
    for text in ("x", "1/0", "", "nan", "1e"):
        with pytest.raises(ValueError, match="not a fraction"):
            parse(text)
    for value in (0.5, True):
        with pytest.raises(ValueError, match="lam must be exact"):
            parse(value, "lam")
    # the bound is Python's own limit on the digits of an int string
    monkeypatch.setattr(core.sys, "get_int_max_str_digits", lambda: 5000)
    assert parse("1e4301") == 10**4301
    with pytest.raises(ValueError, match="lies above 5000"):
        parse("1e5001")


def test_question_mark_refuses_heights_above_its_bound():
    assert question_mark(F(1, 14001)) == F(1, 2**14000)  # height 14000, the bound
    assert question_mark((13998, 3)) == F(1, 2**13997) - F(1, 2**14000)
    for x in (F(1, 14002), F(1, 10**30), (14000, 3), (7000, 7000, 2)):
        with pytest.raises(ValueError, match="above MAX_QMARK_HEIGHT = 14000"):
            question_mark(x)


def _never_called(*args):
    raise AssertionError("reached past the height guard")


def test_vertex_of_label_and_totient_fiber_refuse_heights_above_the_bound(monkeypatch):
    assert vertex_of_label(F(1, 14001)) == (14000, 1)  # height 14000, the bound
    # terms (1, 10**30): the index would have 10**30 bits and label as many digits
    monkeypatch.setattr(core, "label", _never_called)
    with pytest.raises(ValueError, match="above MAX_QMARK_HEIGHT = 14000"):
        vertex_of_label(F(10**30, 10**30 + 1))
    # 1/q has height q - 1, so the whole fiber is refused before any vertex
    monkeypatch.setattr(core, "vertex_of_label", _never_called)
    for q in (core.MAX_QMARK_HEIGHT + 2, 10**30):
        with pytest.raises(ValueError, match="above MAX_QMARK_HEIGHT = 14000"):
            totient_fiber(q)
