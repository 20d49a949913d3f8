"""K0 polynomial arithmetic: connecting maps, positivity, unit decomposition."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import k0_reference
from fareybratteli.core import row
from fareybratteli.dimension_group import (
    MAX_LIFT_LEVEL,
    MAX_UNIT_LEVEL,
    LevelPoly,
    SymLaurent,
    add_classes,
    beta_lift,
    beta_step,
    equivalent,
    eval_phi,
    expand_to_laurent,
    is_positive_class,
    level_poly_from_json,
    level_poly_to_json,
    q_prime_row,
    _rho,
    rho_n,
    stern_brocot_generating,
    verify_unit_decomposition,
)


def basis(level, k):
    coeffs = [0] * 2**level
    coeffs[k] = 1
    return LevelPoly(level, tuple(coeffs))


def test_beta_step_examples():
    assert beta_step(LevelPoly(0, (1,))) == LevelPoly(1, (1, 1))
    assert beta_step(LevelPoly(1, (0, 1))) == LevelPoly(2, (0, 1, 1, 1))


def test_beta_lift():
    p = LevelPoly(0, (1,))
    assert beta_lift(p, 0) == p
    assert beta_lift(p, 2) == LevelPoly(2, (1, 2, 1, 1))
    with pytest.raises(ValueError):
        beta_lift(LevelPoly(2, (1, 0, 0, 0)), 1)


def test_beta_step_matches_laurent_multiplication():
    rng = random.Random(1)
    for level in range(5):
        for _ in range(20):
            p = LevelPoly(level, tuple(rng.randrange(-4, 5) for _ in range(2**level)))
            lifted = beta_lift(p, level + 3)
            oracle = rho_n(3) * expand_to_laurent(p).substitute_power(2**3)
            assert expand_to_laurent(lifted) == oracle


@given(st.integers(0, 6), st.data())
def test_beta_step_injective(level, data):
    size = 2**level
    c = tuple(data.draw(st.integers(-9, 9)) for _ in range(size))
    d = beta_step(LevelPoly(level, c))
    # the even positions of the image read the preimage back off
    assert tuple(d.coeffs[2 * k] for k in range(size)) == c


def test_worked_addition_example():
    # [X + 1/X] + [X**3 + 1/X**3] expressed one floor up
    total = add_classes(basis(1, 1), basis(2, 3))
    assert total == LevelPoly(2, (0, 1, 1, 2))
    want = SymLaurent({3: 2, -3: 2, 2: 1, -2: 1, 1: 1, -1: 1})
    assert expand_to_laurent(total) == want


def test_addition_unit_and_well_definedness():
    zero = LevelPoly(0, (0,))
    q = LevelPoly(2, (3, 1, 4, 1))
    assert equivalent(add_classes(zero, q), q)
    p = LevelPoly(1, (2, 5))
    for extra in range(1, 4):
        lifted_sum = add_classes(beta_lift(p, p.level + extra), beta_lift(q, q.level + extra))
        assert equivalent(lifted_sum, add_classes(p, q))


def test_equivalent():
    p = LevelPoly(0, (1,))
    assert equivalent(p, LevelPoly(2, (1, 2, 1, 1)))
    assert not equivalent(p, LevelPoly(2, (1, 2, 1, 2)))


def test_class_arithmetic_commutes_with_expansion():
    rng = random.Random(5)
    for _ in range(25):
        lp = rng.randrange(0, 4)
        lq = rng.randrange(0, 4)
        p = LevelPoly(lp, tuple(rng.randrange(-3, 4) for _ in range(2**lp)))
        q = LevelPoly(lq, tuple(rng.randrange(-3, 4) for _ in range(2**lq)))
        top = max(lp, lq)
        total = expand_to_laurent(beta_lift(p, top)) + expand_to_laurent(beta_lift(q, top))
        assert expand_to_laurent(add_classes(p, q)) == total


def test_positivity_examples():
    assert is_positive_class(LevelPoly(2, (0, 1, 1, 2)))
    neg = LevelPoly(1, (1, -1))
    assert not is_positive_class(neg)
    for target in range(2, 7):
        assert not is_positive_class(beta_lift(neg, target))


def test_positivity_lift_invariant_random():
    rng = random.Random(20240809)
    for _ in range(200):
        level = rng.randrange(0, 7)
        p = LevelPoly(level, tuple(rng.randrange(-3, 4) for _ in range(2**level)))
        verdict = is_positive_class(p)
        for extra in range(1, 5):
            assert is_positive_class(beta_lift(p, level + extra)) == verdict


def test_unit_level_guard():
    for build in (rho_n, q_prime_row):
        build(MAX_UNIT_LEVEL)
        with pytest.raises(ValueError, match=f"n <= {MAX_UNIT_LEVEL}"):
            build(MAX_UNIT_LEVEL + 1)


def test_q_prime_rows_match_printed_tuples():
    assert q_prime_row(0) == (1,) and q_prime_row(1) == (1, 1) and q_prime_row(2) == (1, 2, 1, 1)
    assert q_prime_row(3) == (1, 3, 2, 3, 1, 2, 1, 1)
    assert q_prime_row(4) == (1, 4, 3, 5, 2, 5, 3, 4, 1, 3, 2, 3, 1, 2, 1, 1)


def test_unit_decomposition():
    for n in range(11):
        assert verify_unit_decomposition(n)


def test_rho_n_structure():
    r3 = rho_n(3)
    assert r3.support() == list(range(-7, 8))
    assert sum(r3.coeff(d) for d in r3.support()) == 3**3
    # degree-d coefficient of rho_n is the unit weight at index |d|
    weights = q_prime_row(3)
    assert all(r3.coeff(d) == weights[abs(d)] for d in r3.support())


def test_rho_matches_the_dict_product_oracle():
    for n in range(MAX_UNIT_LEVEL + 1):
        oracle = k0_reference.rho(n)
        # every degree 1 - 2**n .. 2**n - 1 carries a positive coefficient
        assert oracle.support() == list(range(1 - 2**n, 2**n))
        assert _rho(n) == tuple(map(oracle.coeff, oracle.support())), n
        assert rho_n(n) == oracle, n


def _level_polys(max_level):
    return st.integers(0, max_level).flatmap(
        lambda level: st.lists(st.integers(-1000, 1000), min_size=2**level, max_size=2**level).map(
            lambda coeffs: LevelPoly(level, tuple(coeffs))
        )
    )


@given(_level_polys(8))
def test_beta_step_matches_the_loop_oracle(p):
    assert beta_step(p) == k0_reference.beta_step(p)


@given(_level_polys(8), st.integers(0, 4))
def test_beta_lift_matches_the_loop_oracle(p, extra):
    n = min(p.level + extra, MAX_LIFT_LEVEL)
    assert beta_lift(p, n) == k0_reference.beta_lift(p, n)


@pytest.mark.parametrize("count", [*range(1, 65), 2**14])
def test_generating_function_matches_the_loop_oracle(count):
    assert stern_brocot_generating(count) == k0_reference.generating(count)


def test_generating_function_prefix():
    coeffs = stern_brocot_generating(8)
    assert coeffs == [1, 1, 2, 1, 3, 2, 3, 1]


def test_generating_function_matches_flattened_denominators():
    count = 2**12
    coeffs = stern_brocot_generating(count)
    flattened = []
    n = 0
    while len(flattened) < count:
        flattened.extend(x.denominator for x in row(n)[: 2**n])
        n += 1
    assert coeffs == flattened[:count]
    assert all(c > 0 for c in coeffs)


def test_eval_phi():
    for y in (0.0, 1.0, -2.5):
        assert eval_phi(0, 0, y) == 1.0
    for n in range(1, 8):
        assert abs(eval_phi(n, 0, 0.0) - 3.0**-n) < 1e-15
    for n in range(11):
        weights = q_prime_row(n)
        for y in (0.0, 1.0, 2.5):
            total = sum(weights[k] * eval_phi(n, k, y) for k in range(2**n))
            assert abs(total - 1.0) < 1e-12
    with pytest.raises(OverflowError):
        eval_phi(3, 1, 1e4)


def test_level_poly_validation_and_json():
    with pytest.raises(ValueError):
        LevelPoly(1, (1,))
    for level, coeffs in ((0, ()), (2, (1, 2, 3)), (1, (1, 2, 3, 4))):
        with pytest.raises(ValueError, match=f"2\\*\\*{level} coefficients"):
            LevelPoly(level, coeffs)
    # the size is checked through bit lengths, so a huge level builds no 2**level
    with pytest.raises(ValueError, match="2\\*\\*1000000000000 coefficients"):
        LevelPoly(10**12, (1,))
    p = LevelPoly(2, (1, -2, 0, 3))
    assert level_poly_from_json(level_poly_to_json(p)) == p


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("[1]", "must be a JSON object", id="list"),
        pytest.param("3", "must be a JSON object", id="number"),
        pytest.param("[" * 100000, "nests too deeply", id="nested-100000"),
        pytest.param('{"level": 1}', "needs the key 'coeffs'", id="no-coeffs"),
        pytest.param('{"coeffs": [1]}', "needs the key 'level'", id="no-level"),
        pytest.param('{"level": 1, "coeffs": 5}', "malformed K0 class", id="coeffs-int"),
        pytest.param('{"level": 1, "coeffs": [1.5, 2]}', "int coefficients", id="float-coeff"),
        pytest.param('{"level": 1, "coeffs": [true, 2]}', "int coefficients", id="bool-coeff"),
        pytest.param('{"level": 1, "coeffs": "12"}', "int coefficients", id="coeffs-string"),
        pytest.param('{"level": 0.0, "coeffs": [1]}', "int level", id="float-level"),
        pytest.param('{"level": false, "coeffs": [1]}', "int level", id="bool-level"),
        pytest.param('{"level": 1, "coeffs": [1]}', "2\\*\\*1 coefficients", id="short"),
        pytest.param("{", "Expecting", id="not-json"),
        pytest.param("[1, ", "^a K0 class is not JSON: Expecting value", id="not-json-named"),
    ],
)
def test_level_poly_from_json_refuses_malformed_input(text, message):
    # one-line ValueError, as the level-set and trace-candidate readers give
    with pytest.raises(ValueError, match=message) as info:
        level_poly_from_json(text)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LevelPoly(-1, (1,)), ValueError, "level must be >= 0"),
        (lambda: rho_n(-1), ValueError, "n must be >= 0"),
        (lambda: q_prime_row(-1), ValueError, "n must be >= 0"),
        (lambda: stern_brocot_generating(0), ValueError, "count must lie in 1..2**14"),
        (lambda: stern_brocot_generating(2**14 + 1), ValueError, "count must lie in 1..2**14"),
        (lambda: eval_phi(1, 2, 0.0), ValueError, "(n, k) = (1, 2) out of range"),
        (lambda: eval_phi(-1, 0, 0.0), ValueError, "(n, k) = (-1, 0) out of range"),
    ],
    ids=["level-negative", "rho-negative", "q-prime-negative", "count-0", "count-above", "k-above", "n-negative"],
)
def test_guards_refuse_with_one_line_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_symlaurent_symmetry_enforced():
    with pytest.raises(ValueError):
        SymLaurent({1: 1})
    s = SymLaurent({1: 2, -1: 2, 0: 5})
    assert s.coeff(-1) == 2 and s.coeff(3) == 0
