"""Recurrence verification, root digits, saddle-point constants, and the
two cross-method agreement checks at unit-test scale."""
from fractions import Fraction

import pytest

import capbound.qnomial as qnomial_module
from capbound import asymptotics, golden
from capbound.acceptance import leading_constant_digit_check, ulp_distance
from capbound.asymptotics import (
    MAX_DIGITS,
    MAX_Q,
    RECURRENCE_MAX_N,
    alpha,
    characteristic_root,
    first_correction_estimate,
    growth_constant,
    growth_constant_ratio,
    leading_constant,
    leading_constant_empirical,
    normalized_sharp_bound,
    saddle_point,
    trinomial_middle,
    verify_recurrence,
)
from capbound.fixedpoint import BigFixed


def test_middle_coefficients():
    # frozen from the direct expansion oracle
    assert [trinomial_middle(n) for n in range(4)] == [1, 6, 90, 1554]


def test_recurrence_term_by_term_at_zero():
    c0, c1, c2 = golden.RECURRENCE_COEFFS
    assert c0(0) == 194400
    assert c1(0) == -486000
    assert c2(0) == 30240
    assert c0(0) * 1 + c1(0) * 6 + c2(0) * 90 == 0


def test_recurrence_holds_exactly():
    check = verify_recurrence(50)
    assert check.all_zero and check.first_failure is None


def test_recurrence_detects_corruption():
    corrupted = lambda n: 91 if n == 2 else trinomial_middle(n)
    check = verify_recurrence(10, d=corrupted)
    assert not check.all_zero
    assert check.first_failure == 0


def test_recurrence_validates_input():
    with pytest.raises(ValueError):
        verify_recurrence(1)


def test_recurrence_ceiling_refused_at_once():
    with pytest.raises(ValueError, match=str(RECURRENCE_MAX_N)):
        verify_recurrence(RECURRENCE_MAX_N + 1)


def test_recurrence_leaves_the_row_cache_alone():
    # the rows (3n, 3) are computed as prefixes and dropped; caching them
    # all took about 1 GB at n_max = 1000
    qnomial_module.clear_cache()
    assert verify_recurrence(60).all_zero
    assert not qnomial_module._rows


def test_characteristic_root_digits():
    assert ulp_distance(characteristic_root(18),
                        golden.CHARACTERISTIC_ROOT_DIGITS) <= 1


def test_characteristic_root_satisfies_quadratic():
    a, b, c = golden.CHAR_QUADRATIC
    root = characteristic_root(40)
    residual = a * root.pow_int(2) + b * root + c
    assert abs(residual.as_fraction()) < Fraction(1, 10**33)
    # Vieta: the two roots of the quadratic sum to -b/a and multiply to c/a
    other = (BigFixed.from_int(5589, 50)
             - 891 * BigFixed.from_int(33, 50).sqrt()) / 512
    assert abs((root + other).as_fraction() - Fraction(-b, a)) < Fraction(1, 10**30)
    assert abs((root * other).as_fraction() - Fraction(c, a)) < Fraction(1, 10**30)


def test_alpha_digits_and_cube():
    assert ulp_distance(alpha(19), golden.ALPHA_DIGITS) <= 1
    cube = alpha(40).pow_int(3)
    assert abs((cube - characteristic_root(40)).as_fraction()) \
        < Fraction(1, 10**36)


def test_alpha_matches_saddle_constant():
    a = alpha(30)
    c = growth_constant(3, 30)
    assert abs((a - c).as_fraction()) < Fraction(1, 10**28)


def test_saddle_q2_closed_form():
    sp = saddle_point(2, 30)
    assert sp.x0.decimal() == "0.500000000000000000000000000000"
    # constant = 1.5 * 2^(1/3), so its cube is exactly 6.75
    cube = sp.constant.pow_int(3)
    assert abs(cube.as_fraction() - Fraction(27, 4)) < Fraction(1, 10**27)


def test_saddle_q3_root_equation():
    sp = saddle_point(3, 40)
    x = sp.x0
    residual = 4 * x.pow_int(2) + x - 2
    assert abs(residual.as_fraction()) < Fraction(1, 10**38)
    assert abs(sp.residual.as_fraction()) < Fraction(1, 10**40)


def test_growth_constants_monotone_and_below_q():
    previous = None
    for q in range(2, 32):
        value = float(growth_constant(q, 30))
        assert value < q
        if previous is not None:
            assert value > previous
        previous = value


def test_growth_table_census():
    # every entry within 1 ulp of the pinned digits
    for q, pinned in golden.GROWTH_TABLE.items():
        assert ulp_distance(growth_constant(q), pinned) <= 1, q


def test_growth_table_mpmath_oracle():
    # independent of capbound.asymptotics: mpmath finds the root x0 in (0,1)
    # of the saddle polynomial sum_{i<q} (3i-(q-1)) x^i at 50 digits and
    # evaluates f(x0)*x0^(-(q-1)/3) with f = 1 + x + ... + x^(q-1)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        def constant(q):
            saddle = [3 * i - (q - 1) for i in reversed(range(q))]
            x0 = mpmath.findroot(lambda x: mpmath.polyval(saddle, x),
                                 (0, 1), solver="anderson")
            assert 0 < x0 < 1
            assert abs(mpmath.polyval(saddle, x0)) < mpmath.mpf(10) ** -45
            return mpmath.polyval([1] * q, x0) * x0 ** (-mpmath.mpf(q - 1) / 3)

        def ulps(pinned, value):
            places = len(pinned.partition(".")[2])
            return abs(mpmath.mpf(pinned) - value) * mpmath.mpf(10) ** places

        def shortfall(pinned, value):
            # true minus pinned, in units of the pinned string's last place
            places = len(pinned.partition(".")[2])
            return (value - mpmath.mpf(pinned)) * mpmath.mpf(10) ** places

        for q, pinned in golden.GROWTH_TABLE.items():
            assert ulps(pinned, constant(q)) <= 1, q
            # every entry is truncated: at or below the constant, by < 1 ulp
            assert 0 <= shortfall(pinned, constant(q)) < 1, q
        # the reference's former q=8 string, one digit off
        assert ulps("7.0015547549940074584", constant(8)) > 2


def test_ratio_method_agrees_small_q():
    for q in (2, 3):
        saddle = float(growth_constant(q))
        ratio = growth_constant_ratio(q, 120)
        assert abs(saddle - ratio) / saddle < 1e-4
    with pytest.raises(ValueError):
        growth_constant_ratio(3, 100)
    with pytest.raises(ValueError):
        growth_constant_ratio(3, 12)


def test_leading_constant_closed_form_digits():
    # frozen from the closed form (3/(1-x0) - 1)/sqrt(2*pi*x0*mu'(x0)); the
    # pinned reference value agrees with this to 10 significant digits
    assert leading_constant(19).decimal() == "3.3267627464655448561"
    pinned = BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS)
    rel = abs((leading_constant(19) - pinned).as_fraction()
              / pinned.as_fraction())
    assert rel < Fraction(1, 10**10)


def test_leading_constant_digit_check_exact_agreement():
    # the pinned string itself agrees in all 20 of its significant digits
    ok, detail = leading_constant_digit_check(
        BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS))
    assert ok
    assert "20 significant digits agree" in detail
    ok, detail = leading_constant_digit_check(leading_constant(19))
    assert ok
    assert "10 significant digits agree" in detail
    ok, detail = leading_constant_digit_check(leading_constant(8))
    assert not ok


def test_leading_constant_empirical_small_ladder():
    value = float(leading_constant(19))
    estimate = leading_constant_empirical((150, 300, 600))
    assert abs(estimate - value) / value < 1e-3
    with pytest.raises(ValueError):
        leading_constant_empirical((100, 200))
    with pytest.raises(ValueError):
        leading_constant_empirical((300, 900))


def test_first_correction_small_n():
    estimate = first_correction_estimate(600)
    assert estimate < 0
    assert abs(estimate - golden.FIRST_CORRECTION) \
        / abs(golden.FIRST_CORRECTION) < 0.05
    with pytest.raises(ValueError):
        first_correction_estimate(500)


def test_normalized_sharp_bound_behaves():
    # C * (1 + c1/n + ...) with C ~ 3.327 and c1 ~ -5.15: increasing in n,
    # below C, and within 5% of C by n = 150
    s150 = normalized_sharp_bound(150)
    s300 = normalized_sharp_bound(300)
    c = float(leading_constant(19))
    assert s150 < s300 < c
    assert abs(s150 - c) / c < 0.05


def test_digit_validation():
    with pytest.raises(ValueError):
        alpha(0)
    with pytest.raises(ValueError):
        characteristic_root(-3)
    with pytest.raises(ValueError):
        saddle_point(1, 10)
    # the ceilings refuse before computing anything
    for call in (lambda: alpha(MAX_DIGITS + 1),
                 lambda: characteristic_root(MAX_DIGITS + 1),
                 lambda: leading_constant(MAX_DIGITS + 1),
                 lambda: saddle_point(3, MAX_DIGITS + 1),
                 lambda: saddle_point(MAX_Q + 1),
                 lambda: growth_constant_ratio(MAX_Q + 1)):
        with pytest.raises(ValueError, match="must be in"):
            call()


def test_digit_ceiling_admits_the_guard_digits(monkeypatch):
    # alpha and leading_constant work GUARD digits past what they were
    # asked for; at the ceiling that must not trip the ceiling itself
    monkeypatch.setattr(asymptotics, "MAX_DIGITS", 57)
    assert alpha(57).decimal().startswith("2.7551046130236330002")
    assert leading_constant(57).decimal().startswith("3.326762746")
    with pytest.raises(ValueError):
        alpha(58)
