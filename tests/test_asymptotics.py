"""Recurrence verification, root digits, saddle-point constants, and the
two cross-method agreement checks at unit-test scale."""
import hashlib
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capbound.qnomial as qnomial_module
from capbound import asymptotics, golden
from capbound.acceptance import leading_constant_digit_check, pinned_gap
from capbound.bounds import sharp_bound
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
from capbound.fixedpoint import BigFixed, div_nearest, icbrt_newton
from capbound.qnomial import row_prefix

try:
    import mpmath
except ImportError:  # a test extra; the oracle test skips without it
    mpmath = None


def test_middle_coefficients():
    # frozen from the direct expansion oracle
    assert [trinomial_middle(n) for n in range(4)] == [1, 6, 90, 1554]


def test_middle_coefficients_match_row_prefixes():
    # the term-ratio sum against the row engine as an oracle
    for n in range(0, 81):
        assert trinomial_middle(n) == row_prefix(3 * n, 3, 2 * n)[-1], n


def test_inexact_term_ratio_raises(monkeypatch):
    # a remainder must stop the sum, never be floored away
    monkeypatch.setattr(asymptotics, "divmod",
                        lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ArithmeticError, match="not exact"):
        trinomial_middle(3)
    monkeypatch.undo()
    assert trinomial_middle(3) == 1554


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
    # d(n) comes from its own term ratio, not from the rows (3n, 3);
    # caching those rows took about 1 GB at n_max = 1000
    qnomial_module.clear_cache()
    assert verify_recurrence(60).all_zero
    assert not qnomial_module._rows


def test_characteristic_root_digits():
    gap, unit, _ = pinned_gap(characteristic_root(18),
                              golden.CHARACTERISTIC_ROOT_DIGITS)
    assert gap <= unit


def test_characteristic_root_satisfies_quadratic():
    a, b, c = golden.CHAR_QUADRATIC
    root = characteristic_root(40).as_fraction()
    assert abs(a * root**2 + b * root + c) < Fraction(1, 10**33)
    # Vieta: the two roots of the quadratic sum to -b/a and multiply to c/a
    other = Fraction(5589 * 10**50 - 891 * math.isqrt(33 * 10**100),
                     512 * 10**50)
    assert abs(root + other - Fraction(-b, a)) < Fraction(1, 10**30)
    assert abs(root * other - Fraction(c, a)) < Fraction(1, 10**30)


def test_char_quadratic_is_the_recurrence_limit():
    # the coefficient polynomials have degree 6, and their n^6
    # coefficients (the 6th finite difference / 6!) are 11 times
    # CHAR_QUADRATIC reversed: the limit of d(n+1)/d(n) is its root
    leading = []
    for c in golden.RECURRENCE_COEFFS:
        values = [c(n) for n in range(8)]
        for _ in range(6):
            values = [b - a for a, b in zip(values, values[1:])]
        sixth, seventh = values[0], values[1] - values[0]
        assert sixth % 720 == 0 and seventh == 0
        leading.append(sixth // 720)
    assert leading == [11 * x for x in reversed(golden.CHAR_QUADRATIC)]


@pytest.mark.parametrize("digits", [19, 40, 200])
def test_characteristic_root_brackets_the_larger_root(digits):
    # the quadratic is negative between its roots and positive above
    # them, so a sign change from - to + puts the larger root within one
    # unit in the last place
    a, b, c = golden.CHAR_QUADRATIC
    root = characteristic_root(digits).as_fraction()
    ulp = Fraction(1, 10**digits)
    low, high = (a * x * x + b * x + c for x in (root - ulp, root + ulp))
    assert low < 0 < high


def test_alpha_digits_and_cube():
    gap, unit, _ = pinned_gap(alpha(19), golden.ALPHA_DIGITS)
    assert gap <= unit
    cube = alpha(40).as_fraction() ** 3
    assert abs(cube - characteristic_root(40).as_fraction()) \
        < Fraction(1, 10**36)


def test_alpha_matches_saddle_constant():
    a = alpha(30).as_fraction()
    c = growth_constant(3, 30).as_fraction()
    assert abs(a - c) < Fraction(1, 10**28)


def _rounded_root(d):
    """(5589 + 891 sqrt(33))/512 rounded half up to d places, in integers:
    floor((11178 10^d + 512 + 1782 sqrt(33) 10^d) / 1024)."""
    return (11178 * 10**d + 512 + math.isqrt(1782**2 * 33 * 10 ** (2 * d))) \
        // 1024


def _rounded_alpha(d):
    """The cube root of the characteristic root rounded half up to d
    places: half of floor(2 alpha 10^d) + 1, where (2 alpha 10^d)^3 =
    (5589 + 891 sqrt(33)) 10^(3d) / 64."""
    eight_cubed = (5589 * 10 ** (3 * d)
                   + math.isqrt(891**2 * 33 * 10 ** (6 * d))) // 64
    return (icbrt_newton(eight_cubed) + 1) // 2


def test_root_and_alpha_are_correctly_rounded():
    # integer oracles with no floats: every precision to 2,000 digits and
    # the 30,000-digit ceiling
    for d in list(range(1, 2001)) + [MAX_DIGITS]:
        assert characteristic_root(d) == BigFixed(_rounded_root(d), d), d
        assert alpha(d) == BigFixed(_rounded_alpha(d), d), d


def test_leading_constant_root_is_the_saddle_root():
    # leading_constant takes x0 at q = 3 in closed form, (sqrt(33) - 1)/8
    # floored to 2^-bits; the root finder's x0 at the same bits lies
    # within one unit of it
    for d in list(range(1, 1001)) + [5000]:
        x, bits = asymptotics._saddle_root(3, d)[:2]
        closed = (math.isqrt(33 << 2 * bits) - (1 << bits)) >> 3
        assert abs(x - closed) <= 1, d


@pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")
@settings(deadline=None, max_examples=40)
@given(digits=st.integers(1, 600))
def test_leading_constant_matches_mpmath(digits):
    # the closed form at x0 = (sqrt(33) - 1)/8, the root of 4x^2 + x - 2,
    # evaluated by mpmath at 20 extra digits
    with mpmath.workdps(digits + 20):
        x = (mpmath.sqrt(33) - 1) / 8
        f = 1 + x + x * x
        c = (2 + x) * f / ((1 - x) * mpmath.sqrt(
            2 * mpmath.pi * x * (1 + 4 * x + x * x)))
        unit = mpmath.mpf(10) ** digits
        assert abs(mpmath.mpf(leading_constant(digits).mantissa)
                   - c * unit) <= 1


@pytest.mark.parametrize("function,sha256", [
    (characteristic_root,
     "a9f72f8d25e45b7d4770ebf867188f46451a193920db2727f811e07e5c9f731b"),
    (alpha,
     "456ba6af8c933f11128bc3e11e0792fd749da10e36c231723d10d96321278559"),
    (leading_constant,
     "319418734a62889456da3c182a5bbe0564afa5c945d9257af4641fef4b5c8816"),
], ids=["characteristic_root", "alpha", "leading_constant"])
def test_constant_digests_at_3000_digits(function, sha256):
    # SHA-256 of the decimals as decimal fixed point computed them, pinned
    # before these constants moved to binary mantissas
    text = function(3000).decimal()
    assert len(text.partition(".")[2]) == 3000
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_saddle_q2_closed_form():
    sp = saddle_point(2, 30)
    assert sp.x0.decimal() == "0.500000000000000000000000000000"
    # constant = 1.5 * 2^(1/3), so its cube is exactly 6.75
    cube = sp.constant.as_fraction() ** 3
    assert abs(cube - Fraction(27, 4)) < Fraction(1, 10**27)


def test_saddle_q3_root_equation():
    sp = saddle_point(3, 40)
    x = sp.x0.as_fraction()
    assert abs(4 * x**2 + x - 2) < Fraction(1, 10**38)
    assert abs(sp.residual.as_fraction()) < Fraction(1, 10**40)


def _g_exact(q, x):
    # g(m/d) = sum_j g_j m^j d^(q-1-j) / d^(q-1): one exact Fraction
    m, d = x.numerator, x.denominator
    return Fraction(sum((3 * j - (q - 1)) * m**j * d ** (q - 1 - j)
                        for j in range(q)), d ** (q - 1))


@settings(deadline=None, max_examples=60)
@given(q=st.integers(2, MAX_Q), digits=st.integers(1, 300))
def test_saddle_root_bracketed_exactly(q, digits):
    # x0 is the root rounded to `digits` places, so one unit of the last
    # place on either side brackets the single sign change of g
    x0 = saddle_point(q, digits).x0.as_fraction()
    ulp = Fraction(1, 10**digits)
    assert _g_exact(q, x0 - ulp) < 0 < _g_exact(q, x0 + ulp)


@pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")
@settings(deadline=None, max_examples=40)
@given(q=st.integers(2, MAX_Q), digits=st.integers(1, 300))
def test_saddle_point_matches_mpmath(q, digits):
    # independent root: mpmath's bracketing solver at 20 extra digits
    sp = saddle_point(q, digits)
    with mpmath.workdps(digits + 20):
        saddle = [3 * i - (q - 1) for i in reversed(range(q))]
        x0 = mpmath.findroot(lambda x: mpmath.polyval(saddle, x), (0, 1),
                             solver="anderson")
        constant = (mpmath.polyval([1] * q, x0)
                    * x0 ** (-mpmath.mpf(q - 1) / 3))
        unit = mpmath.mpf(10) ** digits
        assert abs(mpmath.mpf(sp.x0.mantissa) - x0 * unit) <= 1
        assert abs(mpmath.mpf(sp.constant.mantissa) - constant * unit) <= 1


def test_saddle_point_5000_digits_is_fast():
    # 120 bisection steps at full precision took 4.2 s (Python 3.11, 2-core
    # VM); exact bisection and the Newton ladder took 0.2 s there on
    # decimal fixed point, and take 0.05 s on binary mantissas
    started = time.perf_counter()
    asymptotics.saddle_point(31, 5000)
    assert time.perf_counter() - started < 2.0


def test_saddle_point_counters():
    sp = saddle_point(31, 600)
    work = 600 + asymptotics.GUARD
    assert sp.counters["bisection_steps"] == asymptotics.BISECTION_STEPS
    assert sp.counters["work_digits"] == work
    precisions = list(sp.counters["newton_steps"])
    assert precisions == sorted(precisions) and precisions[-1] == work
    # the ladder doubles the precision, so it has about log2(work/19) steps,
    # and the full-precision loop only confirms a stationary mantissa
    assert len(precisions) <= 7
    assert 1 <= sp.counters["newton_steps"][work] <= 3
    assert set(sp.timings_ms) == {"bisection", "ladder", "newton",
                                  "residual", "constant"}
    # the cost fields take no part in comparisons
    assert sp == asymptotics.saddle_point(31, 600)


def _g_exact_dyadic(q, m, bits):
    return _g_exact(q, Fraction(m, 1 << bits))


def test_saddle_two_cycle_keeps_the_smaller_residual(monkeypatch):
    # where full-precision Newton 2-cycles, the kept element is the one
    # with the smaller |g| (then the smaller mantissa), not whichever the
    # loop stopped on.  Newton on h with its guard bits lands on the
    # mantissa a nearest the root and stays there, so over these cases it
    # never 2-cycles by itself.  The test forces a cycle: at a it sets h'
    # to |h| * 2^bits, so the step is the sign of h and moves x across
    # the root to a - sign(h), whose own step leads back; h itself, which
    # the residual is taken from, is left alone.  (At q = 2 the root 1/2
    # is a mantissa and h(a) = 0, so no slope moves it.)  Both elements
    # usually round to the same decimals, so the test reads the binary
    # values that x0 and the residual are converted from, and compares
    # them with exact g in Fraction.
    h_slope = asymptotics._h_slope
    to_decimal = asymptotics._to_decimal
    converted = []
    monkeypatch.setattr(asymptotics, "_to_decimal",
                        lambda v, bits, scale: converted.append(v)
                        or to_decimal(v, bits, scale))
    cycles = kept_first_met = 0
    for q in range(3, 7):
        for digits in range(1, 81):
            a, bits = asymptotics._saddle_root(q, digits)[:2]
            visited = []

            def forced(q_, x, bits_, a=a, bits=bits, visited=visited):
                h, slope, powers = h_slope(q_, x, bits_)
                if bits_ == bits:
                    visited.append(x)
                    if x == a and h:
                        slope = abs(h) << bits
                return h, slope, powers

            monkeypatch.setattr(asymptotics, "_h_slope", forced)
            converted.clear()
            sp = asymptotics.saddle_point(q, digits)
            monkeypatch.setattr(asymptotics, "_h_slope", h_slope)
            if sp.counters["stop"] != "two_cycle":
                assert sp.counters["stop"] == "stationary"
                continue
            cycles += 1
            cycle = set(visited[-2:])
            assert a in cycle and len(cycle) == 2
            x0, constant, residual = converted
            g = {m: _g_exact_dyadic(q, m, bits) for m in cycle}
            kept = min(cycle, key=lambda m: (abs(g[m]), m))
            assert x0 == kept
            # g carries the guard bits of h, within a 16th of 2^-bits
            guard = asymptotics._h_guard(q)
            assert abs(residual - g[kept] * 2 ** (bits + guard)) \
                <= 2 ** guard // 16
            assert sp.residual == to_decimal(residual, bits + guard,
                                             digits + asymptotics.GUARD)
            # the constant comes from the powers at the kept element,
            # which Newton took there, one step earlier if it came first
            below, top = asymptotics._powers(q, kept, bits)
            cube = icbrt_newton(asymptotics._rescale(
                below, bits + guard, bits) << 2 * bits)
            assert constant == div_nearest(
                ((1 << bits + guard) - top) << 2 * bits,
                (((1 << bits) - kept) << guard) * cube)
            kept_first_met += kept == visited[-2]
    assert cycles >= 10
    # the rule decides: it keeps the element the loop met first as well
    # as the one it met last
    assert 0 < kept_first_met < cycles


def test_saddle_refuses_newton_that_never_settles(monkeypatch):
    # with h = 2^-bits h' every Newton step moves x by -1, so the
    # full-precision loop meets neither a stationary mantissa nor a 2-cycle
    monkeypatch.setattr(asymptotics, "_h_slope",
                        lambda q, x, bits: (1, 1 << bits, None))
    with pytest.raises(ArithmeticError, match="200 steps"):
        asymptotics.saddle_point(5, 20)


def _h_poly(q, x):
    """h = (1-x)^2 g in the form _h_slope evaluates."""
    return (-(q - 1) + (q + 2) * x - (2 * q + 1) * x**q
            + 2 * (q - 1) * x ** (q + 1))


def _h_slope_poly(q, x):
    return (q + 2) - (2 * q * q + q) * x ** (q - 1) + 2 * (q * q - 1) * x**q


@settings(deadline=None, max_examples=200)
@given(q=st.integers(2, 11), num=st.integers(-10**6, 10**6),
       den=st.integers(1, 10**6))
def test_h_is_the_closed_form_of_g(q, num, den):
    # h = (1-x)^2 g and h' = (1-x)^2 g' - 2(1-x) g, exactly, with h also
    # in the form 3x(1 - q x^(q-1) + (q-1)x^q) - (q-1)(1 - x^q)(1 - x)
    # that f = (1 - x^q)/(1 - x) gives
    x = Fraction(num, den)
    g = _g_exact(q, x)
    gp = sum(j * (3 * j - (q - 1)) * x ** (j - 1) for j in range(1, q))
    h = _h_poly(q, x)
    assert h == (1 - x) ** 2 * g
    assert h == (3 * x * (1 - q * x ** (q - 1) + (q - 1) * x**q)
                 - (q - 1) * (1 - x**q) * (1 - x))
    assert _h_slope_poly(q, x) == (1 - x) ** 2 * gp - 2 * (1 - x) * g


@settings(deadline=None, max_examples=200)
@given(q=st.integers(2, MAX_Q), bits=st.integers(1, 400), data=st.data())
def test_h_slope_and_sign_against_exact_values(q, bits, data):
    # the fixed-point h and h' stay within q^2 and q^3 units of
    # 2^-(bits + guard) of the exact values, far inside the guard's
    # 2^guard >= 256 q^2, and the bisection reads the exact sign
    m = data.draw(st.integers(0, 2**bits))
    x = Fraction(m, 2**bits)
    unit = 2 ** (bits + asymptotics._h_guard(q))
    h, slope, powers = asymptotics._h_slope(q, m, bits)
    assert powers == asymptotics._powers(q, m, bits)
    assert abs(h - _h_poly(q, x) * unit) <= q * q
    assert abs(slope - _h_slope_poly(q, x) * unit) <= q**3
    exact = _h_poly(q, x)
    assert asymptotics._h_sign(q, m, bits) == (exact > 0) - (exact < 0)


def _horner(coeffs, x, bits):
    """The polynomial at x * 2^-bits, as a multiple of 2^-bits; each
    product rounds half up by a shift."""
    half = 1 << bits - 1
    acc = coeffs[-1] << bits
    for c in reversed(coeffs[:-1]):
        acc = ((acc * x + half) >> bits) + (c << bits)
    return acc


def _dyadic_sign(coeffs, m, k):
    """Sign of the polynomial at m/2^k, read off the integer
    2^(k*deg) * g(m/2^k) = sum_j g_j m^j 2^(k*(deg-j)): no rounding."""
    acc = coeffs[-1]
    for i, c in enumerate(reversed(coeffs[:-1]), 1):
        acc = acc * m + (c << k * i)
    return (acc > 0) - (acc < 0)


def _horner_saddle_point(q, digits):
    """The saddle point as it was computed before Newton moved to h, the
    reference for the h route: bisection on the sign of g, Newton on g and
    g' by q-term Horner chains on the same ladder and stop rules, the
    2-cycle element with the smaller Horner |g| kept, f(x0) by Horner
    and the exact power x0^(q-1).  Returns x0, the constant and the
    residual."""
    work = digits + asymptotics.GUARD
    g_coeffs = [3 * j - (q - 1) for j in range(q)]
    gp_coeffs = [j * g_coeffs[j] for j in range(1, q)]
    m = 0
    for k in range(1, asymptotics.BISECTION_STEPS + 1):
        m = 2 * m + (_dyadic_sign(g_coeffs, 2 * m + 1, k) < 0)
    x, bits = m, asymptotics.BISECTION_STEPS
    for p in asymptotics._ladder(work) + [work]:
        x, bits = asymptotics._rescale(x, bits, asymptotics._bits(p)), \
            asymptotics._bits(p)
        if p < work:
            x -= div_nearest(_horner(g_coeffs, x, bits) << bits,
                             _horner(gp_coeffs, x, bits))
    prev = prev_g = None
    for _ in range(200):
        g = _horner(g_coeffs, x, bits)
        nxt = x - div_nearest(g << bits, _horner(gp_coeffs, x, bits))
        if nxt == x:
            break
        if nxt == prev:
            x, g = min((x, g), (prev, prev_g),
                       key=lambda e: (abs(e[1]), e[0]))
            break
        prev, prev_g = x, g
        x = nxt
    else:
        raise ArithmeticError("Newton neither settled nor 2-cycled")
    power = asymptotics._rescale(x ** (q - 1), bits * (q - 1), bits)
    constant = div_nearest(_horner([1] * q, x, bits) << bits,
                           icbrt_newton(power << 2 * bits))
    return tuple(asymptotics._to_decimal(v, bits, scale) for v, scale in
                 ((x, digits), (constant, digits), (g, work)))


# (q, digits) of the grid below where the residual g(x0) moved when
# Newton moved to h: at four of them the h route stops one unit of
# 2^-bits away from the Horner route, so the residual changes sign; at
# the others the Horner chain's rounding, or the rounding of g to
# 2^-bits before the decimal one, had moved g(x0) across a decimal
# rounding boundary
RESIDUAL_MOVES = {(17, 35), (17, 70), (18, 3), (24, 76), (32, 22), (39, 1),
                  (39, 2), (43, 4), (43, 21), (45, 41), (50, 53), (54, 16),
                  (55, 68), (57, 38), (64, 26)}


def test_saddle_point_matches_the_horner_reference():
    # every q and every precision up to 80 digits: x0 and the constant
    # keep every digit, and the residual moves only where listed
    moved = set()
    for q in range(2, MAX_Q + 1):
        for digits in range(1, 81):
            sp = asymptotics.saddle_point(q, digits)
            x0, constant, residual = _horner_saddle_point(q, digits)
            assert (sp.x0, sp.constant) == (x0, constant), (q, digits)
            if sp.residual != residual:
                moved.add((q, digits))
    assert moved == RESIDUAL_MOVES


def _residual_is_rounded_exact_g(q, digits):
    # the residual is exact g at the binary x0, rounded half up to the
    # working digits
    x, bits = asymptotics._saddle_root(q, digits)[:2]
    work = digits + asymptotics.GUARD
    exact = _g_exact_dyadic(q, x, bits) * 10**work
    return asymptotics.saddle_point(q, digits).residual == \
        BigFixed(math.floor(exact + Fraction(1, 2)), work)


@pytest.mark.parametrize("q,digits", sorted(RESIDUAL_MOVES))
def test_moved_residuals_are_rounded_exact_values(q, digits):
    assert _residual_is_rounded_exact_g(q, digits)


@settings(deadline=None, max_examples=60)
@given(q=st.integers(2, MAX_Q), digits=st.integers(1, 300))
def test_residual_is_the_rounded_exact_value(q, digits):
    assert _residual_is_rounded_exact_g(q, digits)


def _to_scale(x, scale, to_scale):
    """x * 10^-scale as a multiple of 10^-to_scale, rounding half up."""
    if to_scale >= scale:
        return x * 10 ** (to_scale - scale)
    return div_nearest(x, 10 ** (scale - to_scale))


def _decimal_horner(coeffs, x, p):
    """The polynomial at x * 10^-p, as a multiple of 10^-p; each product
    rounds half up by a division by 10^p."""
    unit = 10**p
    acc = coeffs[-1] * unit
    for c in reversed(coeffs[:-1]):
        acc = div_nearest(acc * x, unit) + c * unit
    return acc


def _decimal_saddle_point(q, digits):
    """The saddle point on decimal mantissas, as it was computed before
    the binary ones: the same bisection, ladder and stop rules, with every
    product and quotient rounded half up at 10^-p.  Returns x0 and the
    constant at `digits`."""
    work = digits + asymptotics.GUARD
    g_coeffs = [3 * j - (q - 1) for j in range(q)]
    gp_coeffs = [j * g_coeffs[j] for j in range(1, q)]
    m = 0
    for k in range(1, asymptotics.BISECTION_STEPS + 1):
        m = 2 * m + (_dyadic_sign(g_coeffs, 2 * m + 1, k) < 0)
    scale = asymptotics.LADDER_START
    x = div_nearest((2 * m + 1) * 10**scale,
                    2 ** (asymptotics.BISECTION_STEPS + 1))
    for p in asymptotics._ladder(work):
        x, scale = _to_scale(x, scale, p), p
        x -= div_nearest(_decimal_horner(g_coeffs, x, p) * 10**p,
                         _decimal_horner(gp_coeffs, x, p))
    x = _to_scale(x, scale, work)
    unit = 10**work
    prev = prev_g = None
    for _ in range(200):
        g = _decimal_horner(g_coeffs, x, work)
        nxt = x - div_nearest(g * unit, _decimal_horner(gp_coeffs, x, work))
        if nxt == x:
            break
        if nxt == prev:
            x, g = min((x, g), (prev, prev_g),
                       key=lambda e: (abs(e[1]), e[0]))
            break
        prev, prev_g = x, g
        x = nxt
    else:
        raise ArithmeticError("Newton neither settled nor 2-cycled")
    # x0^(q-1) rounded to 10^-work, then its floor cube root
    power = div_nearest(x ** (q - 1), unit ** (q - 2))
    constant = div_nearest(_decimal_horner([1] * q, x, work) * unit,
                           icbrt_newton(power * unit**2))
    return (BigFixed(_to_scale(x, work, digits), digits),
            BigFixed(_to_scale(constant, work, digits), digits))


@settings(deadline=None, max_examples=100)
@given(q=st.integers(2, MAX_Q), digits=st.integers(1, 300))
def test_saddle_point_matches_the_decimal_reference(q, digits):
    # binary mantissas and one radix conversion give the very digits that
    # decimal fixed point gave, not merely digits within an ulp
    sp = asymptotics.saddle_point(q, digits)
    assert (sp.x0, sp.constant) == _decimal_saddle_point(q, digits)


@pytest.mark.parametrize("q,digits,x0_sha256,constant_sha256", [
    (3, 3000,
     "06f08cc9e5717d0d95d4307f370cd30d0bd452315b7ee51a1b154c522456cb60",
     "456ba6af8c933f11128bc3e11e0792fd749da10e36c231723d10d96321278559"),
    (31, 3000,
     "a3c3e8c53af4bdad0656a9b6fb56991fc5ee6b8fdd7b3350cfec6f97d745b03a",
     "2c9990935851162c415793cc53018d78ebfc9d97fd97fcc10f1279484cfe634e"),
    (64, 10000,
     "ab19a6d4820c2076aa1ab6c2c5d51d7cc821b60e1fc40e5fc9ebb6087a56f1a7",
     "e74b2554bf71f2fba1f6436c082da7d36f95b75c0abd9b7f13f7e9022b2398bd"),
], ids=["q3-3000", "q31-3000", "q64-10000"])
def test_saddle_point_digests(q, digits, x0_sha256, constant_sha256):
    # SHA-256 of the x0 and constant decimals as decimal fixed point
    # computed them, pinned before the saddle point moved to binary
    sp = asymptotics.saddle_point(q, digits)
    x0, constant = sp.x0.decimal(), sp.constant.decimal()
    assert len(constant.partition(".")[2]) == digits
    assert hashlib.sha256(x0.encode()).hexdigest() == x0_sha256
    assert hashlib.sha256(constant.encode()).hexdigest() == constant_sha256


def test_saddle_point_works_in_binary():
    # ceil(work * log2 10) bits plus the guard bits, reported as counted
    sp = saddle_point(7, 90)
    work = 90 + asymptotics.GUARD
    bits = sp.counters["work_bits"] - asymptotics.GUARD_BITS
    assert 2 ** (bits - 1) < 10**work < 2**bits
    # the radix conversion rounds half up at the decimal scale
    assert asymptotics._to_decimal(1, 1, 0) == BigFixed(1, 0)
    assert asymptotics._to_decimal(-1, 1, 0) == BigFixed(0, 0)
    assert asymptotics._rescale(3, 2, 1) == 2
    assert asymptotics._rescale(-3, 2, 1) == -1
    assert asymptotics._rescale(3, 2, 5) == 24


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
        gap, unit, _ = pinned_gap(growth_constant(q), pinned)
        assert gap <= unit, q


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
        ratio = growth_constant_ratio(q)
        assert abs(saddle - ratio) / saddle < 1e-4


def test_ratio_method_matches_the_fraction_route():
    # int true division is correctly rounded, as float(Fraction(a1, a0))
    # is, so the estimate is the same double
    def rate(q, n):
        a0 = row_prefix(n, q, (q - 1) * n // 3)[-1]
        a1 = row_prefix(n + 3, q, (q - 1) * (n + 3) // 3)[-1]
        return float(Fraction(a1, a0)) ** (1.0 / 3.0)

    for q in golden.GROWTH_TABLE:
        by_fractions = (121.5 * rate(q, 120) - 61.5 * rate(q, 60)) / 60.0
        assert growth_constant_ratio(q) == by_fractions, q


def test_ratio_method_leaves_the_row_cache_alone():
    # it reads one coefficient of each of four rows from row prefixes
    qnomial_module.clear_cache()
    growth_constant_ratio(8)
    assert not qnomial_module._rows


def test_leading_constant_closed_form_digits():
    # frozen from the closed form (3/(1-x0) - 1)/sqrt(2*pi*x0*mu'(x0)); the
    # pinned reference value agrees with this to 10 significant digits
    assert leading_constant(19).decimal() == "3.3267627464655448561"
    pinned = BigFixed.from_decimal(
        golden.LEADING_CONSTANT_DIGITS).as_fraction()
    rel = abs((leading_constant(19).as_fraction() - pinned) / pinned)
    assert rel < Fraction(1, 10**10)


def test_leading_constant_digit_check_exact_agreement():
    # the pinned string itself agrees in all 20 of its significant digits
    ok, detail, rel, digits = leading_constant_digit_check(
        BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS))
    assert ok and (rel, digits) == (0, 20)
    assert "20 significant digits agree" in detail
    ok, detail, _, digits = leading_constant_digit_check(leading_constant(19))
    assert ok and digits == 10
    assert "10 significant digits agree" in detail
    ok, detail, _, digits = leading_constant_digit_check(leading_constant(8))
    assert not ok and digits < 10


def _ulps_by_fractions(value: BigFixed, pinned: str) -> Fraction:
    ref = BigFixed.from_decimal(pinned)
    return abs(value.as_fraction() - ref.as_fraction()) * 10**ref.scale


@settings(deadline=None, max_examples=300)
@given(mantissa=st.integers(-10**45, 10**45), scale=st.integers(0, 45),
       pinned=st.builds(BigFixed, st.integers(-10**25, 10**25),
                        st.integers(0, 25)))
@example(mantissa=2 * 10**30 + 10**10, scale=30,
         pinned=BigFixed(2 * 10**20, 20))  # exactly one ulp
@example(mantissa=2 * 10**30 + 10**10 + 1, scale=30,
         pinned=BigFixed(2 * 10**20, 20))  # just past it
@example(mantissa=-7, scale=0, pinned=BigFixed(-71, 1))
def test_pinned_gap_decides_as_fractions_do(mantissa, scale, pinned):
    value = BigFixed(mantissa, scale)
    exact = _ulps_by_fractions(value, pinned.decimal())
    gap, unit, size = pinned_gap(value, pinned.decimal())
    assert (gap <= unit) == (exact <= 1)
    assert gap / unit == float(exact)
    assert Fraction(size, unit) == abs(pinned.mantissa)


@settings(deadline=None, max_examples=300)
@given(offset=st.integers(-10**40, 10**40), scale=st.integers(1, 45))
@example(offset=0, scale=19)
@example(offset=33267627467425979588, scale=24)  # relative difference 10^-5
def test_digit_agreement_counts_as_fractions_do(offset, scale):
    ref = BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS).as_fraction()
    value = BigFixed(ref.numerator * 10**scale // ref.denominator + offset,
                     scale)
    rel = abs((value.as_fraction() - ref) / ref)
    digits = 0
    while digits < 20 and rel < Fraction(1, 10**(digits + 1)):
        digits += 1
    assert leading_constant_digit_check(value)[2:] == (float(rel), digits)


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


def test_normalized_sharp_bound_is_the_rounded_ratio():
    # one correctly rounded int division gives the float of the exact ratio
    a = alpha(40)
    for n in (3, 30, 150, 1200, 2400):
        num = (sharp_bound(n).value * math.isqrt(n * 10**80)
               * 10 ** (40 * n - 40))
        assert normalized_sharp_bound(n) == float(Fraction(num,
                                                           a.mantissa**n))


def _undecided_brackets(monkeypatch):
    """Patch the power bracket to one too wide for any rounding to agree
    at both ends, so normalized_sharp_bound falls back to the exact
    powers."""
    bracket = asymptotics._power_bracket

    def wide(b, e, w):
        lo, hi, s = bracket(b, e, w)
        return lo // 2, 2 * hi, s

    monkeypatch.setattr(asymptotics, "_power_bracket", wide)


def test_normalized_sharp_bound_falls_back_to_the_exact_ratio(monkeypatch):
    bracketed = {n: normalized_sharp_bound(n) for n in (3, 150, 2400)}
    _undecided_brackets(monkeypatch)
    a = alpha(40)
    for n, value in bracketed.items():
        num = (sharp_bound(n).value * math.isqrt(n * 10**80)
               * 10 ** (40 * n - 40))
        assert normalized_sharp_bound(n) == value == float(
            Fraction(num, a.mantissa**n))


@pytest.mark.parametrize("n", [0, -3, 1, 4, 299])
def test_normalized_sharp_bound_refuses_bad_n(n):
    with pytest.raises(ValueError, match="positive multiple of 3"):
        normalized_sharp_bound(n)


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


@pytest.mark.parametrize("call", [
    alpha, characteristic_root, leading_constant,
    lambda d: saddle_point(3, d),
], ids=["alpha", "characteristic_root", "leading_constant", "saddle_point"])
def test_digit_ceiling_holds_after_a_call(monkeypatch, call):
    # no result is kept between calls, so one computed below the ceiling
    # is refused once the ceiling drops under it
    call(58)
    monkeypatch.setattr(asymptotics, "MAX_DIGITS", 57)
    with pytest.raises(ValueError, match="must be in"):
        call(58)
