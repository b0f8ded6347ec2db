"""Fixed-point arithmetic against Fraction and math.isqrt oracles."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import fixedpoint
from capbound.cli import _unlimited_int_digits
from capbound.fixedpoint import (BigFixed, _pow_interval, div_nearest,
                                 icbrt_newton, isqrt_newton, pi)


def test_isqrt_matches_math_isqrt():
    rng = random.Random(1)
    values = [0, 1, 2, 3, 4, 8, 9, 10**40, 10**40 + 1]
    values += [rng.randrange(10**rng.randint(1, 60)) for _ in range(200)]
    for v in values:
        assert isqrt_newton(v) == math.isqrt(v)
    for k in range(1, 50):
        assert isqrt_newton(k * k) == k
        assert isqrt_newton(k * k - 1) == k - 1


def test_icbrt_floor_property():
    rng = random.Random(2)
    values = [0, 1, 2, 7, 8, 9, 26, 27, 28]
    values += [rng.randrange(10**rng.randint(1, 60)) for _ in range(200)]
    for v in values:
        r = icbrt_newton(v)
        assert r**3 <= v < (r + 1) ** 3
    for k in range(1, 50):
        assert icbrt_newton(k**3) == k
        assert icbrt_newton(k**3 - 1) == k - 1


@settings(deadline=None, max_examples=200)
@given(root=st.integers(1, 2**3000), offset=st.integers(-1, 1))
def test_icbrt_past_the_small_root(root, offset):
    # above 192 bits the inverse root's Newton ladder gives the estimate;
    # around exact cubes the floor must still come out exactly
    n = root**3 + offset
    r = icbrt_newton(n)
    assert r == (root - 1 if offset < 0 else root)


@settings(deadline=None, max_examples=300)
@given(b=st.integers(0, 2**300), e=st.integers(0, 3000),
       w=st.integers(32, 256))
def test_pow_interval_brackets_the_power(b, e, w):
    lo, hi, s = _pow_interval(b, e, w)
    assert s >= 0
    assert lo << s <= b**e <= hi << s
    if b:
        # relative width at most 2^(-w + 2*ceil(log2 e) + 2)
        assert (hi - lo) * 2 ** (w - 2 * (e - 1).bit_length() - 2) <= lo


def test_pow_interval_is_exact_while_it_fits():
    assert _pow_interval(3, 20, 64) == (3**20, 3**20, 0)
    assert _pow_interval(7, 0, 8) == (1, 1, 0)
    assert _pow_interval(0, 5, 8) == (0, 0, 0)
    lo, hi, s = _pow_interval(2, 1000, 16)
    assert lo == hi and lo << s == 2**1000


@settings(deadline=None, max_examples=40)
@given(bits=st.integers(200, 300_000), seed=st.integers(0, 2**32),
       kind=st.sampled_from(["any", "cube - 1", "cube", "cube + 1"]))
def test_icbrt_floor_property_up_to_300000_bits(bits, seed, kind):
    rng = random.Random(seed)
    if kind == "any":
        n = rng.getrandbits(bits) | 1 << bits - 1
    else:
        root = rng.getrandbits(bits // 3) | 1 << bits // 3 - 1
        n = root**3 + {"cube - 1": -1, "cube": 0, "cube + 1": 1}[kind]
    r = icbrt_newton(n)
    assert r**3 <= n < (r + 1) ** 3


@pytest.mark.parametrize("off", [-7, -2, -1, 1, 2, 7])
def test_icbrt_steps_a_poor_estimate_to_the_floor(monkeypatch, off):
    # the unit steps and the floor check, not the estimate, decide the
    # result
    estimate = fixedpoint._cbrt_estimate
    monkeypatch.setattr(fixedpoint, "_cbrt_estimate",
                        lambda n: estimate(n) + off)
    root = 3**200 + 12345
    for n in (root**3 - 1, root**3, root**3 + 1, root**3 + 3 * root**2):
        r = icbrt_newton(n)
        assert r**3 <= n < (r + 1) ** 3


def test_negative_roots_rejected():
    with pytest.raises(ValueError):
        isqrt_newton(-1)
    with pytest.raises(ValueError):
        icbrt_newton(-8)


def as_fraction(bf):
    return Fraction(bf.mantissa, 10**bf.scale)


def test_arithmetic_against_fractions():
    rng = random.Random(3)
    scale = 30
    ulp = Fraction(1, 10**scale)
    for _ in range(200):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        fa = BigFixed.from_ratio(a.numerator, a.denominator, scale)
        fb = BigFixed.from_ratio(b.numerator, b.denominator, scale)
        assert abs(as_fraction(fa + fb) - (a + b)) <= 2 * ulp
        assert abs(as_fraction(fa - fb) - (a - b)) <= 2 * ulp
        assert abs(as_fraction(fa * fb) - a * b) <= (abs(a) + abs(b) + 2) * ulp
        if b != 0:
            assert abs(as_fraction(fa / fb) - a / b) <= \
                (abs(a / b) + abs(1 / b) + 2) * ulp


def test_decimal_string_roundtrip():
    for text in ("3.1415", "-0.001", "20.912901011846452219", "7", "-12.50"):
        bf = BigFixed.from_decimal(text)
        assert bf.decimal() == text.lstrip("+")
    assert BigFixed.from_decimal("2.75").mantissa == 275
    assert BigFixed.from_decimal("-2.75").mantissa == -275
    with pytest.raises(ValueError):
        BigFixed.from_decimal("12,5")


def test_to_scale_rounding():
    bf = BigFixed.from_decimal("1.23456")
    assert bf.to_scale(3).decimal() == "1.235"
    assert bf.to_scale(8).decimal() == "1.23456000"
    assert BigFixed.from_decimal("-1.5").to_scale(0).mantissa == -1


def test_sqrt_cbrt_and_powers():
    rng = random.Random(4)
    scale = 40
    for _ in range(50):
        value = BigFixed.from_ratio(rng.randint(1, 10**8),
                                    rng.randint(1, 10**4), scale)
        sq = value.pow_int(2)
        assert abs(as_fraction(sq.sqrt()) - as_fraction(value)) \
            <= Fraction(2, 10**scale)
        cb = value.pow_int(3)
        assert abs(as_fraction(cb.cbrt()) - as_fraction(value)) \
            <= Fraction(2, 10**scale)
        k = rng.randint(0, 6)
        repeated = BigFixed.from_int(1, scale)
        for _ in range(k):
            repeated = repeated * value
        assert abs(as_fraction(value.pow_int(k)) - as_fraction(repeated)) \
            <= Fraction(k + 1, 10**scale) * max(1, abs(as_fraction(repeated)))


def test_comparisons():
    a = BigFixed.from_decimal("1.5")
    b = BigFixed.from_decimal("1.50000001")
    assert a < b and b > a and a <= a and a >= a
    assert not a > b


def test_pi_digits():
    # rounded (not truncated) at the 40th decimal
    want = "3.1415926535897932384626433832795028841972"
    assert pi(40).decimal() == want
    assert float(pi(20)) == pytest.approx(math.pi, abs=1e-15)


def arctan_pi(scale):
    """pi at the given scale by the arctangent identity
    pi = 16*atan(1/5) - 4*atan(1/239), summed in exact integers: the
    series pi was computed by before Chudnovsky's, kept as a reference."""
    work = scale + 10

    def atan_inv(k):
        # atan(1/k) * 10^work as an integer, alternating series
        total = 0
        term_num = 10**work // k
        ksq = k * k
        i = 0
        while term_num:
            sign = -1 if i % 2 else 1
            total += sign * (term_num // (2 * i + 1))
            term_num //= ksq
            i += 1
        return total

    raw = 16 * atan_inv(5) - 4 * atan_inv(239)
    return BigFixed(div_nearest(raw, 10**10), scale)


def test_pi_matches_the_arctangent_series():
    for scale in range(1, 1201):
        assert pi(scale) == arctan_pi(scale), scale
    with _unlimited_int_digits():
        assert pi(30_010) == arctan_pi(30_010)


def test_pi_undecided_rounding_adds_guard_digits(monkeypatch):
    # an approximation whose bracket straddles a rounding boundary must
    # not be rounded; pi retries with 10 more guard digits
    scaled = fixedpoint._pi_scaled
    calls = []

    def straddling(work):
        calls.append(work)
        if len(calls) == 1:
            unit = 10 ** (work - 40)
            return scaled(work) // unit * unit + unit // 2
        return scaled(work)

    monkeypatch.setattr(fixedpoint, "_pi_scaled", straddling)
    assert pi(40).decimal() == "3.1415926535897932384626433832795028841972"
    assert calls == [50, 60]


# Exact properties against Fraction: a rounded result is the round-half-up
# (toward +infinity) of the exact result at the target scale, a sum or
# difference is exact, and a root is the floor of the exact root.
scales = st.integers(0, 30)
fixeds = st.builds(BigFixed, st.integers(-10**40, 10**40), scales)
nonzero_fixeds = fixeds.filter(lambda x: x.mantissa != 0)
operands = st.one_of(fixeds, st.integers(-10**12, 10**12))


def half_up(value: Fraction, scale: int) -> int:
    return math.floor(value * 10**scale + Fraction(1, 2))


def exact(value) -> Fraction:
    if isinstance(value, BigFixed):
        return value.as_fraction()
    return Fraction(value)


def result_scale(x: BigFixed, y) -> int:
    return max(x.scale, y.scale) if isinstance(y, BigFixed) else x.scale


@given(st.integers(-10**40, 10**40),
       st.integers(-10**20, 10**20).filter(bool), scales)
def test_from_ratio_rounds_half_up(num, den, scale):
    bf = BigFixed.from_ratio(num, den, scale)
    assert bf.scale == scale
    assert bf.mantissa == half_up(Fraction(num, den), scale)


@given(fixeds, scales)
def test_to_scale_rounds_half_up(x, scale):
    y = x.to_scale(scale)
    assert y.scale == scale
    assert y.mantissa == half_up(x.as_fraction(), scale)


@given(fixeds, operands)
def test_sum_and_difference_are_exact(x, y):
    s = result_scale(x, y)
    for result, want in ((x + y, exact(x) + exact(y)),
                         (y + x, exact(x) + exact(y)),
                         (x - y, exact(x) - exact(y)),
                         (y - x, exact(y) - exact(x))):
        assert result.scale == s
        assert result.as_fraction() == want


@given(fixeds, operands)
def test_product_rounds_half_up(x, y):
    s = result_scale(x, y)
    for result in (x * y, y * x):
        assert result.scale == s
        assert result.mantissa == half_up(exact(x) * exact(y), s)


@given(fixeds, st.one_of(nonzero_fixeds, st.integers(-10**12, 10**12)
                         .filter(bool)))
def test_quotient_rounds_half_up(x, y):
    s = result_scale(x, y)
    result = x / y
    assert result.scale == s
    assert result.mantissa == half_up(exact(x) / exact(y), s)
    if x.mantissa:
        assert (y / x).mantissa == half_up(exact(y) / exact(x), s)


@given(fixeds)
def test_sqrt_is_the_floor_root(x):
    if x.mantissa < 0:
        with pytest.raises(ValueError):
            x.sqrt()
        return
    m = x.sqrt().mantissa
    # m / 10^s <= sqrt(x) < (m + 1) / 10^s
    assert m >= 0
    assert m * m <= x.as_fraction() * 10**(2 * x.scale) < (m + 1) ** 2


@given(fixeds)
def test_cbrt_is_the_floor_root_of_the_magnitude(x):
    root = x.cbrt()
    m, value = abs(root.mantissa), abs(x.as_fraction())
    assert root.scale == x.scale
    assert m**3 <= value * 10**(3 * x.scale) < (m + 1) ** 3
    assert (root.mantissa < 0) == (x.mantissa < 0 and m > 0)
