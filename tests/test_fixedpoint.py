"""Integer roots, power brackets, pi and the decimal exchange type
against Fraction and exact-integer oracles."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import fixedpoint
from capbound.fixedpoint import (BigFixed, _power_bracket, div_nearest,
                                 icbrt_newton, pi)


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
    lo, hi, s = _power_bracket(b, e, w)
    assert s >= 0
    assert lo << s <= b**e <= hi << s
    if b:
        # relative width at most 2^(-w + 2*ceil(log2 e) + 2)
        assert (hi - lo) * 2 ** (w - 2 * (e - 1).bit_length() - 2) <= lo


def test_pow_interval_is_exact_while_it_fits():
    assert _power_bracket(3, 20, 64) == (3**20, 3**20, 0)
    assert _power_bracket(7, 0, 8) == (1, 1, 0)
    assert _power_bracket(0, 5, 8) == (0, 0, 0)
    lo, hi, s = _power_bracket(2, 1000, 16)
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
        icbrt_newton(-8)


@settings(max_examples=300)
@given(mantissa=st.integers(-10**300, 10**300), scale=st.integers(0, 700))
def test_float_is_the_rounded_fraction(mantissa, scale):
    # down to the subnormals, where both round to a few bits or to 0
    assert float(BigFixed(mantissa, scale)) == float(
        Fraction(mantissa, 10**scale))


def test_decimal_string_roundtrip():
    for text in ("3.1415", "-0.001", "20.912901011846452219", "7", "-12.50"):
        bf = BigFixed.from_decimal(text)
        assert bf.decimal() == text.lstrip("+")
    assert BigFixed.from_decimal("2.75").mantissa == 275
    assert BigFixed.from_decimal("-2.75").mantissa == -275
    with pytest.raises(ValueError):
        BigFixed.from_decimal("12,5")


@given(mantissa=st.integers(-10**40, 10**40), scale=st.integers(0, 50))
def test_spelled_is_mantissa_and_decimal(mantissa, scale):
    # both strings from one conversion, as the CLI's JSON writes them
    value = BigFixed(mantissa, scale)
    text, decimal = value.spelled()
    assert text == str(mantissa)
    assert decimal == value.decimal()
    assert BigFixed.from_decimal(decimal) == value


def test_as_json_is_the_report_form():
    # {mantissa, scale, decimal} as the CLI has always written it, the
    # mantissa and the decimal as strings of any length
    assert BigFixed(-1234, 2).as_json() == {
        "mantissa": "-1234", "scale": 2, "decimal": "-12.34"}
    assert BigFixed(-5, 3).as_json() == {
        "mantissa": "-5", "scale": 3, "decimal": "-0.005"}
    assert BigFixed(42, 0).as_json() == {
        "mantissa": "42", "scale": 0, "decimal": "42"}
    # 30,000 digits, past the interpreter's int-to-str limit, built by
    # arithmetic: 1234567890 repeated 3,000 times
    digits = "1234567890" * 3000
    repeated = 1234567890 * (10**30_000 - 1) // (10**10 - 1)
    for sign in (1, -1):
        text = "-" * (sign < 0) + digits
        value = BigFixed(sign * repeated, 29_999)
        assert value.as_json() == {
            "mantissa": text, "scale": 29_999,
            "decimal": f"{text[:-29_999]}.{digits[1:]}"}


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
    assert pi(30_010) == arctan_pi(30_010)


def test_pi_undecided_rounding_adds_guard_digits(monkeypatch):
    # an approximation whose bracket straddles a rounding boundary must
    # not be rounded; pi retries with 10 more guard digits
    scaled = fixedpoint._pi_scaled
    calls = []

    def straddling(unit):
        calls.append(unit)
        if len(calls) == 1:
            guard = unit // 10**40
            return scaled(unit) // guard * guard + guard // 2
        return scaled(unit)

    monkeypatch.setattr(fixedpoint, "_pi_scaled", straddling)
    assert pi(40).decimal() == "3.1415926535897932384626433832795028841972"
    assert calls == [10**50, 10**60]


@given(st.integers(-10**40, 10**40),
       st.integers(-10**20, 10**20).filter(bool))
def test_div_nearest_rounds_half_up(num, den):
    # the nearest integer to num/den, halves toward +infinity, for either
    # sign of the denominator: the rounding of every fixed-point quotient
    assert div_nearest(num, den) == math.floor(Fraction(num, den)
                                               + Fraction(1, 2))
    assert div_nearest(num, den) == div_nearest(-num, -den)


# The fixed-point roundings, each a div_nearest on a unit of 10^s or 2^s:
# the result is the round-half-up (toward +infinity) of the exact value
# at the target scale.
radices = st.sampled_from([2, 10])
scales = st.integers(0, 30)
mantissas = st.integers(-10**40, 10**40)
nonzero = st.integers(-10**20, 10**20).filter(bool)


def half_up(value: Fraction, unit: int) -> int:
    return math.floor(value * unit + Fraction(1, 2))


@given(mantissas, nonzero, scales, radices)
def test_from_ratio_rounds_half_up(num, den, scale, radix):
    unit = radix**scale
    assert div_nearest(num * unit, den) == half_up(Fraction(num, den), unit)


@given(mantissas, scales, scales, radices)
def test_to_scale_rounds_half_up(m, scale, to, radix):
    x = Fraction(m, radix**scale)
    if to >= scale:
        assert m * radix**(to - scale) == x * radix**to
    else:
        assert div_nearest(m, radix**(scale - to)) == half_up(x, radix**to)


@given(mantissas, mantissas, scales, radices)
def test_product_rounds_half_up(a, b, scale, radix):
    unit = radix**scale
    assert div_nearest(a * b, unit) == half_up(Fraction(a * b, unit**2),
                                               unit)


@given(mantissas, nonzero, scales, radices)
def test_quotient_rounds_half_up(a, b, scale, radix):
    unit = radix**scale
    # (a / unit) / (b / unit) at the same scale
    assert div_nearest(a * unit, b) == half_up(Fraction(a, b), unit)
