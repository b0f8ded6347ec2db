"""Growth constants and asymptotic checks for the bound family.

Three independent routes to the same numbers live here:

  * exact verification of the order-2 recurrence satisfied by the middle
    coefficients d(n) = [x^(2n)](1+x+x^2)^(3n), whose constant-coefficient
    limit has characteristic quadratic 1024*N^2 - 22356*N + 19683 and
    largest root (5589 + 891*sqrt(33))/512; the growth constant is its
    cube root.  d(n) is summed from its own hypergeometric term ratio, in
    n + 1 terms and without the row engine, so the check compares the
    pinned recurrence against a route that shares no code with the rows,
  * saddle-point root finding for general q: the minimizer x0 in (0, 1)
    of f(x) * x^(-(q-1)/3) with f = 1 + x + ... + x^(q-1) solves
    sum_j (3j - (q-1)) x^j = 0, found by Newton on its closed form
    times (1-x)^2, and the minimum value is the constant,
  * coefficient-ratio extrapolation on exact rows, a float-precision
    cross-check with no root finding at all.

All fixed-point computation carries GUARD extra digits beyond what the
caller asked for and rounds only on return.  The saddle point, the
characteristic root, alpha and the leading constant all work on integers
scaled by 2^bits, with bits = ceil(digits * log2 10) plus GUARD_BITS for
each decimal precision, so every rescale is a shift; each result becomes
a decimal BigFixed value once, at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import golden
from .bounds import sharp_bound
from .fixedpoint import (BigFixed, _pi_scaled, _power_bracket, div_nearest,
                         icbrt_newton)
from .qnomial import row_prefix
from .stages import Check, Stages

DEFAULT_DIGITS = 40
GUARD = 10
# Largest n_max verify_recurrence accepts.  Each d(n) takes n term-ratio
# steps on integers of up to about 4.4n bits, so the check grows like
# n_max^3 in time while its memory stays a few MB: n_max = 1000 takes
# about 1 s and 2000 about 6 s (Python 3.11, one core of a shared 2-core
# VM).
RECURRENCE_MAX_N = 2000
# Largest number of digits that characteristic_root, alpha, saddle_point
# and leading_constant accept; none of them caches a result, so the
# check runs on every call.  At the ceiling characteristic_root takes
# about 0.02 s, alpha 0.04 s, leading_constant 0.13 s (0.05 s of it in
# pi), saddle_point(3) 0.10 s and saddle_point(64) 0.17-0.21 s, about
# 0.1 s of it in the constant's cube root and one division; q = 31 takes
# 0.025 s at 10,000 digits (Python 3.11, one core of a shared 2-core VM).
MAX_DIGITS = 30_000
# Largest q that saddle_point and growth_constant_ratio accept, twice the
# largest q of the reference table: growth_constant_ratio(64) takes about
# 7 ms and q = 400 about 50 ms (Python 3.11, one core of a shared 2-core
# VM).
MAX_Q = 64
# saddle_point brackets its root by exact bisection to 2^-64 < 10^-19, so
# its Newton ladder starts from LADDER_START correct digits; each ladder
# precision carries LADDER_MARGIN digits for those a step loses to the
# curvature of h.
BISECTION_STEPS = 64
LADDER_START = 19
LADDER_MARGIN = 4
# bits the saddle point carries past ceil(p * log2 10) at decimal precision p
GUARD_BITS = 8


@dataclass(frozen=True)
class RecurrenceCheck:
    """Whether the recurrence combination vanished for every n up to
    n_max - 2, the first n where it did not (None if none), and `check`."""
    n_max: int
    all_zero: bool
    first_failure: int | None

    @property
    def check(self) -> Check:
        return Check("recurrence_all_zero", self.all_zero,
                     f"n = 0..{self.n_max - 2}, exact integers")


@dataclass(frozen=True)
class SaddleResult:
    """The root x0, the constant and the residual g(x0) at the working
    precision; the cost fields take no part in comparisons."""
    q: int
    x0: BigFixed
    constant: BigFixed
    residual: BigFixed
    counters: dict = field(default_factory=dict, compare=False)
    timings_ms: dict[str, float] = field(default_factory=dict, compare=False)


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_DIGITS}], got {digits}")


def _check_q(q: int) -> None:
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"q must be in [2, {MAX_Q}], got {q}")


def trinomial_middle(n: int) -> int:
    """d(n) = coefficient of x^(2n) in (1+x+x^2)^(3n), exact.

    Choosing j factors x^2, 2n - 2j factors x and n + j factors 1 gives
    d(n) = sum_{j=0..n} (3n)! / (j! (n+j)! (2n-2j)!).  The sum starts
    from its j = 0 term C(3n, n) and steps by the term ratio
    t_j / t_(j-1) = m (m-1) / (j (n+j)), m = 2n-2j+2, so it shares no
    code with the rows; each step multiplies the term by one small
    integer and divides it by another.  Every term is a multinomial
    coefficient, so each division is checked: a remainder raises
    ArithmeticError."""
    term = total = math.comb(3 * n, n)
    m = 2 * n
    for j in range(1, n + 1):
        term, rest = divmod(term * (m * (m - 1)), j * (n + j))
        if rest:
            raise ArithmeticError(
                f"term ratio not exact at n={n}, j={j}")
        total += term
        m -= 2
    return total


def verify_recurrence(n_max: int) -> RecurrenceCheck:
    """Evaluate the three-term recurrence combination exactly for
    n = 0..n_max-2 on d(n) = trinomial_middle(n) and report whether every
    value is zero.

    Each d(n) is computed once and only the three terms of the current
    combination are kept.  n_max is capped at RECURRENCE_MAX_N.
    """
    if not 2 <= n_max <= RECURRENCE_MAX_N:
        raise ValueError(f"n_max must be in [2, {RECURRENCE_MAX_N}], "
                         f"got {n_max}")
    c0, c1, c2 = golden.RECURRENCE_COEFFS
    first_failure = None
    d0, d1 = trinomial_middle(0), trinomial_middle(1)
    for n in range(n_max - 1):
        d2 = trinomial_middle(n + 2)
        if c0(n) * d0 + c1(n) * d1 + c2(n) * d2 != 0:
            first_failure = n
            break
        d0, d1 = d1, d2
    return RecurrenceCheck(n_max=n_max, all_zero=first_failure is None,
                           first_failure=first_failure)


def characteristic_root(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """(5589 + 891*sqrt(33))/512, the largest root of the characteristic
    quadratic, from one integer square root."""
    _check_digits(digits)
    bits = _bits(digits + GUARD)
    return _to_decimal(_characteristic_root(bits), bits, digits)


def _characteristic_root(bits: int) -> int:
    """The characteristic root as a multiple of 2^-bits, floored."""
    return ((5589 << bits) + 891 * math.isqrt(33 << 2 * bits)) >> 9


def alpha(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """Cube root of characteristic_root: the base-3 growth constant, from
    the floor cube root of a root carried GUARD more digits."""
    _check_digits(digits)
    bits = _bits(digits + GUARD)
    root = _characteristic_root(bits)
    return _to_decimal(icbrt_newton(root << 2 * bits), bits, digits)


def _bits(digits: int) -> int:
    """Binary precision for a decimal one: ceil(digits * log2 10), the bit
    length of 10^digits for digits >= 1, plus GUARD_BITS."""
    return (10**digits).bit_length() + GUARD_BITS


def _rescale(x: int, bits: int, to_bits: int) -> int:
    """x * 2^-bits as a multiple of 2^-to_bits, rounding half up: a shift,
    never a division."""
    if to_bits >= bits:
        return x << to_bits - bits
    shift = bits - to_bits
    return (x + (1 << shift - 1)) >> shift


def _to_decimal(x: int, bits: int, scale: int) -> BigFixed:
    """x * 2^-bits as a decimal BigFixed at `scale`, rounding half up: the
    one radix conversion of each result."""
    return BigFixed((x * 10**scale + (1 << bits - 1)) >> bits, scale)


def _h_guard(q: int) -> int:
    """Bits that h and h' carry past the Newton iterate: their
    coefficients reach 2q^2, and without the guard their rounding noise
    outgrows a Newton step near the root."""
    return 2 * q.bit_length() + 8


def _power(x: int, e: int, bits: int) -> int:
    """(x * 2^-bits)^e for e >= 1, as a multiple of 2^-bits, by binary
    powering; each product rounds half up by a shift."""
    half = 1 << bits - 1
    acc = x
    for bit in bin(e)[3:]:
        acc = (acc * acc + half) >> bits
        if bit == "1":
            acc = (acc * x + half) >> bits
    return acc


def _powers(q: int, x: int, bits: int) -> tuple[int, int]:
    """x^(q-1) and x^q at x * 2^-bits, as multiples of
    2^-(bits + _h_guard(q)): one binary power and one product."""
    w = bits + _h_guard(q)
    y = x << w - bits
    below = _power(y, q - 1, w)
    return below, (below * y + (1 << w - 1)) >> w


def _h_slope(q: int, x: int, bits: int) -> tuple[int, int, tuple[int, int]]:
    """h and h' at x * 2^-bits, as multiples of 2^-(bits + _h_guard(q)),
    and the two powers of _powers they were taken from.

    h = (1-x)^2 g = -(q-1) + (q+2)x - (2q+1)x^q + 2(q-1)x^(q+1) and
    h' = (q+2) - (2q^2+q)x^(q-1) + 2(q^2-1)x^q take the two powers and
    three products, where g and g' take q each."""
    w = bits + _h_guard(q)
    y = x << w - bits
    one, half = 1 << w, 1 << w - 1
    powers = below, top = _powers(q, x, bits)  # x^(q-1), x^q
    h = ((q + 2) * y - (q - 1) * one
         + ((top * (2 * (q - 1) * y - (2 * q + 1) * one) + half) >> w))
    slope = (q + 2) * one + ((below * (2 * (q * q - 1) * y
                                       - (2 * q * q + q) * one) + half) >> w)
    return h, slope, powers


def _g_of_h(x: int, h: int, bits: int) -> int:
    """g = h / (1-x)^2 at x * 2^-bits from h as _h_slope gives it, in
    the same units of 2^-(bits + _h_guard(q))."""
    return div_nearest(h << 2 * bits, ((1 << bits) - x) ** 2)


def _h_sign(q: int, m: int, k: int) -> int:
    """Sign of h at m/2^k, read off the integer 2^(k(q+1)) h(m/2^k): no
    rounding.  On (0, 1) it is the sign of g."""
    acc = (((q + 2) * m - ((q - 1) << k)) << k * q) \
        + m**q * (2 * (q - 1) * m - ((2 * q + 1) << k))
    return (acc > 0) - (acc < 0)


def _ladder(work: int) -> list[int]:
    """Working precisions of the Newton steps between the bisection bracket
    and the full-precision loop, in ascending order.  Each step about
    doubles the correct digits, so each precision is half the next one plus
    LADDER_MARGIN; the first is at most twice LADDER_START."""
    precisions = []
    p = work
    while p > 2 * LADDER_START:
        p = (p + 1) // 2 + LADDER_MARGIN
        precisions.append(p)
    return precisions[::-1]


def saddle_point(q: int, digits: int = DEFAULT_DIGITS) -> SaddleResult:
    """Stationary point and value of f(x)*x^(-(q-1)/3) on (0, 1).

    x0 is the unique root there of g(x) = sum_j (3j-(q-1)) x^j (g(0) < 0,
    g(1) = q(q-1)/2 > 0, and x*g'(x)/f(x) is an increasing mean, so the
    sign change is single), and so of h = (1-x)^2 g, a closed form since
    f = (1 - x^q)/(1 - x): h and h' take one binary power x^(q-1) where
    g takes q products.  BISECTION_STEPS steps of exact dyadic bisection
    on the sign of h bracket the root to 2^-64, Newton steps on h at
    about doubling precision carry it to the working precision, and
    Newton at full precision runs until the mantissa is stationary or
    2-cycles; h and h' carry _h_guard(q) bits, so rounding noise never
    outgrows a step.  The residual is g(x0) = h(x0)/(1-x0)^2; of a
    2-cycle the element with the smaller |g| (then smaller mantissa) is
    kept.  The constant is (1 - x0^q)/(1 - x0) over the integer cube root
    of x0^(q-1), one division, with the two powers Newton's h took at x0;
    no logarithms and no floats anywhere.  Everything runs on binary
    mantissas, converted to decimal once.  `counters` gives the bisection
    steps, the Newton steps at each working precision (keyed by decimal
    digits), the working digits and bits and the `stop` rule that ended
    Newton ("stationary" or "two_cycle"); `timings_ms` gives the laps of
    one stages.Stages clock: `bisection`, `ladder`, `newton`, `residual`
    and `constant`.  Raises ArithmeticError if 200 full-precision steps
    end in neither, rather than report digits that never settled.
    """
    _check_q(q)
    _check_digits(digits)
    x, bits, g, (below, top), counters, clock = _saddle_root(q, digits)

    # f(x0) / cbrt(x0^(q-1)) = (1 - x0^q) / ((1 - x0) cbrt(x0^(q-1))),
    # one division, with both powers carried _h_guard(q) bits past x0 as
    # in Newton's h, and x0^(q-1) rounded to x0's units by one shift
    guard = _h_guard(q)
    power = _rescale(below, bits + guard, bits)
    constant = div_nearest(((1 << bits + guard) - top) << 2 * bits,
                           (((1 << bits) - x) << guard)
                           * icbrt_newton(power << 2 * bits))
    x0, constant, residual = (_to_decimal(x, bits, digits),
                              _to_decimal(constant, bits, digits),
                              _to_decimal(g, bits + guard,
                                          counters["work_digits"]))
    clock.lap("constant")
    return SaddleResult(q=q, x0=x0, constant=constant, residual=residual,
                        counters=counters, timings_ms=clock.ms)


def _saddle_root(q: int, digits: int
                 ) -> tuple[int, int, int, tuple[int, int], dict, Stages]:
    """The root stages of saddle_point: x0 as an integer standing for
    x0 * 2^-bits, bits, g(x0) in units of 2^-(bits + _h_guard(q)), the
    powers x0^(q-1) and x0^q as _powers gives them (Newton took them at
    the kept element), the counters and the clock, charged each stage."""
    clock = Stages()
    work = digits + GUARD

    # the root lies in [m/2^k, (m+1)/2^k] after k steps
    m = 0
    for k in range(1, BISECTION_STEPS + 1):
        m = 2 * m + (_h_sign(q, 2 * m + 1, k) < 0)
    assert 0 < m < 2**BISECTION_STEPS - 1, \
        "no interior sign change; cannot happen for q >= 2"
    clock.lap("bisection")

    newton_steps: dict[int, int] = {}
    x, bits = m, BISECTION_STEPS
    for p in _ladder(work):
        x, bits = _rescale(x, bits, _bits(p)), _bits(p)
        h, slope, _ = _h_slope(q, x, bits)
        x -= div_nearest(h << bits, slope)
        newton_steps[p] = 1
    clock.lap("ladder")

    x, bits = _rescale(x, bits, _bits(work)), _bits(work)
    prev = prev_h = prev_powers = None
    for steps in range(1, 201):
        h, slope, powers = _h_slope(q, x, bits)
        nxt = x - div_nearest(h << bits, slope)
        if nxt == x:
            stop = "stationary"
            break
        if nxt == prev:
            stop = "two_cycle"
            break
        prev, prev_h, prev_powers = x, h, powers
        x = nxt
    else:
        raise ArithmeticError("Newton neither settled nor 2-cycled "
                              "in 200 steps")
    newton_steps[work] = steps
    clock.lap("newton")

    g = _g_of_h(x, h, bits)
    if stop == "two_cycle":
        x, g, powers = min((x, g, powers),
                           (prev, _g_of_h(prev, prev_h, bits), prev_powers),
                           key=lambda e: (abs(e[1]), e[0]))
    clock.lap("residual")
    counters = {"bisection_steps": BISECTION_STEPS,
                "newton_steps": newton_steps, "work_digits": work,
                "work_bits": bits, "stop": stop}
    return x, bits, g, powers, counters, clock


def growth_constant(q: int, digits: int = DEFAULT_DIGITS) -> BigFixed:
    """Growth constant for F_q^n via the saddle point."""
    return saddle_point(q, digits).constant


# growth_constant_ratio's relative difference from the saddle constant
# that ratio_check accepts (5.4e-5 at q = 2).
RATIO_TOLERANCE = 1e-4


def ratio_check(saddle: BigFixed, ratio: float) -> tuple[Check, float]:
    """Whether a growth_constant_ratio estimate agrees with the saddle
    constant, for `growth --method both` and criterion 4 alike, and the
    relative difference |saddle - ratio| / saddle it decides on, in float."""
    value = float(saddle)
    rel = abs(value - ratio) / value
    return Check("saddle_ratio_agree", rel < RATIO_TOLERANCE,
                 f"relative difference {rel:.3e}"), rel


def growth_constant_ratio(q: int) -> float:
    """The same constant from exact coefficient ratios.

    r(n) = (a(n+3)/a(n))^(1/3) with a(n) = qnomial(n, (q-1)n/3, q) is a
    centered three-step ratio, so its natural abscissa is t = n + 3/2 and
    r = c + O(1/t); one Richardson elimination of the 1/t term over the
    points n = 60 and n = 120 removes the leading error.  Each a(n) is
    the last entry of a row prefix, a third of the row, built outside the
    row cache, so the call leaves no rows behind.
    """
    _check_q(q)

    def rate(n: int) -> float:
        a0 = row_prefix(n, q, (q - 1) * n // 3)[-1]
        a1 = row_prefix(n + 3, q, (q - 1) * (n + 3) // 3)[-1]
        return (a1 / a0) ** (1.0 / 3.0)

    t_m, t_n = 61.5, 121.5
    return (t_n * rate(120) - t_m * rate(60)) / (t_n - t_m)


def leading_constant(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """The limit of sharp_bound(n) * sqrt(n) / alpha^n.

    Around k = 2n/3 the row decays geometrically with ratio x0, so the
    partial sum is the middle coefficient times 1/(1-x0); the middle
    coefficient itself carries the Gaussian normalizer sqrt(2*pi*n*v)
    with per-step variance v = x0*mu'(x0), mu = x*f'/f.  Hence

        C = (3/(1-x0) - 1) / sqrt(2*pi*v),

    with mu'(x) = (1 + 4x + x^2)/f(x)^2 for f = 1 + x + x^2, that is
    C = (2+x0) f(x0) / ((1-x0) sqrt(2*pi*x0*(1 + 4x0 + x0^2))).  At
    q = 3 the saddle root is x0 = (sqrt(33) - 1)/8, the root of
    4x^2 + x - 2, taken from the integer square root that
    _characteristic_root uses; x0, f, the square root and the quotient
    are floored multiples of 2^-bits, with pi times 2^bits from
    fixedpoint._pi_scaled, and the result is converted to decimal once.
    """
    _check_digits(digits)
    bits = _bits(digits + GUARD)
    one = 1 << bits
    x = (math.isqrt(33 << 2 * bits) - one) >> 3
    f = (one * one + x * one + x * x) >> bits
    d = (one * one + 4 * x * one + x * x) >> bits  # v = x0 d / f^2
    root = math.isqrt(2 * _pi_scaled(one) * x * d >> bits)
    c = ((2 * one + x) * f << bits) // ((one - x) * root)
    return _to_decimal(c, bits, digits)


def normalized_sharp_bound(n: int) -> float:
    """sharp_bound(n) * sqrt(n) / alpha^n as a double, computed from the
    exact bound value and alpha to DEFAULT_DIGITS digits, for n a positive
    multiple of 3.  CPython's int true division is correctly rounded, so
    a quotient of integers equals float(Fraction(num, den)) without taking
    the gcd of integers of n*DEFAULT_DIGITS digits.

    The powers unit^(n-1) and mantissa^n run to 128-bit brackets, and the
    quotient is rounded at both ends of the ratio's bracket.  Rounding is
    monotone, so where the two doubles agree they are the rounded exact
    ratio; otherwise the exact powers decide.  A bracket's exponent is its
    power's bit length less about 128, and mantissa^n outweighs unit^(n-1)
    by over 133 bits, so the denominator's exponent is the larger."""
    if n < 3 or n % 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    a = alpha(DEFAULT_DIGITS).mantissa
    unit = 10**DEFAULT_DIGITS
    k = sharp_bound(n).value * math.isqrt(n * unit**2)
    num_lo, num_hi, num_s = _power_bracket(unit, n - 1, 128)
    den_lo, den_hi, den_s = _power_bracket(a, n, 128)
    shift = den_s - num_s
    low = k * num_lo / (den_hi << shift)
    if low == k * num_hi / (den_lo << shift):
        return low
    return k * unit ** (n - 1) / a**n


def richardson_limit(values: list[float]) -> float:
    """Repeated Richardson elimination of 1/n, 1/n^2, ... for samples taken
    at points that double at each step."""
    level = list(values)
    m = 1
    while len(level) > 1:
        mult = 2.0**m
        level = [(mult * b - a) / (mult - 1.0)
                 for a, b in zip(level, level[1:])]
        m += 1
    return level[0]


def leading_constant_empirical(
        samples: tuple[int, ...] = (300, 600, 1200, 2400)) -> float:
    """Extrapolate normalized_sharp_bound over a doubling ladder of n."""
    if any(n % 3 for n in samples):
        raise ValueError("sample points must be multiples of 3")
    if any(b != 2 * a for a, b in zip(samples, samples[1:])):
        raise ValueError("sample points must double at each step")
    return richardson_limit([normalized_sharp_bound(n) for n in samples])


def first_correction_estimate(n_max: int = 2400) -> float:
    """Estimate c1 in sharp_bound(n)*sqrt(n)/alpha^n = C*(1 + c1/n + ...)
    by two-point elimination at n_max/2 and n_max."""
    if n_max % 3 != 0 or n_max < 600:
        raise ValueError(f"n_max must be a multiple of 3, at least 600; "
                         f"got {n_max}")
    c = float(leading_constant(2 * GUARD))
    m = n_max // 2 // 3 * 3

    def u(n: int) -> float:
        return (normalized_sharp_bound(n) / c - 1.0) * n

    return (n_max * u(n_max) - m * u(m)) / (n_max - m)
