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
    sum_j (3j - (q-1)) x^j = 0, and the minimum value is the constant,
  * coefficient-ratio extrapolation on exact rows, a float-precision
    cross-check with no root finding at all.

All fixed-point computation carries GUARD extra digits beyond what the
caller asked for and rounds only on return.  The saddle point works on
integers scaled by 2^bits, with bits = ceil(digits * log2 10) plus
GUARD_BITS for each decimal precision, so every rescale is a shift; its
results become decimal BigFixed values once, at the end.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import golden
from .bounds import sharp_bound
from .fixedpoint import (BigFixed, _pow_interval, div_nearest, icbrt_newton,
                         isqrt_newton, pi)
from .qnomial import row_prefix

DEFAULT_DIGITS = 40
GUARD = 10
# Largest n_max verify_recurrence accepts.  Each d(n) takes n term-ratio
# steps on integers of up to about 4.4n bits, so the check grows like
# n_max^3 in time while its memory stays a few MB: n_max = 1000 takes
# about 1 s and 2000 about 6 s (Python 3.11, one core of a shared 2-core
# VM).
RECURRENCE_MAX_N = 2000
# Largest number of digits that characteristic_root, alpha, saddle_point
# and leading_constant accept.  At the ceiling alpha takes about 0.2 s,
# leading_constant 1.3-1.5 s (1 s of it in pi), saddle_point(3) 0.2 s
# and saddle_point(64) about 1.6 s, more than half of it in Newton and
# 0.5-0.6 s in the constant, which rounds x0^63 from a bracket of about
# 100,000 bits (the exact power has 6.3 Mbit and took 1.6 s); q = 31
# takes 0.15 s at 10,000 digits.
# Largest q that saddle_point and growth_constant_ratio accept, twice the
# largest q of the reference table: growth_constant_ratio(64) takes about
# 7 ms and q = 400 about 50 ms (Python 3.11, one core of a shared 2-core
# VM).
MAX_DIGITS = 30_000
MAX_Q = 64
# saddle_point brackets its root by exact bisection to 2^-64 < 10^-19, so
# its Newton ladder starts from LADDER_START correct digits; each ladder
# precision carries LADDER_MARGIN digits for those a step loses to the
# curvature of g.
BISECTION_STEPS = 64
LADDER_START = 19
LADDER_MARGIN = 4
# bits the saddle point carries past ceil(p * log2 10) at decimal precision p
GUARD_BITS = 8


@dataclass(frozen=True)
class RecurrenceCheck:
    n_max: int
    all_zero: bool
    first_failure: int | None


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
    t_(j+1) / t_j = (2n-2j)(2n-2j-1) / ((j+1)(n+j+1)), so it shares no
    code with the rows.  Every term is a multinomial coefficient, so each
    division is checked: a remainder raises ArithmeticError."""
    term = total = math.comb(3 * n, n)
    for j in range(n):
        term, rest = divmod(term * (2 * n - 2 * j) * (2 * n - 2 * j - 1),
                            (j + 1) * (n + j + 1))
        if rest:
            raise ArithmeticError(
                f"term ratio not exact at n={n}, j={j}")
        total += term
    return total


def verify_recurrence(n_max: int,
                      d: Callable[[int], int] | None = None) -> RecurrenceCheck:
    """Evaluate the three-term recurrence combination exactly for
    n = 0..n_max-2 and report whether every value is zero.

    Each d(n) is computed once and only the three terms of the current
    combination are kept.  n_max is capped at RECURRENCE_MAX_N.  d is
    injectable so a deliberately corrupted sequence can demonstrate that
    the check actually detects failures.
    """
    if not 2 <= n_max <= RECURRENCE_MAX_N:
        raise ValueError(f"n_max must be in [2, {RECURRENCE_MAX_N}], "
                         f"got {n_max}")
    if d is None:
        d = trinomial_middle
    c0, c1, c2 = golden.RECURRENCE_COEFFS
    first_failure = None
    d0, d1 = d(0), d(1)
    for n in range(n_max - 1):
        d2 = d(n + 2)
        if c0(n) * d0 + c1(n) * d1 + c2(n) * d2 != 0:
            first_failure = n
            break
        d0, d1 = d1, d2
    return RecurrenceCheck(n_max=n_max, all_zero=first_failure is None,
                           first_failure=first_failure)


@lru_cache(maxsize=None)
def characteristic_root(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """(5589 + 891*sqrt(33))/512, the largest root of the characteristic
    quadratic, via integer Newton square root."""
    _check_digits(digits)
    return _characteristic_root(digits)


def _characteristic_root(digits: int) -> BigFixed:
    """characteristic_root without the ceiling, which alpha works past."""
    work = digits + GUARD
    sqrt33 = BigFixed.from_int(33, work).sqrt()
    return ((891 * sqrt33 + 5589) / 512).to_scale(digits)


@lru_cache(maxsize=None)
def alpha(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """Cube root of characteristic_root: the base-3 growth constant."""
    _check_digits(digits)
    return _characteristic_root(digits + GUARD).cbrt().to_scale(digits)


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


def _horner(coeffs: list[int], x: int, bits: int) -> int:
    """The polynomial at x * 2^-bits, as a multiple of 2^-bits; each
    product rounds half up by a shift."""
    half = 1 << bits - 1
    acc = coeffs[-1] << bits
    for c in reversed(coeffs[:-1]):
        acc = ((acc * x + half) >> bits) + (c << bits)
    return acc


def _dyadic_sign(coeffs: list[int], m: int, k: int) -> int:
    """Sign of the polynomial at m/2^k, read off the integer
    2^(k*deg) * g(m/2^k) = sum_j g_j m^j 2^(k*(deg-j)): no rounding."""
    acc = coeffs[-1]
    for i, c in enumerate(reversed(coeffs[:-1]), 1):
        acc = acc * m + (c << k * i)
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


@lru_cache(maxsize=None)
def saddle_point(q: int, digits: int = DEFAULT_DIGITS) -> SaddleResult:
    """Stationary point and value of f(x)*x^(-(q-1)/3) on (0, 1).

    x0 is the unique root there of g(x) = sum_j (3j-(q-1)) x^j (g(0) < 0,
    g(1) = q(q-1)/2 > 0, and x*g'(x)/f(x) is an increasing mean, so the
    sign change is single).  BISECTION_STEPS steps of exact dyadic
    bisection bracket the root to 2^-64, Newton steps at about doubling
    precision carry it to the working precision, and Newton at full
    precision runs until the mantissa is stationary or 2-cycles, keeping
    the 2-cycle element with the smaller |g| (then smaller mantissa).  The
    fractional power is the integer cube root of x0^(q-1); no logarithms
    and no floats anywhere.  Newton and the constant run on binary
    mantissas, and x0, the constant and the residual are converted to
    decimal once.  `counters` gives the bisection steps, the Newton steps
    at each working precision (keyed by decimal digits), the working
    digits and bits, the `stop` rule that ended Newton ("stationary" or
    "two_cycle") and `exact_power`, true where the bracketed power
    x0^(q-1) could not decide its rounding and the exact power ran.
    Raises ArithmeticError if 200 full-precision steps end in neither,
    rather than report digits that never settled.
    """
    _check_q(q)
    _check_digits(digits)
    return _saddle_point(q, digits)


def _saddle_point(q: int, digits: int) -> SaddleResult:
    """saddle_point without the ceilings, which leading_constant works past."""
    clock = time.perf_counter
    started = clock()
    work = digits + GUARD
    g_coeffs = [3 * j - (q - 1) for j in range(q)]
    gp_coeffs = [j * g_coeffs[j] for j in range(1, q)]

    # the root lies in [m/2^k, (m+1)/2^k] after k steps
    m = 0
    for k in range(1, BISECTION_STEPS + 1):
        m = 2 * m + (_dyadic_sign(g_coeffs, 2 * m + 1, k) < 0)
    assert 0 < m < 2**BISECTION_STEPS - 1, \
        "no interior sign change; cannot happen for q >= 2"
    bisected = clock()

    # every value below is an integer v standing for v * 2^-bits
    newton_steps: dict[int, int] = {}
    x, bits = m, BISECTION_STEPS
    for p in _ladder(work):
        x, bits = _rescale(x, bits, _bits(p)), _bits(p)
        x -= div_nearest(_horner(g_coeffs, x, bits) << bits,
                         _horner(gp_coeffs, x, bits))
        newton_steps[p] = 1
    laddered = clock()

    x, bits = _rescale(x, bits, _bits(work)), _bits(work)
    prev = prev_g = None
    for steps in range(1, 201):
        g = _horner(g_coeffs, x, bits)
        nxt = x - div_nearest(g << bits, _horner(gp_coeffs, x, bits))
        if nxt == x:
            stop = "stationary"
            break
        if nxt == prev:
            stop = "two_cycle"
            x, g = min((x, g), (prev, prev_g),
                       key=lambda e: (abs(e[1]), e[0]))
            break
        prev, prev_g = x, g
        x = nxt
    else:
        raise ArithmeticError("Newton neither settled nor 2-cycled "
                              "in 200 steps")
    newton_steps[work] = steps
    converged = clock()

    # f(x0) / cbrt(x0^(q-1)): the power rounded by one shift, read off a
    # bracket 64 bits wider than the result, or off the exact power where
    # the bracket's ends round apart
    f_val = _horner([1] * q, x, bits)
    lo, hi, s = _pow_interval(x, q - 1, bits + 64)
    power = _rescale(lo, bits * (q - 1) - s, bits)
    exact_power = _rescale(hi, bits * (q - 1) - s, bits) != power
    if exact_power:
        power = _rescale(x ** (q - 1), bits * (q - 1), bits)
    constant = div_nearest(f_val << bits, icbrt_newton(power << 2 * bits))
    x0, constant, residual = (_to_decimal(x, bits, digits),
                              _to_decimal(constant, bits, digits),
                              _to_decimal(g, bits, work))
    finished = clock()
    return SaddleResult(
        q=q, x0=x0, constant=constant, residual=residual,
        counters={"bisection_steps": BISECTION_STEPS,
                  "newton_steps": newton_steps, "work_digits": work,
                  "work_bits": bits, "stop": stop,
                  "exact_power": exact_power},
        timings_ms={stage: round((end - start) * 1000, 3)
                    for stage, start, end in (
                        ("bisection", started, bisected),
                        ("ladder", bisected, laddered),
                        ("newton", laddered, converged),
                        ("constant", converged, finished))})


def growth_constant(q: int, digits: int = DEFAULT_DIGITS) -> BigFixed:
    """Growth constant for F_q^n via the saddle point."""
    return saddle_point(q, digits).constant


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
        return float(Fraction(a1, a0)) ** (1.0 / 3.0)

    t_m, t_n = 61.5, 121.5
    return (t_n * rate(120) - t_m * rate(60)) / (t_n - t_m)


@lru_cache(maxsize=None)
def leading_constant(digits: int = DEFAULT_DIGITS) -> BigFixed:
    """The limit of sharp_bound(n) * sqrt(n) / alpha^n.

    Around k = 2n/3 the row decays geometrically with ratio x0, so the
    partial sum is the middle coefficient times 1/(1-x0); the middle
    coefficient itself carries the Gaussian normalizer sqrt(2*pi*n*v)
    with per-step variance v = x0*mu'(x0), mu = x*f'/f.  Hence

        C = (3/(1-x0) - 1) / sqrt(2*pi*v),

    with mu'(x) = (1 + 4x + x^2)/f(x)^2 for f = 1 + x + x^2.
    """
    _check_digits(digits)
    work = digits + GUARD
    x0 = _saddle_point(3, work).x0
    one = BigFixed.from_int(1, work)
    f = one + x0 + x0.pow_int(2)
    v = x0 * (one + 4 * x0 + x0.pow_int(2)) / f.pow_int(2)
    c = (3 / (one - x0) - one) / (2 * pi(work) * v).sqrt()
    return c.to_scale(digits)


def normalized_sharp_bound(n: int) -> float:
    """sharp_bound(n) * sqrt(n) / alpha^n as a double, computed from the
    exact bound value and alpha to DEFAULT_DIGITS digits, for n a positive
    multiple of 3.  CPython's int true division is correctly rounded, so
    a quotient of integers equals float(Fraction(num, den)) without taking
    the gcd of integers of n*DEFAULT_DIGITS digits.

    The powers unit^(n-1) and mantissa^n run to 128-bit brackets, and the
    quotient is rounded at both ends of the ratio's bracket.  Rounding is
    monotone, so where the two doubles agree they are the rounded exact
    ratio; otherwise the exact powers decide."""
    if n < 3 or n % 3:
        raise ValueError(f"n must be a positive multiple of 3, got {n}")
    a = alpha(DEFAULT_DIGITS).mantissa
    unit = 10**DEFAULT_DIGITS
    k = sharp_bound(n).value * isqrt_newton(n * unit**2)
    num_lo, num_hi, num_s = _pow_interval(unit, n - 1, 128)
    den_lo, den_hi, den_s = _pow_interval(a, n, 128)
    low = _shifted_ratio(k * num_lo, den_hi, num_s - den_s)
    if low == _shifted_ratio(k * num_hi, den_lo, num_s - den_s):
        return low
    return k * unit ** (n - 1) / a**n


def _shifted_ratio(num: int, den: int, shift: int) -> float:
    """num * 2^shift / den, correctly rounded to a double."""
    if shift >= 0:
        return (num << shift) / den
    return num / (den << -shift)


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
