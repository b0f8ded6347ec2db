"""Growth constants and asymptotic checks for the bound family.

Three independent routes to the same numbers live here:

  * exact verification of the order-2 recurrence satisfied by the middle
    coefficients d(n) = [x^(2n)](1+x+x^2)^(3n), whose constant-coefficient
    limit has characteristic quadratic 1024*N^2 - 22356*N + 19683 and
    largest root (5589 + 891*sqrt(33))/512; the growth constant is its
    cube root,
  * saddle-point root finding for general q: the minimizer x0 in (0, 1)
    of f(x) * x^(-(q-1)/3) with f = 1 + x + ... + x^(q-1) solves
    sum_j (3j - (q-1)) x^j = 0, and the minimum value is the constant,
  * coefficient-ratio extrapolation on exact rows, a float-precision
    cross-check with no root finding at all.

All fixed-point computation carries GUARD extra digits beyond what the
caller asked for and truncates only on return.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import golden
from .bounds import sharp_bound
from .fixedpoint import BigFixed, isqrt_newton, pi
from .qnomial import qnomial, row_prefix

DEFAULT_DIGITS = 40
GUARD = 10
# Largest n_max verify_recurrence accepts.  Each d(n) takes 2n recurrence
# steps on integers of about 4.75n bits, so the check grows like n_max^3
# in time while its memory stays a few MB: n_max = 1000 takes about 1 s
# and 2000 about 6 s (Python 3.11, one core of a shared VM).
RECURRENCE_MAX_N = 2000
# Largest number of digits that characteristic_root, alpha, saddle_point
# and leading_constant accept.  At the ceiling alpha takes about 1.6 s and
# saddle_point(3) about 12 s; saddle_point grows about linearly in q
# (q = 31 takes 16 s at 10,000 digits).  Largest q that saddle_point and
# growth_constant_ratio accept, twice the largest q of the reference
# table: growth_constant_ratio(64) takes about 0.7 s, q = 400 13.5 s
# (Python 3.11, one core of a shared VM).
MAX_DIGITS = 30_000
MAX_Q = 64


@dataclass(frozen=True)
class RecurrenceCheck:
    n_max: int
    all_zero: bool
    first_failure: int | None


@dataclass(frozen=True)
class SaddleResult:
    q: int
    x0: BigFixed
    constant: BigFixed
    residual: BigFixed


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in [1, {MAX_DIGITS}], got {digits}")


def _check_q(q: int) -> None:
    if not 2 <= q <= MAX_Q:
        raise ValueError(f"q must be in [2, {MAX_Q}], got {q}")


def trinomial_middle(n: int) -> int:
    """d(n) = coefficient of x^(2n) in (1+x+x^2)^(3n), exact.

    Computed from the row prefix up to x^(2n), outside the row cache:
    the rows (3n, 3) serve nothing else, and caching them all made
    verify_recurrence(2000) hold several GB."""
    return row_prefix(3 * n, 3, 2 * n)[-1]


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


def _horner(coeffs: list[int], x: BigFixed, work: int) -> BigFixed:
    acc = BigFixed.from_int(coeffs[-1], work)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def saddle_point(q: int, digits: int = DEFAULT_DIGITS) -> SaddleResult:
    """Stationary point and value of f(x)*x^(-(q-1)/3) on (0, 1).

    x0 is the unique root there of g(x) = sum_j (3j-(q-1)) x^j (g(0) < 0,
    g(1) = q(q-1)/2 > 0, and x*g'(x)/f(x) is an increasing mean, so the
    sign change is single).  Bisection brackets the root, then Newton runs
    until the mantissa is stationary.  The fractional power is the integer
    cube root of x0^(q-1); no logarithms anywhere.
    """
    _check_q(q)
    _check_digits(digits)
    return _saddle_point(q, digits)


def _saddle_point(q: int, digits: int) -> SaddleResult:
    """saddle_point without the ceilings, which leading_constant works past."""
    work = digits + GUARD
    g_coeffs = [3 * j - (q - 1) for j in range(q)]
    gp_coeffs = [j * g_coeffs[j] for j in range(1, q)]

    lo = BigFixed.from_int(0, work)
    hi = BigFixed.from_int(1, work)
    for _ in range(120):
        mid = (lo + hi) / 2
        if _horner(g_coeffs, mid, work).mantissa < 0:
            lo = mid
        else:
            hi = mid
    assert lo.mantissa > 0 and hi.mantissa < 10**work, \
        "no interior sign change; cannot happen for q >= 2"

    x = (lo + hi) / 2
    prev = None
    for _ in range(200):
        step = _horner(g_coeffs, x, work) / _horner(gp_coeffs, x, work)
        nxt = x - step
        if nxt.mantissa == x.mantissa or (prev is not None
                                          and nxt.mantissa == prev):
            x = nxt
            break
        prev = x.mantissa
        x = nxt

    residual = _horner(g_coeffs, x, work)
    f_val = _horner([1] * q, x, work)
    constant = f_val / x.pow_int(q - 1).cbrt()
    return SaddleResult(q=q, x0=x.to_scale(digits),
                        constant=constant.to_scale(digits),
                        residual=residual)


def growth_constant(q: int, digits: int = DEFAULT_DIGITS) -> BigFixed:
    """Growth constant for F_q^n via the saddle point."""
    return saddle_point(q, digits).constant


def growth_constant_ratio(q: int, n_max: int = 120) -> float:
    """The same constant from exact coefficient ratios.

    r(n) = (a(n+3)/a(n))^(1/3) with a(n) = qnomial(n, (q-1)n/3, q) is a
    centered three-step ratio, so its natural abscissa is t = n + 3/2 and
    r = c + O(1/t); one Richardson elimination of the 1/t term over the
    points n_max/2 and n_max removes the leading error.
    """
    _check_q(q)
    if n_max % 3 != 0 or n_max < 30:
        raise ValueError(f"n_max must be a multiple of 3, at least 30; "
                         f"got {n_max}")

    def rate(n: int) -> float:
        a0 = qnomial(n, (q - 1) * n // 3, q)
        a1 = qnomial(n + 3, (q - 1) * (n + 3) // 3, q)
        return float(Fraction(a1, a0)) ** (1.0 / 3.0)

    m = n_max // 2 // 3 * 3
    t_m, t_n = m + 1.5, n_max + 1.5
    return (t_n * rate(n_max) - t_m * rate(m)) / (t_n - t_m)


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


def normalized_sharp_bound(n: int, scale: int = DEFAULT_DIGITS) -> float:
    """sharp_bound(n) * sqrt(n) / alpha^n as a double, computed from the
    exact bound value and the fixed-point alpha."""
    a = alpha(scale)
    num = (sharp_bound(n).value * isqrt_newton(n * 10 ** (2 * scale))
           * 10 ** (n * scale - scale))
    return float(Fraction(num, a.mantissa**n))


def richardson_limit(values: list[float], step_ratio: float = 2.0) -> float:
    """Repeated Richardson elimination of 1/n, 1/n^2, ... for samples taken
    at points growing by step_ratio."""
    level = list(values)
    m = 1
    while len(level) > 1:
        mult = step_ratio**m
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
