"""Decimal fixed-point reals on arbitrary-precision integer mantissas,
and the integer roots and powers that the fixed-point layer runs on.

A BigFixed value is mantissa * 10^(-scale).  It is the decimal exchange
type and does no arithmetic: results leave the library, the CLI report
and the benchmark's oracles in it, read as mantissa * 10^(-scale).  The
computations behind them (the saddle point, the characteristic root,
alpha and the leading constant in `asymptotics`) run on integers scaled
by a power of two, where every rescale is a shift, and convert to
BigFixed once at the end.

Roots are exact floor roots of integers; pi is computed on either
radix's unit and rounded half up (toward +infinity) where it is
returned as a BigFixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .stages import _int_str

if TYPE_CHECKING:
    from fractions import Fraction

# icbrt_newton's small roots, and the top of its ladder's seed rung
_CBRT_SMALL_BITS = 192
_CBRT_SEED_BITS = 64


def div_nearest(a: int, b: int) -> int:
    """Nearest integer to a/b for b != 0, halves toward +infinity."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r >= b:
        q += 1
    return q


def icbrt_newton(n: int) -> int:
    """Floor cube root, ending in the exact check x^3 <= n < (x+1)^3.

    Past _CBRT_SMALL_BITS bits the estimate is n v^2, with v = n^(-1/3)
    from Newton's v <- v + v(1 - n v^3)/3 (products and a division by 3
    only) on a precision ladder (Brent and Zimmermann, *Modern Computer
    Arithmetic*, 2010, §4.2.3).  Unit steps carry it to the floor root,
    keeping x^2 and x^3 exact, so the check costs no further cube."""
    if n < 0:
        raise ValueError("cube root of a negative number")
    x = _icbrt_small(n) if n.bit_length() <= _CBRT_SMALL_BITS \
        else _cbrt_estimate(n)
    square = x * x
    cube = square * x
    while cube > n:
        cube -= 3 * square - 3 * x + 1
        square -= 2 * x - 1
        x -= 1
    above = cube + 3 * square + 3 * x + 1
    while above <= n:
        cube, square, x = above, square + 2 * x + 1, x + 1
        above = cube + 3 * square + 3 * x + 1
    assert cube <= n < above, "cube root is not the floor root"
    return x


def _icbrt_small(n: int) -> int:
    """Floor cube root of a small n by integer Newton from above."""
    if n < 2:
        return n
    x = 1 << n.bit_length() // 3 + 1
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _cbrt_estimate(n: int) -> int:
    """n^(1/3) to within a unit or two.  With u = n / 2^(3 size) in
    [1/8, 1), v = u^(-1/3) is kept as v * 2^p; a step doubles the square
    of the relative error, so each rung carries 4 bits fewer than twice
    the one below, and the top one, 8 bits past the root's, leaves
    2^size u v^2 within two units."""
    size = (n.bit_length() + 2) // 3  # 2^(3 size - 3) <= n < 2^(3 size)
    precisions = [size + 8]
    while precisions[-1] > _CBRT_SEED_BITS:
        precisions.append(precisions[-1] // 2 + 4)
    p = precisions.pop()
    # (2^(6p) / (u 2^(3p)))^(1/3) = v 2^p, from the top 3p bits of n
    v = _icbrt_small((1 << 6 * p) // (n >> 3 * (size - p)))
    for rung in reversed(precisions):
        # 1 - u v^3 in units of 2^-rung, from the lower rung's v
        cube = v * v * v >> 3 * p - rung
        error = (1 << rung) - ((n >> 3 * size - rung) * cube >> rung)
        v = (v << rung - p) + (v * error >> p) // 3
        p = rung
    return (n >> 3 * size - p) * (v * v >> p) >> 2 * p - size


def _power_bracket(b: int, e: int, w: int) -> tuple[int, int, int]:
    """A bracket (lo, hi, s) with lo * 2^s <= b^e <= hi * 2^s, for b >= 0,
    e >= 0 and w >= 2.

    Binary exponentiation in which every product keeps w bits: lo is
    floored and hi ceiled by the same shift, so both ends share s.  Each
    step adds a relative error below 2^(2-w) and a squaring doubles the
    error it inherits, so (hi - lo) / lo stays of order e * 2^-w.  Its
    one caller, asymptotics.normalized_sharp_bound, rounds a ratio of
    such powers at both ends: rounding is monotone, so where the two
    agree they are the rounding of the exact ratio, and where they do not
    it falls back to the exact powers (Brent and Zimmermann, *Modern
    Computer Arithmetic*, 2010, ch. 3)."""
    lo = hi = 1
    s = 0
    base_lo = base_hi = b
    base_s = 0

    def trim(lo: int, hi: int, s: int) -> tuple[int, int, int]:
        shift = hi.bit_length() - w
        if shift <= 0:
            return lo, hi, s
        return lo >> shift, -(-hi >> shift), s + shift

    while e:
        if e & 1:
            lo, hi, s = trim(lo * base_lo, hi * base_hi, s + base_s)
        e >>= 1
        if e:
            base_lo, base_hi, base_s = trim(base_lo * base_lo,
                                            base_hi * base_hi, 2 * base_s)
    return lo, hi, s


@dataclass(frozen=True)
class BigFixed:
    """The decimal mantissa * 10^(-scale), exactly; it does no
    arithmetic."""
    mantissa: int
    scale: int

    # -- construction ------------------------------------------------------

    @classmethod
    def from_decimal(cls, text: str) -> "BigFixed":
        """Parse a plain decimal string; the scale is the digit count after
        the point (0 if there is none)."""
        text = text.strip()
        sign = -1 if text.startswith("-") else 1
        body = text.lstrip("+-")
        if "." in body:
            whole, frac = body.split(".", 1)
        else:
            whole, frac = body, ""
        if not (whole + frac).isdigit():
            raise ValueError(f"not a decimal literal: {text!r}")
        return cls(sign * int(whole + frac or "0"), len(frac))

    # -- conversions ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.mantissa, 10**self.scale)

    def __float__(self) -> float:
        # CPython's int true division is correctly rounded, as
        # float(self.as_fraction()) is, without the gcd
        return self.mantissa / 10**self.scale

    def decimal(self) -> str:
        return self.spelled()[1]

    def spelled(self) -> tuple[str, str]:
        """str(mantissa) and decimal(), from one int-to-str conversion
        (quadratic in the digit count in CPython) of any length."""
        mantissa = _int_str(self.mantissa)
        sign = "-" if self.mantissa < 0 else ""
        digits = mantissa[len(sign):].rjust(self.scale + 1, "0")
        if self.scale == 0:
            return mantissa, sign + digits
        return mantissa, f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"

    def as_json(self) -> dict:
        """{mantissa, scale, decimal}, the form reports write: the
        mantissa and the decimal as strings of any length."""
        mantissa, decimal = self.spelled()
        return {"mantissa": mantissa, "scale": self.scale, "decimal": decimal}

    def __str__(self) -> str:
        return self.decimal()


def pi(scale: int) -> BigFixed:
    """pi rounded half up to `scale` decimals, from Chudnovsky's series
    by binary splitting on integers (Haible and Papanikolaou, "Fast
    multiprecision evaluation of series of rational numbers", 1998),
    with 10 more guard digits each time the two ends of its error
    bracket round apart."""
    guard = 10
    while True:
        unit = 10**guard
        approx = _pi_scaled(10 ** (scale + guard))
        low = div_nearest(approx - 2, unit)
        if low == div_nearest(approx + 2, unit):
            return BigFixed(low, scale)
        guard += 10


def _pi_scaled(unit: int) -> int:
    """pi * unit to within 2 units, for a unit of 10^work or 2^bits: pi =
    426880 sqrt(10005) / S, each term of S at most 2e-14 < 2^-45 of the
    one before, so bit_length(unit) // 45 + 2 terms leave a tail far
    below a unit, and the floors and the trims below cost under 1.1
    units."""
    bits = unit.bit_length()
    q, t = _chudnovsky(1, bits // 45 + 2)[1:]
    d = 13591409 * q + t  # S = d / q over the summed terms
    # d keeps 64 bits past the bits >= log2(unit) of the result, and q
    # (24 bits shorter, as S > 2^23) loses as many as d
    trim = max(0, d.bit_length() - bits - 64)
    root = math.isqrt(10005 * unit * unit)
    return 426880 * root * (q >> trim) // (d >> trim)


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """P, Q and T of the Chudnovsky terms k in [a, b): P / Q is the
    product of their ratios, T / Q their sum relative to term a - 1."""
    if b - a == 1:
        p = -(6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        return (p, 10939058860032000 * a**3,
                p * (13591409 + 545140134 * a))
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, m)
    p2, q2, t2 = _chudnovsky(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2
