"""Decimal fixed-point reals on arbitrary-precision integer mantissas.

A value is mantissa * 10^(-scale).  BigFixed is the decimal exchange type:
results leave the library, the CLI report and the benchmark's oracles in
it, read as mantissa * 10^(-scale).  Arithmetic that runs long at high
precision (the saddle point in `asymptotics`) works on integers scaled by
a power of two instead, where every rescale is a shift, and converts to
BigFixed once at the end.

All arithmetic is integer arithmetic on mantissas; square and cube roots
are exact floor roots of the scaled integers.  Rounding, where a result
does not fit the target scale, is round-half-up (toward +infinity);
callers carry guard digits, so ties never matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# icbrt_newton seeds Newton by recursion above this many bits
_CBRT_SEED_BITS = 192


def div_nearest(a: int, b: int) -> int:
    """Nearest integer to a/b for b != 0, halves toward +infinity."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r >= b:
        q += 1
    return q


def isqrt_newton(n: int) -> int:
    """Floor square root; math.isqrt is exact, so only the sign is
    checked here."""
    if n < 0:
        raise ValueError("square root of a negative number")
    return math.isqrt(n)


def icbrt_newton(n: int) -> int:
    """Floor cube root by Newton iteration from above, to a fixpoint.

    Past _CBRT_SEED_BITS the iteration starts from the cube root of the
    top half of n, found the same way: that seed is above the root and
    carries about half its bits, so Newton needs about two full-size
    divisions instead of one per bit-doubling from a power of two."""
    if n < 0:
        raise ValueError("cube root of a negative number")
    if n < 2:
        return n
    size = n.bit_length()
    if size <= _CBRT_SEED_BITS:
        x = 1 << size // 3 + 1
    else:
        # n < (top + 1) * 2^(3t) <= ((r + 1) * 2^t)^3
        t = size // 6
        x = (icbrt_newton(n >> 3 * t) + 1) << t
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    assert x**3 <= n < (x + 1) ** 3
    return x


def _pow_interval(b: int, e: int, w: int) -> tuple[int, int, int]:
    """A bracket (lo, hi, s) with lo * 2^s <= b^e <= hi * 2^s, for b >= 0,
    e >= 0 and w >= 2.

    Binary exponentiation in which every product keeps w bits: lo is
    floored and hi ceiled by the same shift, so both ends share s.  Each
    step adds a relative error below 2^(2-w) and a squaring doubles the
    error it inherits, so (hi - lo) / lo stays of order e * 2^-w.  A
    caller that rounds a power rounds both ends: rounding is monotone, so
    where the two agree they are the rounding of b^e itself, and where
    they do not the caller falls back to the exact power (Brent and
    Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 3)."""
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
    mantissa: int
    scale: int

    # -- construction ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, scale: int) -> "BigFixed":
        return cls(value * 10**scale, scale)

    @classmethod
    def from_ratio(cls, num: int, den: int, scale: int) -> "BigFixed":
        if den == 0:
            raise ZeroDivisionError("denominator is zero")
        return cls(div_nearest(num * 10**scale, den), scale)

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

    # -- scale management ----------------------------------------------------

    def to_scale(self, scale: int) -> "BigFixed":
        if scale == self.scale:
            return self
        if scale > self.scale:
            return BigFixed(self.mantissa * 10 ** (scale - self.scale), scale)
        return BigFixed(
            div_nearest(self.mantissa, 10 ** (self.scale - scale)), scale)

    def _aligned(self, other: "BigFixed") -> tuple[int, int, int]:
        scale = max(self.scale, other.scale)
        return (self.to_scale(scale).mantissa, other.to_scale(scale).mantissa,
                scale)

    @staticmethod
    def _coerce(value: "BigFixed | int", scale: int) -> "BigFixed":
        if isinstance(value, BigFixed):
            return value
        return BigFixed.from_int(value, scale)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "BigFixed | int") -> "BigFixed":
        other = self._coerce(other, self.scale)
        a, b, s = self._aligned(other)
        return BigFixed(a + b, s)

    __radd__ = __add__

    def __sub__(self, other: "BigFixed | int") -> "BigFixed":
        other = self._coerce(other, self.scale)
        a, b, s = self._aligned(other)
        return BigFixed(a - b, s)

    def __rsub__(self, other: "BigFixed | int") -> "BigFixed":
        return self._coerce(other, self.scale).__sub__(self)

    def __neg__(self) -> "BigFixed":
        return BigFixed(-self.mantissa, self.scale)

    def __mul__(self, other: "BigFixed | int") -> "BigFixed":
        if isinstance(other, int):
            return BigFixed(self.mantissa * other, self.scale)
        a, b, s = self._aligned(other)
        return BigFixed(div_nearest(a * b, 10**s), s)

    __rmul__ = __mul__

    def __truediv__(self, other: "BigFixed | int") -> "BigFixed":
        other = self._coerce(other, self.scale)
        a, b, s = self._aligned(other)
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return BigFixed(div_nearest(a * 10**s, b), s)

    def __rtruediv__(self, other: "BigFixed | int") -> "BigFixed":
        return self._coerce(other, self.scale).__truediv__(self)

    def pow_int(self, k: int) -> "BigFixed":
        """Integer power, exact until the final rescale."""
        if k < 0:
            raise ValueError("negative powers not supported; divide instead")
        if k == 0:
            return BigFixed.from_int(1, self.scale)
        return BigFixed(
            div_nearest(self.mantissa**k, 10 ** (self.scale * (k - 1))),
            self.scale)

    def sqrt(self) -> "BigFixed":
        return BigFixed(isqrt_newton(self.mantissa * 10**self.scale),
                        self.scale)

    def cbrt(self) -> "BigFixed":
        if self.mantissa < 0:
            return -BigFixed(
                icbrt_newton(-self.mantissa * 10 ** (2 * self.scale)),
                self.scale)
        return BigFixed(icbrt_newton(self.mantissa * 10 ** (2 * self.scale)),
                        self.scale)

    # -- comparisons ---------------------------------------------------------

    def _cmp(self, other: "BigFixed | int") -> int:
        other = self._coerce(other, self.scale)
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.scale)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def decimal(self) -> str:
        sign = "-" if self.mantissa < 0 else ""
        digits = str(abs(self.mantissa)).rjust(self.scale + 1, "0")
        if self.scale == 0:
            return sign + digits
        return f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"

    def __str__(self) -> str:
        return self.decimal()


def pi(scale: int) -> BigFixed:
    """pi at the given scale by the arctangent identity
    pi = 16*atan(1/5) - 4*atan(1/239), summed in exact integers."""
    work = scale + 10

    def atan_inv(k: int) -> int:
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
