"""Exact coefficient rows of (1 + x + ... + x^(q-1))^n and derived counts.

Everything here is arbitrary-precision integer arithmetic; no floating
point in any value, no modular shortcuts.

Rows come from a P-recursive (holonomic) recurrence of f = P^n with
P = 1 + x + ... + x^(q-1) = (1 - x^q)/(1 - x).  Differentiating gives
P * f' = n * P' * f, where (1 - x)^2 * P' = 1 - q*x^(q-1) + (q-1)*x^q.
Multiplying both sides by (1 - x)^2 gives

    (1 - x - x^q + x^(q+1)) * f' = n * (1 - q*x^(q-1) + (q-1)*x^q) * f,

and reading off the coefficient of x^(k-1) gives, for a_k = [x^k] f,

    a_0 = 1,   k * a_k = (n + k - 1) * a_(k-1) + (k - q - n*q) * a_(k-q)
                         + (n*(q-1) + q + 1 - k) * a_(k-q-1),

with a_k = 0 for k < 0.  Read directly, P * f' = n * P' * f has q - 1
terms, so at q = 3, where P = 1 + x + x^2 and P' = 1 + 2x, the
coefficient of x^(k-1) gives the two-term recurrence

    k * a_k = (n - k + 1) * a_(k-1) + (2n - k + 2) * a_(k-2),

and q = 3 rows, the rows of the bound family, use it.  Every other q
uses the three-term form above.  Each entry costs two or three
multiplications by small integers and one division by k, and a row of
length (q-1)n + 1 costs O(q n) big-integer products instead of the
O(q n^2) of multiplying by P one factor at a time.  Every division is
checked: a nonzero remainder raises ArithmeticError rather than
flooring.

P^n is palindromic, a_k = a_((q-1)n-k), so qnomial_row recurs only up to
q + 1 entries past the middle and mirrors the rest: a cached row at
(n, q) = (2400, 3) takes 5.3 ms where the full recurrence takes 8.4 ms,
and (405, 16) 5.3 ms against 9.0 ms (Python 3.11, one core of a shared
2-core VM).  The q + 1 entries recurred past the middle must equal their
mirror images and the row must sum to q^n, or ArithmeticError is raised.

Finished rows are cached per (n, q) for the life of the process, because
bound sweeps ask for the same rows again and again.  row_prefix runs the
same recurrence, unmirrored, up to a given k outside the cache, for
one-off coefficients; run to (q-1)n it is the whole row by the
recurrence alone, the reference that mirrored rows are tested against.
A build is refused with ValueError before anything is allocated where
what it holds at once would exceed MAX_ROW_BITS: each entry's n * log2(q)
coefficient bits plus four machine words (256 bits), for the row's
(q-1)n + 1 entries and the q + 1 leading zeros the three-term recurrence
runs behind (counted at every q); a prefix is held to the same ceiling.
The one-entry row of n = 0 is (1,) at every q and allocates no pad.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

# Ceiling on what one row build holds at once: 2^30 bits, i.e. 128 MiB.
# It admits n = 18,322 at q = 3 (coefficients of about 8,700 digits) and
# refuses n = 10^5 at q = 3, whose row would take about 4 GB; at n = 1 it
# admits q up to 1,938,953.
MAX_ROW_BITS = 2**30
# Machine words a build holds per entry besides the entry's digits: the
# row list's slot and the pad's, the mirrored tuple's and the reversed
# slice's, 64 bits each.
_ENTRY_OVERHEAD_BITS = 4 * 64


@dataclass(frozen=True)
class QNomialRow:
    """One exact coefficient row: coeffs[k] = [x^k] (1 + x + ... + x^(q-1))^n."""

    n: int
    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        assert len(self.coeffs) == (self.q - 1) * self.n + 1


_rows: dict[tuple[int, int], tuple[int, ...]] = {}


def _check_nq(n: int, q: int) -> None:
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")


def _check_size(n: int, q: int, length: int) -> None:
    """Refuse a build of `length` entries whose entries, their machine
    words and the three-term recurrence's q + 1 leading zeros would hold
    more than MAX_ROW_BITS at once.  A one-entry build runs no
    recurrence and holds no pad."""
    held = length if length == 1 else length + q + 1
    bits = held * (n * math.log2(q) + _ENTRY_OVERHEAD_BITS)
    if bits > MAX_ROW_BITS:
        raise ValueError(
            f"row n={n}, q={q} would take about {bits / 2**23:.0f} MiB, "
            f"over the {MAX_ROW_BITS // 2**23} MiB row ceiling")


def _recurrence_row(n: int, q: int, top: int) -> list[int]:
    """Coefficients 0..top of P^n, exactly: from the two-term recurrence
    of P * f' = n * P' * f at q = 3 and from the three-term one at every
    other q.  Each division by k is checked."""
    if top == 0:
        return [1]
    if q == 3:
        return _trinomial_row(n, top)
    return _three_term_row(n, q, top)


def _trinomial_row(n: int, top: int) -> list[int]:
    """Coefficients 0..top of (1 + x + x^2)^n by the two-term recurrence

        k * a_k = (n - k + 1) * a_(k-1) + (2n - k + 2) * a_(k-2),

    the coefficient of x^(k-1) in (1 + x + x^2) * f' = n * (1 + 2x) * f,
    keeping the last two entries in locals."""
    row = [1]
    before, last = 0, 1
    near, far = n, 2 * n + 1
    for k in range(1, top + 1):
        value, rest = divmod(near * last + far * before, k)
        if rest:
            raise ArithmeticError(
                f"recurrence division not exact at n={n}, q=3, k={k}")
        row.append(value)
        before, last = last, value
        near -= 1
        far -= 1
    return row


def _three_term_row(n: int, q: int, top: int) -> list[int]:
    """Coefficients 0..top of P^n from the three-term recurrence.

    The row is built behind q + 1 leading zeros, which stand for the
    entries of negative index, and the three multipliers step with k."""
    pad = q + 1
    row = [0] * pad + [1] + [0] * top
    near, mid, far = n, 1 - q - n * q, n * (q - 1) + q
    for k in range(1, top + 1):
        i = k + pad
        value, rest = divmod(near * row[i - 1] + mid * row[i - q]
                             + far * row[i - q - 1], k)
        if rest:
            raise ArithmeticError(
                f"recurrence division not exact at n={n}, q={q}, k={k}")
        row[i] = value
        near += 1
        mid += 1
        far -= 1
    del row[:pad]
    return row


def qnomial_row(n: int, q: int = 3) -> QNomialRow:
    """Exact row of coefficients of (1 + x + ... + x^(q-1))^n.

    Raises ValueError if its build would hold more than MAX_ROW_BITS.
    """
    _check_nq(n, q)
    cached = _rows.get((n, q))
    if cached is None:
        top = (q - 1) * n
        _check_size(n, q, top + 1)
        cached = _rows[(n, q)] = _mirrored_row(n, q, top)
    return QNomialRow(n, q, cached)


def _mirrored_row(n: int, q: int, top: int) -> tuple[int, ...]:
    """The whole row 0..top from the recurrence run q + 1 entries past
    the middle, with the rest read off the palindrome a_k = a_(top-k).

    Raises ArithmeticError if an entry recurred past the middle differs
    from its mirror image or the row does not sum to q^n."""
    mid = top // 2
    row = _recurrence_row(n, q, min(top, mid + q + 1))
    for k in range(mid + 1, len(row)):
        if row[k] != row[top - k]:
            raise ArithmeticError(
                f"row n={n}, q={q} is not symmetric at k={k}")
    del row[mid + 1:]
    row.extend(reversed(row[:top - mid]))
    if sum(row) != q**n:
        raise ArithmeticError(f"row n={n}, q={q} does not sum to q^n")
    return tuple(row)


def row_prefix(n: int, q: int, top: int) -> list[int]:
    """Coefficients 0..top of (1 + x + ... + x^(q-1))^n, computed by the
    same recurrence but neither read from nor stored in the row cache:
    for one-off coefficients of rows no caller asks for twice.  The
    ceiling applies to the prefix's build."""
    _check_nq(n, q)
    if not 0 <= top <= (q - 1) * n:
        raise ValueError(f"top={top} is outside [0, {(q - 1) * n}]")
    _check_size(n, q, top + 1)
    return _recurrence_row(n, q, top)


def qnomial(n: int, k: int, q: int = 3) -> int:
    """Coefficient of x^k in (1 + x + ... + x^(q-1))^n; 0 outside [0, (q-1)n].

    Out-of-range k is deliberately not an error so that sums and the
    symmetry identity need no edge guards.
    """
    _check_nq(n, q)
    if k < 0 or k > (q - 1) * n:
        return 0
    return qnomial_row(n, q).coeffs[k]


def mspace_size(n: int, d: int) -> int:
    """|M(n, d)|: the number of monomials in n variables with every
    exponent < 3 and total degree <= d, i.e. sum_{i=0..d} of the q = 3
    row coefficients, the monomial count of F_3^n that the bound family
    and the verifier read.

    Saturates at 3^n once d reaches 2n.
    """
    if d < 0:
        raise ValueError(f"degree bound d must be nonnegative, got {d}")
    return sum(qnomial_row(n).coeffs[:d + 1])


def series_coeff_bound(n: int, q: int) -> int:
    """Coefficient of z^t, t = (q-1)n/3, in (1+z+...+z^(q-1))^n * (2+z)/(1-z).

    Since (2+z)/(1-z) = 2 + 3z + 3z^2 + ..., the coefficient equals
    2*qnomial(n, t, q) + 3*sum_{k<t} qnomial(n, k, q), all exact.
    """
    _check_nq(n, q)
    if ((q - 1) * n) % 3 != 0:
        raise ValueError(
            f"(q-1)*n must be divisible by 3 (got n={n}, q={q}); "
            "scale n up to a multiple of 3"
        )
    t = (q - 1) * n // 3
    coeffs = qnomial_row(n, q).coeffs
    return 2 * coeffs[t] + 3 * sum(coeffs[:t])


def clear_cache() -> None:
    """Drop all cached rows (mainly for memory-sensitive callers and tests)."""
    _rows.clear()
