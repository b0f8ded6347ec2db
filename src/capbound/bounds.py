"""Upper bounds on the size of progression-free subsets of F_3^n.

The bound family is

    |A| <= 2*|M(n, floor(d/2))| + 3^n - |M(n, d)|,    0 <= d <= 2n,

where |M(n, d)| counts monomials in n variables with exponents < 3 and
total degree <= d.  For odd d the support cap uses floor(d/2): if one half
of a degree-<=d product exceeds floor(d/2), the other half is forced below
it, so the split argument goes through unchanged.

Every bound is an exact integer.  The sharp variant carries two exact
cross-check identities computed by independent routes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .qnomial import mspace_size, qnomial, qnomial_row, series_coeff_bound

Method = Literal["for_d", "optimal", "theorem", "sharp"]


@dataclass(frozen=True)
class BoundReport:
    """One bound on F_q^n: its exact value, the method that gave it, the
    degree d where one applies, and the cross-check identities, each
    with its verdict; `checks` gives them as report checks, and `as_json`
    the entry `bound` writes, the value a decimal string of any length."""
    n: int
    q: int
    value: int
    method: Method
    d: int | None = None
    identities: tuple[tuple[str, bool], ...] = field(default=())

    @property
    def all_identities_pass(self) -> bool:
        return all(ok for _, ok in self.identities)

    @property
    def checks(self) -> list:
        from .stages import Check  # here, so a bound loads only its layers

        return [Check(f"{self.method}:{name}", ok,
                      f"exact identity on n={self.n}")
                for name, ok in self.identities]

    def as_json(self) -> dict:
        from .stages import _int_str

        return {"n": self.n, "q": self.q, "d": self.d, "method": self.method,
                "value": _int_str(self.value),
                "identities": [{"name": name, "pass": ok}
                               for name, ok in self.identities]}


def bound_for_d(n: int, d: int) -> BoundReport:
    """The explicit bound 2*|M(n, floor(d/2))| + 3^n - |M(n, d)| at a given d."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < 0 or d > 2 * n:
        raise ValueError(f"d must lie in [0, {2 * n}] for n={n}, got {d}")
    value = 2 * mspace_size(n, d // 2) + 3**n - mspace_size(n, d)
    return BoundReport(n=n, q=3, d=d, value=value, method="for_d")


def optimal_bound(n: int) -> BoundReport:
    """Exhaustive integer minimization of bound_for_d over d in [0, 2n].

    Ties break toward smaller d.  Odd d can beat the even choice d = 4n/3
    by a constant factor (e.g. 324 < 414 at n = 6) while sharing its
    growth rate, so we search rather than trust a formula.

    Only odd d and d = 2n need a look.  Write f(d) for the bound, S(d)
    for |M(n, d)| and a_k for the row.  For 2m < 2n, floor((2m+1)/2) = m
    gives f(2m+1) = f(2m) - a_(2m+1) < f(2m), since every a_k on [0, 2n]
    is at least 1; so no even d below 2n is the first minimizer.  The scan
    carries f over odd d, from f(1) = 3^n + 1 - n by
    f(2m+1) = f(2m-1) + 2 a_m - a_(2m) - a_(2m+1), keeps the first
    smallest, and compares it with f(2n) = 2 S(n) = 3^n + a_n (the row is
    a palindrome), which wins only if strictly smaller.
    """
    coeffs = qnomial_row(n, 3).coeffs  # refuses a negative n
    space = 3**n
    best_d, best = 2 * n, space + coeffs[n]
    if n:
        odd_d = 1
        odd = value = space + 1 - n
        for m in range(1, n):
            value += 2 * coeffs[m] - coeffs[2 * m] - coeffs[2 * m + 1]
            if value < odd:
                odd_d, odd = 2 * m + 1, value
        if odd <= best:
            best_d, best = odd_d, odd
    return BoundReport(n=n, q=3, d=best_d, value=best, method="optimal")


def theorem_bound(n: int) -> BoundReport:
    """The headline bound 3 * sum_{k=0..floor(2n/3)} qnomial(n, k, 3)."""
    coeffs = qnomial_row(n, 3).coeffs  # refuses a negative n
    value = 3 * sum(coeffs[: (2 * n) // 3 + 1])
    return BoundReport(n=n, q=3, d=None, value=value, method="theorem")


def sharp_bound(n: int) -> BoundReport:
    """theorem_bound(n) minus the middle coefficient, for n divisible by 3.

    The report's identities record two independent recomputations that
    must agree exactly:

      * equality with bound_for_d(n, 4n/3), and
      * equality with series_coeff_bound(n, 3).
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n % 3 != 0:
        raise ValueError(f"sharp bound needs n divisible by 3, got {n}")
    value = theorem_bound(n).value - qnomial(n, 2 * n // 3, 3)
    identities = (
        ("equals_bound_for_d_4n_3", value == bound_for_d(n, 4 * n // 3).value),
        ("equals_series_coeff_bound", value == series_coeff_bound(n, 3)),
    )
    return BoundReport(n=n, q=3, d=None, value=value, method="sharp",
                       identities=identities)
