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
from itertools import accumulate
from typing import Literal

from .qnomial import mspace_size, qnomial, qnomial_row, series_coeff_bound

Method = Literal["for_d", "optimal", "theorem", "sharp"]


@dataclass(frozen=True)
class BoundReport:
    n: int
    q: int
    value: int
    method: Method
    d: int | None = None
    identities: tuple[tuple[str, bool], ...] = field(default=())

    @property
    def all_identities_pass(self) -> bool:
        return all(ok for _, ok in self.identities)


def bound_for_d(n: int, d: int) -> BoundReport:
    """The explicit bound 2*|M(n, floor(d/2))| + 3^n - |M(n, d)| at a given d."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if d < 0 or d > 2 * n:
        raise ValueError(f"d must lie in [0, {2 * n}] for n={n}, got {d}")
    value = 2 * mspace_size(n, d // 2, 3) + 3**n - mspace_size(n, d, 3)
    return BoundReport(n=n, q=3, d=d, value=value, method="for_d")


def optimal_bound(n: int) -> BoundReport:
    """Exhaustive integer minimization of bound_for_d over d in [0, 2n].

    Ties break toward smaller d.  Odd d can beat the even choice d = 4n/3
    by a constant factor (e.g. 324 < 414 at n = 6) while sharing its
    growth rate, so we search rather than trust a formula.  One prefix-sum
    pass over the row gives every |M(n, d)|, d = 0..2n.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    sizes = list(accumulate(qnomial_row(n, 3).coeffs))
    space = 3**n
    values = [2 * sizes[d // 2] + space - sizes[d] for d in range(2 * n + 1)]
    best_d = min(range(2 * n + 1), key=values.__getitem__)
    return BoundReport(n=n, q=3, d=best_d, value=values[best_d],
                       method="optimal")


def theorem_bound(n: int) -> BoundReport:
    """The headline bound 3 * sum_{k=0..floor(2n/3)} qnomial(n, k, 3)."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    coeffs = qnomial_row(n, 3).coeffs
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
