"""The verification battery behind `capbound verify-all`.

Each criterion is one function returning a CriterionResult; quick level
caps the heavy inputs (search dimension, row length for the asymptotic
ladders) so the whole battery finishes in seconds, full level runs the
real thing.  Criterion 9 is soft: outside its tolerance it reports a
warning instead of failing, everything else is a hard pass/fail.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import golden
from .asymptotics import (
    alpha,
    characteristic_root,
    first_correction_estimate,
    growth_constant,
    growth_constant_ratio,
    leading_constant,
    leading_constant_empirical,
    verify_recurrence,
)
from .bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from .capsearch import PointSet, max_capset
from .fixedpoint import BigFixed
from .qnomial import qnomial, qnomial_row, series_coeff_bound
from .verifier import (
    eval_poly,
    expand_neg_sum,
    clp_split,
    make_poly,
    monomials_up_to,
    reconstruct_split,
    verify_support_bound,
)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    warning: str | None = None


def ulp_distance(value: BigFixed, pinned: str) -> Fraction:
    """Distance from a pinned decimal string in units of its last place."""
    ref = BigFixed.from_decimal(pinned)
    return abs((value - ref).as_fraction()) * 10**ref.scale


def leading_constant_digit_check(value: BigFixed) -> tuple[bool, str]:
    """Significant-digit agreement with the pinned leading constant.

    The pinned reference and the closed form share 10 significant digits
    and then diverge; the check requires at least those 10 and the detail
    spells the divergence out instead of hiding it.
    """
    pinned = BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS)
    rel = abs((value - pinned).as_fraction() / pinned.as_fraction())
    digits = 0
    while rel != 0 and rel < Fraction(1, 10**(digits + 1)):
        digits += 1
    ok = digits >= 10
    detail = (f"computed {value.decimal()} vs pinned "
              f"{golden.LEADING_CONSTANT_DIGITS}: {digits} significant "
              f"digits agree (relative difference {float(rel):.2e}); the "
              f"two expressions diverge after digit 10 by construction of "
              f"the pinned value")
    return ok, detail


# --------------------------------------------------------------------------
# criteria

def _c1_recurrence(level: str) -> CriterionResult:
    n_max = 100 if level == "full" else 30
    check = verify_recurrence(n_max)
    return CriterionResult(
        "1_recurrence_exact", check.all_zero,
        f"n = 0..{n_max - 2} all exactly zero: {check.all_zero}")


def _c2_root_digits(level: str) -> CriterionResult:
    root_ulp = ulp_distance(characteristic_root(18),
                            golden.CHARACTERISTIC_ROOT_DIGITS)
    alpha_ulp = ulp_distance(alpha(19), golden.ALPHA_DIGITS)
    ok = root_ulp <= 1 and alpha_ulp <= 1
    return CriterionResult(
        "2_root_and_alpha_digits", ok,
        f"characteristic_root(18) off by {float(root_ulp):.3g} ulp, "
        f"alpha(19) off by {float(alpha_ulp):.3g} ulp")


def _c3_growth_table(level: str) -> CriterionResult:
    failures = []
    for q, pinned in golden.GROWTH_TABLE.items():
        value = growth_constant(q)
        dist = ulp_distance(value, pinned)
        if dist > 1:
            failures.append(f"q={q}: computed {value.decimal()[:len(pinned) + 3]}"
                            f" vs pinned {pinned} ({float(dist):.2f} ulp)")
    detail = "all 15 entries within 1 ulp" if not failures else "; ".join(failures)
    return CriterionResult("3_growth_table", not failures, detail)


def _c4_method_independence(level: str) -> CriterionResult:
    worst = 0.0
    for q in (2, 3, 4, 5, 8):
        saddle = float(growth_constant(q))
        ratio = growth_constant_ratio(q, 120)
        worst = max(worst, abs(saddle - ratio) / saddle)
    return CriterionResult(
        "4_method_independence", worst < 1e-4,
        f"worst relative difference over q in (2,3,4,5,8): {worst:.2e}")


def _c5_identity_chain(level: str) -> CriterionResult:
    top = 300 if level == "full" else 60
    for n in range(0, top + 1, 3):
        sharp = sharp_bound(n)
        chain = (sharp.value == bound_for_d(n, 4 * n // 3).value
                 == series_coeff_bound(n, 3)
                 == theorem_bound(n).value - qnomial(n, 2 * n // 3, 3))
        if not (chain and sharp.all_identities_pass):
            return CriterionResult("5_identity_chain", False,
                                   f"chain broken at n={n}")
    return CriterionResult("5_identity_chain", True,
                           f"exact for all n = 0, 3, ..., {top}")


def _c6_oracle_domination(level: str) -> CriterionResult:
    expected = {1: 2, 2: 4, 3: 9, 4: 20}
    top = 4 if level == "full" else 3
    details = []
    for n in range(1, top + 1):
        result = max_capset(n)
        ok = (result.max_size == expected[n] and result.proven_optimal
              and result.max_size <= theorem_bound(n).value
              and result.max_size <= optimal_bound(n).value)
        details.append(f"n={n}: {result.max_size}")
        if not ok:
            return CriterionResult(
                "6_oracle_domination", False,
                f"n={n}: got {result.max_size} (optimal={result.proven_optimal}),"
                f" expected {expected[n]} within the bounds")
    return CriterionResult("6_oracle_domination", True,
                           ", ".join(details) + " (all proven optimal, all"
                           " within the bounds)")


def _c7_proof_core(level: str) -> CriterionResult:
    cases: list[tuple[int, int, PointSet]] = [
        (1, 1, PointSet(3, 1, (0, 1))),
    ]
    witness2 = max_capset(2).witness
    cases += [(2, d, witness2) for d in (2, 3)]
    if level == "full":
        witness3 = max_capset(3).witness
        cases += [(3, d, witness3) for d in (3, 4)]
    for n, d, ps in cases:
        report = verify_support_bound(n, d, ps)
        if not report.all_ok:
            return CriterionResult(
                "7_proof_core", False,
                f"(n={n}, d={d}): diagonal={report.diagonal_ok} "
                f"rank={report.rank_ok} support={report.support_ok} "
                f"dim={report.bound_ok}")
    return CriterionResult(
        "7_proof_core", True,
        f"{len(cases)} cases, all four checks each")


def _c8_leading_constant(level: str) -> CriterionResult:
    value = leading_constant(19)
    ok_digits, detail = leading_constant_digit_check(value)
    samples = (300, 600, 1200, 2400) if level == "full" else (150, 300, 600)
    empirical = leading_constant_empirical(samples)
    rel = abs(empirical - float(value)) / float(value)
    ok_emp = rel < 1e-3
    return CriterionResult(
        "8_leading_constant", ok_digits and ok_emp,
        detail + f"; extrapolation over n={samples} gives {empirical:.9f} "
                 f"(relative difference {rel:.2e} vs closed form)")


def _c9_first_correction(level: str) -> CriterionResult:
    if level != "full":
        return CriterionResult("9_first_correction", True,
                               "runs at full level only (needs rows to 2400)")
    estimate = first_correction_estimate(2400)
    target = golden.FIRST_CORRECTION
    rel = abs(estimate - target) / abs(target)
    detail = (f"estimate {estimate:.6f} vs pinned {target} "
              f"(relative difference {rel:.2e})")
    if rel <= 0.05 and estimate < 0:
        return CriterionResult("9_first_correction", True, detail)
    return CriterionResult("9_first_correction", True, detail,
                           warning=f"outside the 5% tolerance: {detail}")


def _c10_property_suites(level: str) -> CriterionResult:
    rng = random.Random(12345)
    # row symmetry, total sum, sliding recurrence
    for n in range(0, 51):
        row = qnomial_row(n, 3).coeffs
        if row != row[::-1] or sum(row) != 3**n:
            return CriterionResult("10_property_suites", False,
                                   f"row invariant broken at n={n}")
    for _ in range(50):
        n = rng.randint(1, 40)
        q = rng.choice((2, 3, 4, 5))
        k = rng.randint(-2, (q - 1) * n + 2)
        if qnomial(n, k, q) != sum(qnomial(n - 1, k - j, q) for j in range(q)):
            return CriterionResult("10_property_suites", False,
                                   f"recurrence broken at (n={n},k={k},q={q})")
    # split-and-reconstruct on random polynomials
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(0, min(4, 2 * n))
        monos = monomials_up_to(n, d, 3)
        terms = {m: rng.randint(1, 2) for m in monos if rng.random() < 0.5}
        poly = make_poly(3, n, terms)
        expanded = expand_neg_sum(poly)
        f_map, g_map = clp_split(expanded, d)
        if reconstruct_split(f_map, g_map, n, 3) != expanded:
            return CriterionResult("10_property_suites", False,
                                   "split reconstruction mismatch")
        half = d // 2
        if any(sum(m) > half for m in (*f_map, *g_map)):
            return CriterionResult("10_property_suites", False,
                                   "split key degree above d/2")
        # evaluation consistency on a random pair of points
        b = tuple(rng.randrange(3) for _ in range(n))
        c = tuple(rng.randrange(3) for _ in range(n))
        direct = eval_poly(poly, tuple((-x - y) % 3 for x, y in zip(b, c)))
        if eval_poly(expanded, b + c) != direct:
            return CriterionResult("10_property_suites", False,
                                   "eval/expand inconsistency")
    return CriterionResult(
        "10_property_suites", True,
        "row invariants (n <= 50), 100 random split reconstructions, "
        "100 eval/expand consistency cases, all exact")


def run_all(level: str = "quick") -> list[CriterionResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level}")
    battery = (
        _c1_recurrence, _c2_root_digits, _c3_growth_table,
        _c4_method_independence, _c5_identity_chain, _c6_oracle_domination,
        _c7_proof_core, _c8_leading_constant, _c9_first_correction,
        _c10_property_suites,
    )
    return [criterion(level) for criterion in battery]
