"""The verification battery behind `capbound verify-all`.

Each criterion is one function returning a CriterionResult; quick level
caps the heavy inputs (search dimension, row length for the asymptotic
ladders) so the whole battery finishes in seconds, full level runs the
real thing.  Criterion 9 is soft: outside its tolerance it reports a
warning instead of failing, everything else is a hard pass/fail.

Every result carries the values its verdict was decided on (`measured`)
and its wall time, with the wall times of its parts in `timings_s`
(the search at each n in criterion 6), so tests/test_acceptance.py holds
the full level to its thresholds and time bounds without computing
anything itself, and `measured` is the same in every run of one commit.
"""
from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field, replace
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
from .qnomial import qnomial, qnomial_row, row_prefix, series_coeff_bound
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
    measured: dict = field(default_factory=dict)
    warning: str | None = None
    elapsed_s: float = 0.0
    # wall times of a criterion's parts, kept out of `measured` so that
    # two runs of one commit report the same `measured`
    timings_s: dict = field(default_factory=dict, compare=False)


def _timed(criterion):
    """Stamp a criterion's result with its wall time."""
    @functools.wraps(criterion)
    def run(level: str) -> CriterionResult:
        started = time.perf_counter()
        result = criterion(level)
        return replace(result, elapsed_s=time.perf_counter() - started)
    return run


def ulp_distance(value: BigFixed, pinned: str) -> Fraction:
    """Distance from a pinned decimal string in units of its last place."""
    ref = BigFixed.from_decimal(pinned)
    return abs((value - ref).as_fraction()) * 10**ref.scale


def _digit_agreement(value: BigFixed) -> tuple[Fraction, int]:
    """Relative difference from the pinned leading constant, and how many
    significant digits agree; exact agreement counts every pinned digit."""
    pinned = golden.LEADING_CONSTANT_DIGITS
    ref = BigFixed.from_decimal(pinned)
    rel = abs((value - ref).as_fraction() / ref.as_fraction())
    available = len(pinned.replace(".", "").lstrip("0"))
    digits = 0
    while digits < available and rel < Fraction(1, 10**(digits + 1)):
        digits += 1
    return rel, digits


def leading_constant_digit_check(value: BigFixed) -> tuple[bool, str]:
    """Significant-digit agreement with the pinned leading constant.

    The pinned reference and the closed form share 10 significant digits
    and then diverge; the check requires at least those 10 and the detail
    spells the divergence out instead of hiding it.
    """
    rel, digits = _digit_agreement(value)
    detail = (f"computed {value.decimal()} vs pinned "
              f"{golden.LEADING_CONSTANT_DIGITS}: {digits} significant "
              f"digits agree (relative difference {float(rel):.2e}); the "
              f"closed form and the pinned value share only the first 10 "
              f"by construction of the pinned value")
    return digits >= 10, detail


# --------------------------------------------------------------------------
# criteria

@_timed
def c1_recurrence(level: str) -> CriterionResult:
    n_max = 100 if level == "full" else 30
    check = verify_recurrence(n_max)
    return CriterionResult(
        "1_recurrence_exact", check.all_zero,
        f"n = 0..{n_max - 2} all exactly zero: {check.all_zero}",
        {"n_max": n_max, "first_failure": check.first_failure})


@_timed
def c2_root_digits(level: str) -> CriterionResult:
    root_ulp = ulp_distance(characteristic_root(18),
                            golden.CHARACTERISTIC_ROOT_DIGITS)
    alpha_ulp = ulp_distance(alpha(19), golden.ALPHA_DIGITS)
    ok = root_ulp <= 1 and alpha_ulp <= 1
    return CriterionResult(
        "2_root_and_alpha_digits", ok,
        f"characteristic_root(18) off by {float(root_ulp):.3g} ulp, "
        f"alpha(19) off by {float(alpha_ulp):.3g} ulp",
        {"root_ulp": root_ulp, "alpha_ulp": alpha_ulp})


@_timed
def c3_growth_table(level: str) -> CriterionResult:
    distances = {q: ulp_distance(growth_constant(q), pinned)
                 for q, pinned in golden.GROWTH_TABLE.items()}
    failures = [f"q={q}: {float(dist):.2f} ulp"
                for q, dist in distances.items() if dist > 1]
    detail = "all 15 entries within 1 ulp" if not failures else "; ".join(failures)
    return CriterionResult("3_growth_table", not failures, detail,
                           {"ulp": distances})


@_timed
def c4_method_independence(level: str) -> CriterionResult:
    rel_diff = {}
    for q in (2, 3, 4, 5, 8):
        saddle = float(growth_constant(q))
        ratio = growth_constant_ratio(q)
        rel_diff[q] = abs(saddle - ratio) / saddle
    worst = max(rel_diff.values())
    return CriterionResult(
        "4_method_independence", worst < 1e-4,
        f"worst relative difference over q in (2,3,4,5,8): {worst:.2e}",
        {"relative_difference": rel_diff})


@_timed
def c5_identity_chain(level: str) -> CriterionResult:
    top = 300 if level == "full" else 60
    broken = []
    for n in range(0, top + 1, 3):
        sharp = sharp_bound(n)
        chain = (sharp.value == bound_for_d(n, 4 * n // 3).value
                 == series_coeff_bound(n, 3)
                 == theorem_bound(n).value - qnomial(n, 2 * n // 3, 3))
        if not (chain and sharp.all_identities_pass):
            broken.append(n)
    detail = (f"chain broken at n = {broken}" if broken
              else f"exact for all n = 0, 3, ..., {top}")
    return CriterionResult("5_identity_chain", not broken, detail,
                           {"top": top, "broken_at": broken})


@_timed
def c6_oracle_domination(level: str) -> CriterionResult:
    top = 4 if level == "full" else 3
    runs, seconds = {}, {}
    for n in range(1, top + 1):
        started = time.perf_counter()
        result = max_capset(n)
        seconds[n] = time.perf_counter() - started
        runs[n] = {"size": result.max_size,
                   "proven": result.proven_optimal,
                   "witness": result.witness.points,
                   "nodes": result.nodes_explored,
                   "theorem_bound": theorem_bound(n).value,
                   "optimal_bound": optimal_bound(n).value}
    wrong = [n for n, run in runs.items()
             if not (run["proven"]
                     and run["witness"] == golden.LEX_LEAST_WITNESSES[n]
                     and run["size"] <= run["theorem_bound"]
                     and run["size"] <= run["optimal_bound"])]
    detail = ", ".join(f"n={n}: {run['size']}" for n, run in runs.items())
    detail += (f"; wrong at n = {wrong}" if wrong else " (all proven optimal,"
               " the pinned lex-least witnesses, within the bounds)")
    return CriterionResult("6_oracle_domination", not wrong, detail,
                           {"runs": runs}, timings_s=seconds)


@_timed
def c7_proof_core(level: str) -> CriterionResult:
    cases: list[tuple[int, int, PointSet]] = [
        (1, 1, PointSet(1, (0, 1))),
    ]
    witness2 = max_capset(2).witness
    cases += [(2, d, witness2) for d in (2, 3)]
    if level == "full":
        witness3 = max_capset(3).witness
        cases += [(3, d, witness3) for d in (3, 4)]
    reports = [verify_support_bound(n, d, ps) for n, d, ps in cases]
    failed = [(r.n, r.d) for r in reports if not r.all_ok]
    detail = (f"checks fail at (n, d) = {failed}" if failed
              else f"{len(cases)} cases, all five checks each")
    measured = {"cases": [{"n": r.n, "d": r.d, "vanishing": r.vanishing_ok,
                           "diagonal": r.diagonal_ok,
                           "rank": r.rank_ok, "support": r.support_ok,
                           "dimension": r.bound_ok} for r in reports]}
    return CriterionResult("7_proof_core", not failed, detail, measured)


@_timed
def c8_leading_constant(level: str) -> CriterionResult:
    value = leading_constant(19)
    rel, digits = _digit_agreement(value)
    ok_digits, detail = leading_constant_digit_check(value)
    samples = (300, 600, 1200, 2400) if level == "full" else (150, 300, 600)
    empirical = leading_constant_empirical(samples)
    emp_rel = abs(empirical - float(value)) / float(value)
    ok_emp = emp_rel < 1e-3
    return CriterionResult(
        "8_leading_constant", ok_digits and ok_emp,
        detail + f"; extrapolation over n={samples} gives {empirical:.9f} "
                 f"(relative difference {emp_rel:.2e} vs closed form)",
        {"value": value, "rel": rel, "digits": digits, "samples": samples,
         "empirical": empirical, "empirical_rel": emp_rel})


@_timed
def c9_first_correction(level: str) -> CriterionResult:
    n_max = 2400 if level == "full" else 600
    estimate = first_correction_estimate(n_max)
    target = golden.FIRST_CORRECTION
    rel = abs(estimate - target) / abs(target)
    detail = (f"estimate {estimate:.6f} vs pinned {target} "
              f"(relative difference {rel:.2e})")
    within = rel <= 0.05 and estimate < 0
    return CriterionResult(
        "9_first_correction", True, detail,
        {"n_max": n_max, "estimate": estimate, "rel": rel},
        None if within else f"outside the 5% tolerance: {detail}")


@_timed
def c10_property_suites(level: str) -> CriterionResult:
    rng = random.Random(12345)
    cases = dict.fromkeys(("row", "recurrence", "split", "eval"), 0)
    failures = []

    def check(kind: str, ok: bool, case: str) -> None:
        cases[kind] += 1
        if not ok:
            failures.append(f"{kind} at {case}")

    # row symmetry against the unmirrored recurrence, total sum, sliding
    # recurrence
    for n in range(0, 51):
        row = qnomial_row(n, 3).coeffs
        check("row", row == tuple(reversed(row_prefix(n, 3, 2 * n)))
              and sum(row) == 3**n, f"n={n}")
    for _ in range(60):
        n = rng.randint(1, 40)
        q = rng.choice((2, 3, 4, 5))
        k = rng.randint(-2, (q - 1) * n + 2)
        check("recurrence", qnomial(n, k, q)
              == sum(qnomial(n - 1, k - j, q) for j in range(q)),
              f"(n={n},k={k},q={q})")
    # split-and-reconstruct on random polynomials, with the split keys of
    # degree at most d/2, and evaluation consistency on a random pair
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(0, min(4, 2 * n))
        monos = monomials_up_to(n, d)
        terms = {m: rng.randint(1, 2) for m in monos if rng.random() < 0.5}
        poly = make_poly(n, terms)
        expanded = expand_neg_sum(poly)
        f_map, g_map = clp_split(expanded, d)
        check("split", reconstruct_split(f_map, g_map, n) == expanded
              and all(sum(m) <= d // 2 for m in (*f_map, *g_map)),
              f"(n={n},d={d})")
        b = tuple(rng.randrange(3) for _ in range(n))
        c = tuple(rng.randrange(3) for _ in range(n))
        direct = eval_poly(poly, tuple((-x - y) % 3 for x, y in zip(b, c)))
        check("eval", eval_poly(expanded, b + c) == direct, f"b={b}, c={c}")
    detail = "; ".join(failures[:5]) or f"cases {cases}, all exact"
    return CriterionResult("10_property_suites", not failures, detail,
                           {"cases": cases, "failures": failures})


def run_all(level: str = "quick") -> list[CriterionResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be quick or full, got {level}")
    battery = (
        c1_recurrence, c2_root_digits, c3_growth_table,
        c4_method_independence, c5_identity_chain, c6_oracle_domination,
        c7_proof_core, c8_leading_constant, c9_first_correction,
        c10_property_suites,
    )
    return [criterion(level) for criterion in battery]
