"""The verification battery behind `capbound verify-all`.

Each criterion is one function returning a CriterionResult; quick level
caps the heavy inputs (search dimension, row length for the asymptotic
ladders) so the whole battery finishes in seconds, full level runs the
real thing.  Every criterion is a hard pass/fail.

A criterion that covers a command decides on the checks of the layer
function or property the command calls, so the two cannot disagree;
criterion 7 verifies pinned sets, not searched ones.  Full level also
holds each regression pin in `golden` in the criterion whose claim it
covers, with the found values in `measured["pins"]`.  It takes 0.6-0.9 s
wall (2-core VM, Python 3.11.7).

Every result carries the values its verdict was decided on (`measured`)
and its cost (`elapsed_ms`, `timings_ms`), so tests/test_acceptance.py
holds the full level to its thresholds and time bounds without computing
anything itself, and `measured` is the same in every run of one commit.
"""
from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field, replace

from . import golden
from .asymptotics import (alpha, characteristic_root,
                          first_correction_estimate, growth_constant,
                          growth_constant_ratio, leading_constant,
                          leading_constant_empirical, ratio_check,
                          saddle_point, verify_recurrence)
from .bounds import optimal_bound, sharp_bound, theorem_bound
from .capsearch import PointSet, max_capset
from .qnomial import qnomial, qnomial_row, row_prefix
from .stages import Check, Stages
from .verifier import (clp_split, eval_poly, expand_neg_sum, make_poly,
                       monomials_up_to, reconstruct_split,
                       verify_support_bound)


@dataclass(frozen=True)
class CriterionResult:
    """A verdict, the values it was decided on, and its wall time and
    those of its parts (the search at each n in criterion 6) in ms."""
    name: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)
    elapsed_ms: float = field(default=0.0, compare=False)
    timings_ms: dict = field(default_factory=dict, compare=False)

    @property
    def check(self) -> Check:
        return Check(self.name, self.passed, self.detail)


def _pinned(result: CriterionResult, found: dict, *pins) -> CriterionResult:
    """result, with found in measured and failing if found breaks a pin."""
    failures = golden.pin_failures(found, *pins)
    verdict = f"broken: {'; '.join(failures)}" if failures else "hold"
    return replace(result, passed=result.passed and not failures,
                   detail=f"{result.detail}; pins {verdict}",
                   measured={**result.measured, "pins": found})


def _sha256(**values) -> dict:
    return {key: hashlib.sha256(str(value).encode()).hexdigest()
            for key, value in values.items()}


def _timed(criterion):
    """Stamp a criterion's result with its wall time."""
    @functools.wraps(criterion)
    def run(level: str) -> CriterionResult:
        clock = Stages()
        result = criterion(level)
        clock.lap("criterion")
        return replace(result, elapsed_ms=clock.ms["criterion"])
    return run


# --------------------------------------------------------------------------
# criteria

@_timed
def c1_recurrence(level: str) -> CriterionResult:
    n_max = 100 if level == "full" else 30
    found = verify_recurrence(n_max)
    return CriterionResult(
        "1_recurrence_exact", found.check.passed,
        f"n = 0..{n_max - 2} all exactly zero: {found.all_zero}",
        {"n_max": n_max, "first_failure": found.first_failure})


@_timed
def c2_root_digits(level: str) -> CriterionResult:
    places = golden.ALPHA_CHECK_PLACES  # the inputs of `alpha --digits 19`
    (alpha_check, alpha_ulp), (root_check, root_ulp) = golden.alpha_checks(
        alpha(places), characteristic_root(places))
    result = CriterionResult(
        "2_root_and_alpha_digits", alpha_check.passed and root_check.passed,
        f"characteristic_root({places}) off by {root_ulp:.3g} ulp, "
        f"alpha({places}) off by {alpha_ulp:.3g} ulp",
        {"root_ulp": root_ulp, "alpha_ulp": alpha_ulp})
    if level == "full":
        root = characteristic_root(30000)
        result = _pinned(result, _sha256(
            alpha=alpha(30000), characteristic_root=root), golden.ALPHA_SHA256)
    return result


@_timed
def c3_growth_table(level: str) -> CriterionResult:
    distances, failures = {}, []
    for q in golden.GROWTH_TABLE:  # every q of `table`'s default range
        check, distances[q] = golden.growth_table_check(
            q, saddle_point(q).constant)
        if not check.passed:
            failures.append(f"q={q}: {distances[q]:.2f} ulp")
    detail = "all 15 entries within 1 ulp" if not failures else "; ".join(failures)
    result = CriterionResult("3_growth_table", not failures, detail,
                             {"ulp": distances})
    if level == "full":
        sp = saddle_point(64, 30000)
        result = _pinned(result, _sha256(x0=sp.x0, constant=sp.constant),
                         golden.SADDLE_64_SHA256)
    return result


@_timed
def c4_method_independence(level: str) -> CriterionResult:
    checks = {q: ratio_check(growth_constant(q), growth_constant_ratio(q))
              for q in (2, 3, 4, 5, 8)}
    rel_diff = {q: rel for q, (_, rel) in checks.items()}
    worst = max(rel_diff.values())
    return CriterionResult(
        "4_method_independence", all(c.passed for c, _ in checks.values()),
        f"worst relative difference over q in (2,3,4,5,8): {worst:.2e}",
        {"relative_difference": rel_diff})


@_timed
def c5_identity_chain(level: str) -> CriterionResult:
    top = 300 if level == "full" else 60
    broken = []
    for n in range(0, top + 1, 3):
        # the sharp bound is the headline one less the middle coefficient,
        # and equals the bound at d = 4n/3 and the series coefficient bound
        # exactly when its two identities pass
        if not sharp_bound(n).all_identities_pass:
            broken.append(n)
    detail = (f"chain broken at n = {broken}" if broken
              else f"exact for all n = 0, 3, ..., {top}")
    result = CriterionResult("5_identity_chain", not broken, detail,
                             {"top": top, "broken_at": broken})
    if level == "full":
        entries = [bound(2400).as_json()
                   for bound in (optimal_bound, theorem_bound, sharp_bound)]
        result = _pinned(result, _sha256(bounds=json.dumps(
            entries, sort_keys=True)), golden.BOUNDS_2400_SHA256)
    return result


@_timed
def c6_oracle_domination(level: str) -> CriterionResult:
    top = 4 if level == "full" else 3
    clock, searches = Stages(), {}
    for n in range(1, top + 1):
        searches[n] = max_capset(n)
        clock.lap(n)
    runs = {n: {"size": result.max_size,
                "proven": result.proven_optimal,
                "witness": result.witness.points,
                "nodes": result.nodes_explored,
                "theorem_bound": theorem_bound(n).value,
                "optimal_bound": optimal_bound(n).value}
            for n, result in searches.items()}
    wrong = [n for n, run in runs.items()
             if not (run["proven"]
                     and run["witness"] == golden.LEX_LEAST_WITNESSES[n]
                     and run["size"] <= run["theorem_bound"]
                     and run["size"] <= run["optimal_bound"]
                     and all(c.passed for c in searches[n].checks))]
    detail = ", ".join(f"n={n}: {run['size']}" for n, run in runs.items())
    detail += (f"; wrong at n = {wrong}" if wrong else " (all proven optimal,"
               " the pinned lex-least witnesses, within the bounds)")
    result = CriterionResult("6_oracle_domination", not wrong, detail,
                             {"runs": runs}, timings_ms=clock.ms)
    if level == "full":
        search = searches[4]
        report = {**search.counters, **search.prunes,
                  "nodes_explored": search.nodes_explored}
        pins = (golden.SEARCH_4_COUNTERS, golden.SEARCH_4_ABOVE,
                golden.SEARCH_4_BELOW)
        result = _pinned(result, {key: report[key] for group in pins
                                  for key in group}, *pins)
    return result


@_timed
def c7_proof_core(level: str) -> CriterionResult:
    # the d at which each pinned set is verified: the lex-least witnesses,
    # which criterion 6 ties to the search, and the n = 5 cap
    plan = {1: (1,), 2: (2, 3)}
    if level == "full":
        plan.update({3: (3, 4), 4: range(9), 5: range(11)})
    sets = {**golden.LEX_LEAST_WITNESSES, 5: golden.CLP_CAP_5}
    reports = [verify_support_bound(PointSet(n, sets[n]), d)
               for n, ds in plan.items() for d in ds]
    failed = [(r.n, r.d) for r in reports if not r.all_ok]
    detail = (f"checks fail at (n, d) = {failed}" if failed
              else f"{len(reports)} cases, all five checks each")
    measured = {"cases": [{"n": r.n, "d": r.d,
                           **{c.name: c.passed for c in r.checks}}
                          for r in reports]}
    result = CriterionResult("7_proof_core", not failed, detail, measured)
    if level == "full":
        result = _pinned(result, {n: tuple((r.dim_v, r.max_support, r.rank)
                                           for r in reports if r.n == n)
                                  for n in (4, 5)}, golden.CLP_TRIPLES)
    return result


@_timed
def c8_leading_constant(level: str) -> CriterionResult:
    value = leading_constant(19)
    check, rel, digits = golden.leading_constant_digit_check(value)
    samples = (300, 600, 1200, 2400) if level == "full" else (150, 300, 600)
    empirical = leading_constant_empirical(samples)
    emp_rel = abs(empirical - float(value)) / float(value)
    ok_emp = emp_rel < 1e-3
    result = CriterionResult(
        "8_leading_constant", check.passed and ok_emp,
        f"{check.detail}; extrapolation over n={samples} gives "
        f"{empirical:.9f} (relative difference {emp_rel:.2e} vs closed form)",
        {"value": value.as_json(), "rel": rel, "digits": digits,
         "samples": samples, "empirical": empirical,
         "empirical_rel": emp_rel})
    if level == "full":
        result = _pinned(result, _sha256(
            leading_constant=leading_constant(30000)),
            golden.LEADING_CONSTANT_SHA256)
    return result


@_timed
def c9_first_correction(level: str) -> CriterionResult:
    n_max = 2400 if level == "full" else 600
    estimate = first_correction_estimate(n_max)
    target = golden.FIRST_CORRECTION
    rel = abs(estimate - target) / abs(target)
    return CriterionResult(
        "9_first_correction", estimate < 0 and rel <= 0.05,
        f"estimate {estimate:.6f} vs pinned {target} (relative difference "
        f"{rel:.2e}, at most 5% allowed)",
        {"n_max": n_max, "estimate": estimate, "rel": rel})


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
