"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines,
or `capbound verify-all --level full` for the same battery as JSON.

Criterion 3 checks every pinned growth constant to within 1 unit in its
last place; tests/test_asymptotics.py checks the same pinned digits against
an mpmath oracle independent of capbound.
"""
import random
import time
from fractions import Fraction

import pytest

from capbound import golden
from capbound.asymptotics import (
    alpha,
    characteristic_root,
    first_correction_estimate,
    growth_constant,
    growth_constant_ratio,
    leading_constant,
    leading_constant_empirical,
    verify_recurrence,
)
from capbound.bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from capbound.capsearch import max_capset
from capbound.fixedpoint import BigFixed
from capbound.qnomial import qnomial, qnomial_row, series_coeff_bound
from capbound.verifier import (
    PointSet,
    clp_split,
    eval_poly,
    expand_neg_sum,
    make_poly,
    monomials_up_to,
    reconstruct_split,
    verify_support_bound,
)


def report(number, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number}: {status} {detail}")


def ulp_between(value: BigFixed, pinned: str) -> Fraction:
    ref = BigFixed.from_decimal(pinned)
    return abs((value - ref).as_fraction()) * 10**ref.scale


def test_criterion_1_recurrence_exact():
    started = time.monotonic()
    check = verify_recurrence(100)
    elapsed = time.monotonic() - started
    ok = check.all_zero and elapsed < 10.0
    report(1, ok, f"verify_recurrence(100) all_zero={check.all_zero} "
                  f"in {elapsed:.2f}s")
    assert check.all_zero
    assert elapsed < 10.0


def test_criterion_2_root_and_alpha_digits():
    started = time.monotonic()
    root_ulp = ulp_between(characteristic_root(18),
                           golden.CHARACTERISTIC_ROOT_DIGITS)
    alpha_ulp = ulp_between(alpha(19), golden.ALPHA_DIGITS)
    elapsed = time.monotonic() - started
    ok = root_ulp <= 1 and alpha_ulp <= 1 and elapsed < 1.0
    report(2, ok, f"root off {float(root_ulp):.3g} ulp, alpha off "
                  f"{float(alpha_ulp):.3g} ulp in {elapsed:.2f}s")
    assert root_ulp <= 1
    assert alpha_ulp <= 1
    assert elapsed < 1.0


def test_criterion_3_growth_table():
    started = time.monotonic()
    distances = {q: ulp_between(growth_constant(q), pinned)
                 for q, pinned in golden.GROWTH_TABLE.items()}
    elapsed = time.monotonic() - started
    failures = {q: float(d) for q, d in distances.items() if d > 1}
    report(3, not failures,
           f"ulp distances vs pinned: "
           f"{ {q: round(float(d), 3) for q, d in distances.items()} } "
           f"in {elapsed:.2f}s")
    assert elapsed < 5.0
    assert not failures, (
        f"ulp distances beyond 1 from the pinned reference: {failures}")


def test_criterion_4_method_independence():
    started = time.monotonic()
    worst = 0.0
    for q in (2, 3, 4, 5, 8):
        saddle = float(growth_constant(q))
        ratio = growth_constant_ratio(q, 120)
        worst = max(worst, abs(saddle - ratio) / saddle)
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 60.0
    report(4, ok, f"worst relative difference {worst:.2e} in {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_5_exact_identity_chain():
    started = time.monotonic()
    for n in range(0, 301, 3):
        sharp = sharp_bound(n)
        assert sharp.value == bound_for_d(n, 4 * n // 3).value
        assert sharp.value == series_coeff_bound(n, 3)
        assert sharp.value == theorem_bound(n).value - qnomial(n, 2 * n // 3, 3)
        assert sharp.all_identities_pass
    elapsed = time.monotonic() - started
    report(5, elapsed < 30.0,
           f"exact for n = 0, 3, ..., 300 in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_6_oracle_domination():
    expected = {1: 2, 2: 4, 3: 9, 4: 20}
    started = time.monotonic()
    sizes = {}
    for n in (1, 2, 3):
        result = max_capset(n)
        sizes[n] = result.max_size
        assert result.proven_optimal
        assert result.max_size <= theorem_bound(n).value
        assert result.max_size <= optimal_bound(n).value
    small_elapsed = time.monotonic() - started
    assert small_elapsed < 5.0

    big_started = time.monotonic()
    result4 = max_capset(4)
    big_elapsed = time.monotonic() - big_started
    sizes[4] = result4.max_size
    assert result4.proven_optimal
    # the all-direction slice bound must beat the coordinate-only walk
    assert result4.nodes_explored < 11_295_933
    # the lexicographically least maximum set, pinned
    assert result4.witness.points == (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 32,
                                      35, 38, 47, 59, 65, 66, 67, 71, 77)
    assert result4.max_size <= theorem_bound(4).value
    assert result4.max_size <= optimal_bound(4).value
    ok = sizes == expected and big_elapsed < 600.0
    report(6, ok, f"max sizes {sizes} (n<=3 in {small_elapsed:.2f}s, "
                  f"n=4 in {big_elapsed:.1f}s)")
    assert sizes == expected
    assert big_elapsed < 600.0


def test_criterion_7_proof_core_verification():
    started = time.monotonic()
    cases = [(1, 1, PointSet(3, 1, (0, 1)))]
    witness2 = max_capset(2).witness
    cases += [(2, d, PointSet(3, 2, witness2.points)) for d in (2, 3)]
    witness3 = max_capset(3).witness
    cases += [(3, d, PointSet(3, 3, witness3.points)) for d in (3, 4)]
    for n, d, ps in cases:
        result = verify_support_bound(n, d, ps)
        assert result.diagonal_ok, (n, d)
        assert result.rank_ok, (n, d)
        assert result.support_ok, (n, d)
        assert result.bound_ok, (n, d)
    elapsed = time.monotonic() - started
    report(7, elapsed < 60.0,
           f"{len(cases)} cases x 4 checks in {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_8_leading_constant():
    started = time.monotonic()
    value = leading_constant(19)
    pinned = BigFixed.from_decimal(golden.LEADING_CONSTANT_DIGITS)
    rel = abs((value - pinned).as_fraction() / pinned.as_fraction())
    # >= 10 significant digits of agreement with the pinned constant
    digits_ok = rel < Fraction(1, 10**10)

    empirical = leading_constant_empirical((300, 600, 1200, 2400))
    emp_rel = abs(empirical - float(value)) / float(value)
    emp_ok = emp_rel < 1e-3
    elapsed = time.monotonic() - started
    report(8, digits_ok and emp_ok and elapsed < 300.0,
           f"closed form {value.decimal()} vs pinned "
           f"{golden.LEADING_CONSTANT_DIGITS} (rel {float(rel):.2e}; the "
           f"expressions share 10 significant digits and then diverge), "
           f"extrapolation {empirical:.9f} (rel {emp_rel:.2e}) "
           f"in {elapsed:.1f}s")
    assert digits_ok, (
        f"closed form {value.decimal()} agrees with the pinned "
        f"{golden.LEADING_CONSTANT_DIGITS} only to {float(rel):.2e} "
        f"relative; the discrepancy must be surfaced, not hidden")
    assert emp_ok
    assert elapsed < 300.0


def test_criterion_9_first_correction_soft():
    estimate = first_correction_estimate(2400)
    target = golden.FIRST_CORRECTION
    rel = abs(estimate - target) / abs(target)
    within = rel <= 0.05 and estimate < 0
    report(9, True, f"estimate {estimate:.6f} vs pinned {target} "
                    f"(rel {rel:.2e})"
                    + ("" if within else " -- WARNING: outside 5%"))
    if not within:
        pytest.xfail(f"soft criterion: measured {estimate:.6f}, "
                     f"outside 5% of {target}")
    assert estimate < 0


def test_criterion_10_property_suites():
    rng = random.Random(12345)
    for n in range(0, 51):
        row = qnomial_row(n, 3).coeffs
        assert row == row[::-1]
        assert sum(row) == 3**n
    for _ in range(60):
        q = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 40)
        k = rng.randint(-2, (q - 1) * n + 2)
        assert qnomial(n, k, q) == sum(qnomial(n - 1, k - j, q)
                                       for j in range(q))
    reconstructions = 0
    consistencies = 0
    while reconstructions < 100 or consistencies < 100:
        n = rng.randint(1, 3)
        d = rng.randint(0, min(4, 2 * n))
        monos = monomials_up_to(n, d, 3)
        poly = make_poly(3, n, {m: rng.randint(1, 2) for m in monos
                                if rng.random() < 0.5})
        expanded = expand_neg_sum(poly)
        f_map, g_map = clp_split(expanded, d)
        assert reconstruct_split(f_map, g_map, n, 3) == expanded
        assert all(sum(m) <= d // 2 for m in (*f_map, *g_map))
        reconstructions += 1
        b = tuple(rng.randrange(3) for _ in range(n))
        c = tuple(rng.randrange(3) for _ in range(n))
        direct = eval_poly(poly, tuple((-x - y) % 3 for x, y in zip(b, c)))
        assert eval_poly(expanded, b + c) == direct
        consistencies += 1
    report(10, True, f"row invariants n<=50, {reconstructions} "
                     f"reconstructions, {consistencies} eval/expand cases")
