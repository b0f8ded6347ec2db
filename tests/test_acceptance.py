"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each test runs its criterion from capbound.acceptance at full level, the
same code `capbound verify-all --level full` runs, and holds the values
and wall time it returns to the thresholds and time bounds below.  A
criterion that wrongly reports a pass still fails here.  Run as
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 3 checks every pinned growth constant to within 1 unit in its
last place; tests/test_asymptotics.py checks the same pinned digits against
an mpmath oracle independent of capbound.
"""
from fractions import Fraction

import pytest

from capbound import acceptance, bounds, golden


def run(criterion):
    result = criterion("full")
    status = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] criterion {result.name}: {status} {result.detail} "
          f"in {result.elapsed_ms / 1000:.2f}s")
    return result, result.measured


def test_criterion_1_recurrence_exact():
    result, measured = run(acceptance.c1_recurrence)
    assert measured["n_max"] == 100
    assert measured["first_failure"] is None
    assert result.elapsed_ms < 10_000
    assert result.passed


def test_criterion_2_root_and_alpha_digits():
    result, measured = run(acceptance.c2_root_digits)
    assert measured["root_ulp"] <= 1
    assert measured["alpha_ulp"] <= 1
    assert result.elapsed_ms < 1_000
    assert result.passed


def test_criterion_3_growth_table():
    result, measured = run(acceptance.c3_growth_table)
    distances = measured["ulp"]
    assert distances.keys() == golden.GROWTH_TABLE.keys()
    failures = {q: float(d) for q, d in distances.items() if d > 1}
    assert not failures, (
        f"ulp distances beyond 1 from the pinned reference: {failures}")
    assert result.elapsed_ms < 5_000
    assert result.passed


def test_criterion_4_method_independence():
    result, measured = run(acceptance.c4_method_independence)
    rel_diff = measured["relative_difference"]
    assert tuple(rel_diff) == (2, 3, 4, 5, 8)
    assert max(rel_diff.values()) < 1e-4
    assert result.elapsed_ms < 60_000
    assert result.passed


def test_criterion_5_exact_identity_chain():
    result, measured = run(acceptance.c5_identity_chain)
    assert measured["top"] == 300
    assert measured["broken_at"] == []
    assert result.elapsed_ms < 30_000
    assert result.passed


def test_criterion_5_fails_where_an_identity_breaks(monkeypatch):
    # the chain holds exactly where sharp_bound's identities pass, so a
    # series coefficient off by one at one n breaks it there alone
    series = bounds.series_coeff_bound
    monkeypatch.setattr(bounds, "series_coeff_bound",
                        lambda n, q: series(n, q) + (n == 33))
    result = acceptance.c5_identity_chain("quick")
    assert result.measured == {"top": 60, "broken_at": [33]}
    assert result.detail == "chain broken at n = [33]"
    assert not result.passed


def test_criterion_6_oracle_domination():
    result, measured = run(acceptance.c6_oracle_domination)
    runs = measured["runs"]
    sizes = {n: r["size"] for n, r in runs.items()}
    assert sizes == {1: 2, 2: 4, 3: 9, 4: 20}
    for r in runs.values():
        assert r["proven"]
        assert r["size"] <= r["theorem_bound"]
        assert r["size"] <= r["optimal_bound"]
    ms = result.timings_ms
    assert sum(ms[n] for n in (1, 2, 3)) < 5_000
    assert ms[4] < 600_000
    # the slice-first refutation must end the walk, which run out takes
    # 6,008,923 nodes
    assert runs[4]["nodes"] < 626_734
    # the lexicographically least maximum set, pinned
    assert runs[4]["witness"] == (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 32,
                                  35, 38, 47, 59, 65, 66, 67, 71, 77)
    assert result.passed


def test_quick_battery_measures_the_same_in_every_run():
    # wall times live in elapsed_ms and timings_ms, so two runs of one
    # commit report the same measured values
    first, second = (acceptance.run_all("quick") for _ in range(2))
    assert [c.measured for c in first] == [c.measured for c in second]
    assert set(first[5].timings_ms) == {1, 2, 3}


def test_criterion_7_proof_core_verification():
    result, measured = run(acceptance.c7_proof_core)
    cases = measured["cases"]
    assert [(c["n"], c["d"]) for c in cases] == [(1, 1), (2, 2), (2, 3),
                                                 (3, 3), (3, 4)]
    # each case keyed by the names of the verifier's five checks
    for case in cases:
        assert list(case) == ["n", "d", "vanishes_off_set",
                              "pair_matrix_diagonal", "rank_cap",
                              "support_cap", "dimension_bound"], case
        assert all(case[name] is True for name in list(case)[2:]), case
    assert result.elapsed_ms < 60_000
    assert result.passed


def test_criterion_8_leading_constant():
    result, measured = run(acceptance.c8_leading_constant)
    # >= 10 significant digits of agreement with the pinned constant; the
    # discrepancy after them must be surfaced, not hidden
    assert measured["rel"] < Fraction(1, 10**10), result.detail
    assert measured["digits"] >= 10
    assert measured["samples"] == (300, 600, 1200, 2400)
    assert measured["empirical_rel"] < 1e-3
    assert result.elapsed_ms < 300_000
    assert result.passed


def test_criterion_9_first_correction():
    result, measured = run(acceptance.c9_first_correction)
    assert measured["n_max"] == 2400
    estimate, rel = measured["estimate"], measured["rel"]
    assert estimate < 0 and rel <= 0.05
    assert result.passed


@pytest.mark.parametrize("estimate", [1.06 * golden.FIRST_CORRECTION,
                                      -golden.FIRST_CORRECTION])
def test_criterion_9_fails_outside_its_tolerance(monkeypatch, estimate):
    # off by 6%, or of the wrong sign: the verdict is a fail, not a warning
    monkeypatch.setattr(acceptance, "first_correction_estimate",
                        lambda n_max: estimate)
    assert not acceptance.c9_first_correction("quick").passed


def test_criterion_10_property_suites():
    result, measured = run(acceptance.c10_property_suites)
    cases = measured["cases"]
    assert cases["row"] == 51
    assert cases["recurrence"] >= 60
    assert cases["split"] >= 100
    assert cases["eval"] >= 100
    assert measured["failures"] == []
    assert result.passed
