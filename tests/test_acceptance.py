"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Each test runs its criterion from capbound.acceptance at full level, the
same code `capbound verify-all --level full` runs, and holds the values
and wall time it returns to the thresholds and time bounds below.  A
criterion that wrongly reports a pass still fails here.  Run as
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 3 checks every pinned growth constant to within 1 unit in its
last place; tests/test_asymptotics.py checks the same pinned digits against
an mpmath oracle independent of capbound.

Criteria 2, 3, 5, 6, 7 and 8 also hold golden's regression pins at full
level; each full criterion runs once, and the mutation tests compare its
found pin values with altered pins through golden.pin_failures.

Criteria 1 to 8 decide on the checks their commands report: forcing the
one check a pair shares to fail fails both the criterion and the command.
"""
import functools
import sys
from fractions import Fraction

import pytest

from capbound import (acceptance, asymptotics, bounds, capsearch, golden,
                      verifier)
from capbound.cli import main
from capbound.stages import Check
from test_cli import WITNESS, with_witness


@functools.cache
def full(criterion):
    return criterion("full")


def run(criterion):
    result = full(criterion)
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


FORCED = Check("forced_check", False, "forced")
FORCED_DETAIL = '"pass": false, "detail": "forced"'
# Each command with the criterion that decides on its checks, the one
# function or property of a layer that both read (owner.name), a stand-in
# that fails, and what the command's report then shows.  sharp_bound's
# identities fail where the series coefficient bound is wrong.
ONE_ROUTE = {
    "1-verify-recurrence": (
        acceptance.c1_recurrence, ["verify-recurrence", "--nmax", "30"],
        asymptotics.RecurrenceCheck, "check", property(lambda self: FORCED),
        FORCED_DETAIL),
    "2-alpha": (
        acceptance.c2_root_digits, ["alpha", "--digits", "19"],
        golden, "alpha_checks", lambda value, root: ((FORCED, 0.0),) * 2,
        FORCED_DETAIL),
    "3-table": (
        acceptance.c3_growth_table, ["table"],
        golden, "growth_table_check", lambda q, constant: (FORCED, 0.0),
        FORCED_DETAIL),
    "4-growth": (
        acceptance.c4_method_independence,
        ["growth", "--q", "5", "--method", "both"],
        asymptotics, "ratio_check", lambda saddle, ratio: (FORCED, 0.0),
        FORCED_DETAIL),
    "5-bound": (
        acceptance.c5_identity_chain, ["bound", "--n", "30", "--sharp"],
        bounds, "series_coeff_bound", lambda n, q: -1,
        '"name": "sharp:equals_series_coeff_bound", "pass": false'),
    "6-search": (
        acceptance.c6_oracle_domination, ["search", "--n", "3"],
        capsearch.SearchResult, "checks", property(lambda self: [FORCED]),
        FORCED_DETAIL),
    "7-verify-clp": (
        acceptance.c7_proof_core,
        ["verify-clp", "--n", "2", "--d", "2", "--set", WITNESS],
        verifier.VerifierReport, "checks", property(lambda self: (FORCED,)),
        FORCED_DETAIL),
    "8-leading-constant": (
        acceptance.c8_leading_constant, ["leading-constant", "--digits", "19"],
        golden, "leading_constant_digit_check", lambda value: (FORCED, 0.0, 0),
        FORCED_DETAIL),
}


@pytest.mark.parametrize("pair", ONE_ROUTE)
def test_each_criterion_decides_on_its_command_check(monkeypatch, tmp_path,
                                                     capsys, pair):
    criterion, argv, owner, name, stand_in, shown = ONE_ROUTE[pair]
    argv = with_witness(argv, tmp_path, capsys)
    # the stand-in replaces the shared object wherever capbound binds it
    shared = vars(owner)[name]
    for module in [owner, *(m for key, m in sys.modules.items()
                            if key.startswith("capbound."))]:
        if vars(module).get(name) is shared:
            monkeypatch.setattr(module, name, stand_in)
    assert not criterion("quick").passed
    assert main(argv) == 1
    assert shown in capsys.readouterr().out


def test_criterion_2_root_and_alpha_digits():
    result, measured = run(acceptance.c2_root_digits)
    assert measured["root_ulp"] <= 1
    assert measured["alpha_ulp"] <= 1
    assert measured["pins"] == golden.ALPHA_SHA256
    assert result.elapsed_ms < 1_000
    assert result.passed


def test_criterion_3_growth_table():
    result, measured = run(acceptance.c3_growth_table)
    distances = measured["ulp"]
    assert distances.keys() == golden.GROWTH_TABLE.keys()
    failures = {q: float(d) for q, d in distances.items() if d > 1}
    assert not failures, (
        f"ulp distances beyond 1 from the pinned reference: {failures}")
    assert measured["pins"] == golden.SADDLE_64_SHA256
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
    assert measured["pins"] == golden.BOUNDS_2400_SHA256
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
    # the n = 4 search's pinned counters and bounds
    pins = measured["pins"]
    assert {key: pins[key] for key in golden.SEARCH_4_COUNTERS} \
        == golden.SEARCH_4_COUNTERS
    assert pins["orbit"] > golden.SEARCH_4_ABOVE["orbit"]
    assert pins["slice"] > golden.SEARCH_4_ABOVE["slice"]
    assert all(pins[key] < bound
               for key, bound in golden.SEARCH_4_BELOW.items())
    assert result.passed


def test_quick_battery_measures_the_same_in_every_run():
    # wall times live in elapsed_ms and timings_ms, so two runs of one
    # commit report the same measured values
    first, second = (acceptance.run_all("quick") for _ in range(2))
    assert [c.measured for c in first] == [c.measured for c in second]
    assert set(first[5].timings_ms) == {1, 2, 3}
    # the regression pins are held at full level alone
    assert not any("pins" in c.measured for c in first)


def test_criterion_7_proof_core_verification():
    result, measured = run(acceptance.c7_proof_core)
    cases = measured["cases"]
    assert [(c["n"], c["d"]) for c in cases] == [(1, 1), (2, 2), (2, 3),
                                                 (3, 3), (3, 4)] + [
        (n, d) for n in (4, 5) for d in range(2 * n + 1)]
    # each case keyed by the names of the verifier's five checks
    for case in cases:
        assert list(case) == ["n", "d", "vanishes_off_set",
                              "pair_matrix_diagonal", "rank_cap",
                              "support_cap", "dimension_bound"], case
        assert all(case[name] is True for name in list(case)[2:]), case
    # (dim V, max support, rank) on the n = 4 witness and the n = 5 cap
    assert measured["pins"] == golden.CLP_TRIPLES
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
    assert measured["pins"] == golden.LEADING_CONSTANT_SHA256
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


# Every regression pin, as (criterion, golden name, the pin_failures
# keyword it is passed as).
PINS = [
    (acceptance.c2_root_digits, "ALPHA_SHA256", "equal"),
    (acceptance.c3_growth_table, "SADDLE_64_SHA256", "equal"),
    (acceptance.c5_identity_chain, "BOUNDS_2400_SHA256", "equal"),
    (acceptance.c6_oracle_domination, "SEARCH_4_COUNTERS", "equal"),
    (acceptance.c6_oracle_domination, "SEARCH_4_ABOVE", "above"),
    (acceptance.c6_oracle_domination, "SEARCH_4_BELOW", "below"),
    (acceptance.c7_proof_core, "CLP_TRIPLES", "equal"),
    (acceptance.c8_leading_constant, "LEADING_CONSTANT_SHA256", "equal"),
]
MUTATIONS = [(criterion, name, relation, key)
             for criterion, name, relation in PINS
             for key in getattr(golden, name)]


def mutated(pin, found):
    """One hex digit of a digest changed, one entry of a triple list, an
    exact counter off by one, or a strict bound moved onto the value."""
    if isinstance(pin, str):
        return pin[:-1] + ("0" if pin[-1] != "0" else "1")
    if isinstance(pin, tuple):
        dim_v, support, rank = pin[-1]
        return pin[:-1] + ((dim_v, support, rank + 1),)
    return found if pin != found else pin + 1


def pin_kwargs(criterion, **changed):
    """The pin_failures keywords of a criterion's pins, with changes."""
    kwargs = {"equal": {}}
    for pinned_by, name, relation in PINS:
        if pinned_by is criterion:
            kwargs[relation] = getattr(golden, name)
    return {**kwargs, **changed}


@pytest.mark.parametrize("criterion,name,relation,key", MUTATIONS,
                         ids=[f"{name}-{key}" for _, name, _, key in MUTATIONS])
def test_each_mutated_pin_fails_its_criterion(monkeypatch, criterion, name,
                                              relation, key):
    found = full(criterion).measured["pins"]
    assert golden.pin_failures(found, **pin_kwargs(criterion)) == []
    pins = getattr(golden, name)
    altered = {**pins, key: mutated(pins[key], found[key])}
    # the pure comparison, on the found values of the one full run
    failures = golden.pin_failures(
        found, **pin_kwargs(criterion, **{relation: altered}))
    assert len(failures) == 1 and failures[0].startswith(f"{key} "), failures
    # and the criterion itself, computed afresh
    monkeypatch.setattr(golden, name, altered)
    result = criterion("full")
    assert not result.passed
    assert f"pins broken: {key} " in result.detail, result.detail
