"""Bound family values frozen from the expansion oracle, optimality of the
exhaustive minimizer, and the exact sharp-bound identity chain."""
import pytest

from capbound.bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from capbound.qnomial import qnomial, series_coeff_bound
from capbound.stages import Check


@pytest.mark.parametrize("n,d,expected", [
    (6, 8, 414),
    (6, 7, 324),
    (1, 1, 3),
    (0, 0, 2),
])
def test_bound_for_d_values(n, d, expected):
    report = bound_for_d(n, d)
    assert report.value == expected
    assert report.method == "for_d"
    assert report.d == d


def test_optimal_bound_values():
    assert (optimal_bound(1).d, optimal_bound(1).value) == (1, 3)
    assert (optimal_bound(0).d, optimal_bound(0).value) == (0, 2)
    report = optimal_bound(6)
    assert report.value == 324 and report.d == 7


def test_optimal_dominates_every_d():
    # the one-pass minimizer against bound_for_d, first d on ties
    for n in range(0, 61):
        values = [bound_for_d(n, d).value for d in range(2 * n + 1)]
        best = min(values)
        report = optimal_bound(n)
        assert (report.d, report.value) == (values.index(best), best)


@pytest.mark.parametrize("n", [150, 299, 300, 601])
def test_optimal_matches_brute_force_at_scale(n):
    # the odd-d scan against min over every d, first d on ties
    values = [bound_for_d(n, d).value for d in range(2 * n + 1)]
    best = min(values)
    report = optimal_bound(n)
    assert (report.d, report.value) == (values.index(best), best)


def test_optimal_d_is_odd_or_the_top():
    # f(2m+1) = f(2m) - a_(2m+1) < f(2m) for every 2m < 2n
    for n in range(1, 301):
        d = optimal_bound(n).d
        assert d % 2 == 1 or d == 2 * n, (n, d)


@pytest.mark.parametrize("n,expected", [(3, 30), (6, 504), (1, 3), (0, 3)])
def test_theorem_bound_values(n, expected):
    assert theorem_bound(n).value == expected


@pytest.mark.parametrize("n,expected", [(6, 414), (3, 24), (0, 2)])
def test_sharp_bound_values(n, expected):
    report = sharp_bound(n)
    assert report.value == expected
    assert report.all_identities_pass
    assert dict(report.identities) == {
        "equals_bound_for_d_4n_3": True,
        "equals_series_coeff_bound": True,
    }
    # the same identities as report checks, named by method
    assert report.checks == [
        Check(f"sharp:{name}", True, f"exact identity on n={n}")
        for name in ("equals_bound_for_d_4n_3", "equals_series_coeff_bound")]


def test_identity_chain_to_60():
    for n in range(0, 61, 3):
        sharp = sharp_bound(n).value
        assert sharp == bound_for_d(n, 4 * n // 3).value
        assert sharp == series_coeff_bound(n, 3)
        assert sharp == theorem_bound(n).value - qnomial(n, 2 * n // 3, 3)
        assert sharp <= theorem_bound(n).value


def test_domain_errors():
    with pytest.raises(ValueError):
        bound_for_d(3, -1)
    with pytest.raises(ValueError):
        bound_for_d(3, 7)
    with pytest.raises(ValueError):
        optimal_bound(-1)
    with pytest.raises(ValueError):
        sharp_bound(4)
    with pytest.raises(ValueError):
        theorem_bound(-2)


def test_as_json_is_the_entry_bound_writes():
    # the report's value is a decimal string of any length, the keys in
    # the order `bound` prints them
    assert sharp_bound(6).as_json() == {
        "n": 6, "q": 3, "d": None, "method": "sharp", "value": "414",
        "identities": [{"name": "equals_bound_for_d_4n_3", "pass": True},
                       {"name": "equals_series_coeff_bound", "pass": True}]}
    assert list(bound_for_d(6, 7).as_json()) == ["n", "q", "d", "method",
                                                 "value", "identities"]
    value = bound_for_d(9100, 1).as_json()["value"]
    # 3^9100 + 1 - 9100: 4,342 digits, past str()'s default limit of 4,300
    assert len(value) == 4342
    assert int(value[-6:]) == (3**9100 + 1 - 9100) % 10**6
