"""Bound family values frozen from the expansion oracle, optimality of the
exhaustive minimizer, and the exact sharp-bound identity chain."""
import pytest

from capbound.bounds import bound_for_d, optimal_bound, sharp_bound, theorem_bound
from capbound.qnomial import qnomial, series_coeff_bound


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
