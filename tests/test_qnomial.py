"""Row computation against a direct convolution oracle, plus the exact
invariants (symmetry, total mass, sliding recurrence, saturation)."""
import random

import pytest

from capbound.qnomial import (
    clear_cache,
    mspace_size,
    qnomial,
    qnomial_row,
    series_coeff_bound,
)


def expand_row(n: int, q: int) -> list[int]:
    """Oracle: multiply out (1 + x + ... + x^(q-1))^n term by term."""
    row = [1]
    for _ in range(n):
        out = [0] * (len(row) + q - 1)
        for i, a in enumerate(row):
            for j in range(q):
                out[i + j] += a
        row = out
    return row


@pytest.mark.parametrize("n,q,expected", [
    (0, 3, [1]),
    (2, 3, [1, 2, 3, 2, 1]),
    (3, 3, [1, 3, 6, 7, 6, 3, 1]),
    (2, 2, [1, 2, 1]),
])
def test_row_examples(n, q, expected):
    assert list(qnomial_row(n, q).coeffs) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rows_match_expansion_oracle(q):
    for n in range(0, 26):
        assert list(qnomial_row(n, q).coeffs) == expand_row(n, q)


def test_row_caching_is_invisible():
    clear_cache()
    first = qnomial_row(12, 3).coeffs
    again = qnomial_row(12, 3).coeffs
    assert first == again == tuple(expand_row(12, 3))
    # climbing down after climbing up still gives correct rows
    qnomial_row(30, 3)
    assert list(qnomial_row(7, 3).coeffs) == expand_row(7, 3)


@pytest.mark.parametrize("n,k,q,expected", [
    (3, 2, 3, 6),
    (6, 4, 3, 90),
    (5, -1, 3, 0),
    (5, 11, 3, 0),
    (4, 8, 3, 1),
])
def test_single_coefficients(n, k, q, expected):
    assert qnomial(n, k, q) == expected


def test_row_invariants_up_to_50():
    for n in range(0, 51):
        coeffs = qnomial_row(n, 3).coeffs
        assert coeffs == coeffs[::-1]
        assert sum(coeffs) == 3**n
        assert coeffs[0] == coeffs[-1] == 1


def test_sliding_recurrence_random_triples():
    rng = random.Random(4242)
    for _ in range(100):
        q = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 40)
        k = rng.randint(-2, (q - 1) * n + 2)
        assert qnomial(n, k, q) == sum(qnomial(n - 1, k - j, q)
                                       for j in range(q))


@pytest.mark.parametrize("n,d,q,expected", [
    (1, 1, 3, 2),
    (4, 8, 3, 81),
    (6, 4, 3, 168),
    (6, 100, 3, 729),
])
def test_mspace_size(n, d, q, expected):
    assert mspace_size(n, d, q) == expected


def test_mspace_monotone_and_saturating():
    for n in (0, 1, 5, 9):
        values = [mspace_size(n, d, 3) for d in range(0, 2 * n + 3)]
        assert values == sorted(values)
        assert values[-1] == 3**n


@pytest.mark.parametrize("n,q,expected", [
    (6, 3, 414),
    (3, 3, 24),
    (0, 2, 2),
    (0, 3, 2),
    (0, 7, 2),
])
def test_series_coeff_bound(n, q, expected):
    assert series_coeff_bound(n, q) == expected


def test_series_bound_identity():
    # same number as 3 * (partial row sum) - middle coefficient
    for n in range(0, 61, 3):
        t = 2 * n // 3
        direct = 3 * sum(qnomial(n, k, 3) for k in range(t + 1)) - qnomial(n, t, 3)
        assert series_coeff_bound(n, 3) == direct


def test_domain_errors():
    with pytest.raises(ValueError):
        qnomial_row(3, 1)
    with pytest.raises(ValueError):
        qnomial_row(-1, 3)
    with pytest.raises(ValueError):
        mspace_size(3, -1, 3)
    with pytest.raises(ValueError):
        series_coeff_bound(4, 3)
    with pytest.raises(ValueError):
        series_coeff_bound(1, 3)


def test_package_attribute_is_the_submodule():
    # the package does not re-export the function under the module's name
    import types

    import capbound
    assert isinstance(capbound.qnomial, types.ModuleType)
    assert capbound.qnomial.qnomial(6, 4) == 90
