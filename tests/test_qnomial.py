"""Row computation against a direct convolution oracle and a math.comb
inclusion-exclusion oracle, plus the exact invariants (symmetry, total
mass, sliding recurrence, saturation) and the row-size ceiling."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capbound.qnomial as qnomial_module
from capbound.qnomial import (
    clear_cache,
    mspace_size,
    qnomial,
    qnomial_row,
    row_prefix,
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


def inclusion_exclusion(n: int, k: int, q: int) -> int:
    """Oracle: [x^k] ((1 - x^q) / (1 - x))^n
    = sum_i (-1)^i C(n, i) C(k - q*i + n - 1, n - 1).

    Both binomials start from math.comb and step to the next term by the
    exact ratios C(n, i+1) = C(n, i) (n-i)/(i+1) and
    C(m-1, r) = C(m, r) (m-r)/m, which keeps n = 10^4 under a second.
    """
    if n == 0:
        return int(k == 0)
    terms = min(n, k // q) + 1
    m = k + n - 1
    a, b = 1, math.comb(m, n - 1)
    total = 0
    for i in range(terms):
        total += (-1) ** i * a * b
        if i + 1 < terms:
            a = a * (n - i) // (i + 1)
            for _ in range(q):
                b = b * (m - n + 1) // m
                m -= 1
    return total


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


@settings(deadline=None)
@given(n=st.integers(0, 40), q=st.integers(2, 31), data=st.data())
def test_rows_match_expansion_oracle_differential(n, q, data):
    clear_cache()
    top = data.draw(st.integers(0, (q - 1) * n))
    # a prefix neither reads nor fills the row cache
    assert row_prefix(n, q, top) == expand_row(n, q)[:top + 1]
    assert (n, q) not in qnomial_module._rows
    assert list(qnomial_row(n, q).coeffs) == expand_row(n, q)


@pytest.mark.parametrize("q", [32, 48, 64])
def test_rows_at_large_q_match_expansion_oracle(q):
    # the differential test above stops at q = 31; asymptotics.MAX_Q is 64
    for n in range(0, 13):
        assert list(qnomial_row(n, q).coeffs) == expand_row(n, q)


@pytest.mark.parametrize("n,k,q", [
    (2400, 1600, 3),
    (330, 1, 25),
    (330, 2640, 25),
    (330, 3960, 25),
    (330, 7000, 25),
    (123, 2583, 64),  # the coefficient `growth --q 64` reads at n = 123
])
def test_large_coefficients_match_inclusion_exclusion(n, k, q):
    assert qnomial(n, k, q) == inclusion_exclusion(n, k, q)


def test_inclusion_exclusion_oracle_small():
    for q in (2, 3, 5):
        for n in range(0, 8):
            row = expand_row(n, q)
            assert [inclusion_exclusion(n, k, q) for k in range(len(row))] == row


def test_inexact_division_raises(monkeypatch):
    # a remainder must stop the row, never be floored away
    clear_cache()
    monkeypatch.setattr(qnomial_module, "divmod",
                        lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ArithmeticError, match="not exact"):
        qnomial_row(4, 3)
    # q = 3 runs the two-term recurrence, every other q the three-term one
    with pytest.raises(ArithmeticError, match="not exact"):
        qnomial_row(4, 4)
    monkeypatch.undo()
    assert list(qnomial_row(4, 3).coeffs) == expand_row(4, 3)


def test_row_ceiling_refuses_before_building():
    # an n = 10^5, q = 3 row would take about 4 GB
    with pytest.raises(ValueError, match="ceiling"):
        qnomial_row(10**5, 3)
    with pytest.raises(ValueError, match="ceiling"):
        row_prefix(10**5, 3, 10**5)
    with pytest.raises(ValueError, match="outside"):
        row_prefix(4, 3, 9)
    with pytest.raises(ValueError, match="ceiling"):
        mspace_size(10**6, 2)
    assert qnomial(10**6, -1, 3) == 0


def test_row_caching_is_invisible():
    clear_cache()
    first = qnomial_row(12, 3).coeffs
    again = qnomial_row(12, 3).coeffs
    assert first == again == tuple(expand_row(12, 3))
    # a smaller row asked for after a larger one is still exact
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
    # a mirrored row is symmetric by construction, so its symmetry is
    # checked against the whole row by the recurrence alone
    for q in (2, 3, 4, 5, 7):
        for n in range(0, 51):
            coeffs = qnomial_row(n, q).coeffs
            assert coeffs == tuple(reversed(row_prefix(n, q, (q - 1) * n)))
            assert sum(coeffs) == q**n
            assert coeffs[0] == coeffs[-1] == 1


def test_mirrored_rows_match_the_full_recurrence():
    for q in range(2, 30):
        clear_cache()
        for n in [*range(0, 40), 101, 333]:
            assert list(qnomial_row(n, q).coeffs) == \
                row_prefix(n, q, (q - 1) * n), (n, q)


def test_two_term_trinomial_rows_match_the_three_term_recurrence():
    # q = 3 rows come from the two-term recurrence; the three-term loop
    # every other q uses is run at q = 3 here as its oracle
    for n in [*range(0, 401), 2400]:
        top = 2 * n
        assert qnomial_module._recurrence_row(n, 3, top) == \
            qnomial_module._three_term_row(n, 3, top), n


@pytest.mark.parametrize("where", ["low", "past_middle"])
def test_corrupted_row_raises(monkeypatch, where):
    # an entry below the middle is caught by the total q^n, one recurred
    # past the middle by its mirror image
    recurrence = qnomial_module._recurrence_row

    def corrupted(n, q, top):
        row = recurrence(n, q, top)
        row[2 if where == "low" else (q - 1) * n // 2 + 1] += 1
        return row

    clear_cache()
    monkeypatch.setattr(qnomial_module, "_recurrence_row", corrupted)
    match = "sum" if where == "low" else "symmetric"
    with pytest.raises(ArithmeticError, match=match):
        qnomial_row(12, 3)
    assert (12, 3) not in qnomial_module._rows
    monkeypatch.undo()
    assert list(qnomial_row(12, 3).coeffs) == expand_row(12, 3)


def test_sliding_recurrence_random_triples():
    rng = random.Random(4242)
    for _ in range(100):
        q = rng.choice((2, 3, 4, 5))
        n = rng.randint(1, 40)
        k = rng.randint(-2, (q - 1) * n + 2)
        assert qnomial(n, k, q) == sum(qnomial(n - 1, k - j, q)
                                       for j in range(q))


@pytest.mark.parametrize("n,d,expected", [
    (1, 1, 2),
    (4, 8, 81),
    (6, 4, 168),
    (6, 100, 729),
])
def test_mspace_size(n, d, expected):
    assert mspace_size(n, d) == expected


def test_mspace_monotone_and_saturating():
    for n in (0, 1, 5, 9):
        values = [mspace_size(n, d) for d in range(0, 2 * n + 3)]
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
        mspace_size(3, -1)
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
