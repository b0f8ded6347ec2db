"""Polynomial engine and proof-core checks: worked examples frozen by hand,
a brute-force vanishing-count oracle, a determinant oracle for ranks, and
the split/reconstruction and eval/expand consistency properties."""
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import golden, verifier
from capbound.capsearch import decode_point, max_capset
from capbound.qnomial import mspace_size
from capbound.verifier import (
    VERIFY_MAX_N,
    FieldPoly,
    PointSet,
    clp_split,
    eval_poly,
    expand_neg_sum,
    format_pointset,
    make_poly,
    monomials_up_to,
    parse_pointset,
    product_matrix,
    rank_mod_p,
    reconstruct_split,
    support_size,
    vanishing_space_basis,
    verify_support_bound,
)


def test_eval_poly_examples():
    one_plus_x = make_poly(1, {(0,): 1, (1,): 1})
    assert eval_poly(one_plus_x, (2,)) == 0
    x_squared = make_poly(1, {(2,): 1})
    assert eval_poly(x_squared, (2,)) == 1
    zero = make_poly(1, {})
    assert eval_poly(zero, (1,)) == 0
    assert zero.degree == -1
    with pytest.raises(ValueError):
        eval_poly(one_plus_x, (1, 2))


def test_monomial_counts_match_mspace():
    for n in (1, 2, 3):
        for d in range(0, 2 * n + 1):
            assert len(monomials_up_to(n, d)) == mspace_size(n, d, 3)


def brute_force_vanishing_count(n, d, points):
    """Count all degree-<=d polynomials vanishing on the given points by
    enumerating every coefficient vector."""
    monos = monomials_up_to(n, d)
    count = 0
    for coeffs in product(range(3), repeat=len(monos)):
        poly = make_poly(n, dict(zip(monos, coeffs)))
        if all(eval_poly(poly, pt) == 0 for pt in points):
            count += 1
    return count


def test_vanishing_space_examples():
    basis = vanishing_space_basis(1, 1, PointSet(1, (2,)))
    assert len(basis) == 1
    assert basis[0].terms == {(0,): 1, (1,): 1}

    assert len(vanishing_space_basis(1, 2, PointSet(1, ()))) == 3
    assert len(vanishing_space_basis(1, 2, PointSet(1, (0, 1, 2)))) == 0


def test_vanishing_space_against_enumeration():
    rng = random.Random(31)
    cases = [(1, 1, (2,)), (1, 2, (0, 2)), (2, 2, (0, 4, 8))]
    for _ in range(3):
        pts = tuple(sorted(rng.sample(range(9), rng.randint(1, 5))))
        cases.append((2, rng.randint(0, 3), pts))
    for n, d, pts in cases:
        S = PointSet(n, pts)
        basis = vanishing_space_basis(n, d, S)
        for poly in basis:
            assert poly.degree <= d
            assert all(eval_poly(poly, v) == 0 for v in S.vectors())
        assert 3 ** len(basis) == brute_force_vanishing_count(n, d, S.vectors())


def test_expand_neg_sum_examples():
    x = make_poly(1, {(1,): 1})
    assert expand_neg_sum(x).terms == {(1, 0): 2, (0, 1): 2}
    x2 = make_poly(1, {(2,): 1})
    assert expand_neg_sum(x2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    const = make_poly(1, {(0,): 1})
    assert expand_neg_sum(const).terms == {(0, 0): 1}


def test_clp_split_worked_example():
    q = make_poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    f_map, g_map = clp_split(q, 2)
    assert f_map[(0,)].terms == {(2,): 1}
    assert f_map[(1,)].terms == {(1,): 2}
    assert g_map[(0,)].terms == {(2,): 1}
    assert reconstruct_split(f_map, g_map, 1) == q
    assert clp_split(make_poly(2, {}), 2) == ({}, {})
    with pytest.raises(ValueError):
        clp_split(q, 1)


def random_poly(rng, n, d):
    monos = monomials_up_to(n, d)
    return make_poly(n, {m: rng.randint(0, 2) for m in monos
                         if rng.random() < 0.6})


# A polynomial over F_3 in n <= 3 variables of degree at most d <= 2n.
@st.composite
def poly_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2 * n))
    terms = draw(st.dictionaries(st.sampled_from(monomials_up_to(n, d)),
                                 st.integers(1, 2)))
    return n, d, make_poly(n, terms)


@settings(deadline=None, max_examples=200)
@given(poly_cases())
def test_split_reconstruction_property(case):
    n, d, poly = case
    expanded = expand_neg_sum(poly)
    assert expanded.degree <= poly.degree
    f_map, g_map = clp_split(expanded, d)
    assert reconstruct_split(f_map, g_map, n) == expanded
    for key in (*f_map, *g_map):
        assert sum(key) <= d // 2


def test_eval_expand_consistency():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(1, 3)
        poly = random_poly(rng, n, rng.randint(0, 2 * n))
        expanded = expand_neg_sum(poly)
        b = tuple(rng.randrange(3) for _ in range(n))
        c = tuple(rng.randrange(3) for _ in range(n))
        target = tuple((-x - y) % 3 for x, y in zip(b, c))
        assert eval_poly(expanded, b + c) == eval_poly(poly, target)


def test_product_matrix_examples():
    A = PointSet(1, (0, 1))
    one_plus_x = make_poly(1, {(0,): 1, (1,): 1})
    assert product_matrix(one_plus_x, A) == [[1, 0], [0, 2]]
    assert product_matrix(make_poly(1, {}), A) == [[0, 0], [0, 0]]
    assert product_matrix(make_poly(1, {(0,): 1}), A) == [[1, 1], [1, 1]]


def det3_mod_3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % 3


def test_rank_mod_p():
    assert rank_mod_p([[1, 0], [0, 1]]) == 2
    assert rank_mod_p([[1, 2], [2, 1]]) == 1
    assert rank_mod_p([]) == 0
    rng = random.Random(5)
    for _ in range(30):
        u = [rng.randint(0, 2) for _ in range(4)]
        v = [rng.randint(0, 2) for _ in range(4)]
        if not any(u) or not any(v):
            continue
        outer = [[a * b % 3 for b in v] for a in u]
        assert rank_mod_p(outer) == 1
    for _ in range(60):
        m = [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)]
        full = rank_mod_p(m) == 3
        assert full == (det3_mod_3(m) != 0)


def test_support_size():
    one_plus_x = make_poly(1, {(0,): 1, (1,): 1})
    assert support_size(one_plus_x) == 2  # zero only at x = 2


def test_verify_support_bound_tiny_case():
    report = verify_support_bound(1, 1, PointSet(1, (0, 1)))
    assert report.dim_v == 1
    assert report.dim_lower_bound == 1
    assert report.max_support == 2
    assert report.support_cap == 2
    assert report.rank == 2
    assert report.all_ok


def test_verify_support_bound_from_search():
    ps = max_capset(2).witness
    for d in (2, 3):
        report = verify_support_bound(2, d, ps)
        assert report.all_ok
        assert report.set_size == 4


def test_verify_support_bound_preconditions():
    with pytest.raises(ValueError):
        verify_support_bound(1, 1, PointSet(1, (0, 1, 2)))
    with pytest.raises(ValueError, match="dimension"):
        verify_support_bound(2, 1, PointSet(1, (0, 1)))
    for d in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            verify_support_bound(1, d, PointSet(1, (0, 1)))


def test_out_of_reach_dimensions_refused_at_once():
    n = VERIFY_MAX_N + 1
    started = time.perf_counter()
    with pytest.raises(ValueError, match="out of reach"):
        verify_support_bound(n, 2, PointSet(n, (0, 1)))
    assert time.perf_counter() - started < 0.5
    assert n not in verifier._tables


# Subsets of F_3^n, n <= 3, with a degree d in [0, 2n] and a second subset
# for the pair matrices.
@st.composite
def subset_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2 * n))
    S = PointSet(n, tuple(draw(st.sets(st.integers(0, 3**n - 1)))))
    A = PointSet(n, tuple(draw(st.sets(st.integers(0, 3**n - 1),
                                       max_size=6))))
    return n, d, S, A


@settings(deadline=None, max_examples=80)
@given(subset_cases())
def test_packed_values_match_eval_poly(case):
    n, d, S, A = case
    points = list(product(range(3), repeat=n))  # base-3 index order
    for P in vanishing_space_basis(n, d, S):
        ones, twos = verifier._values(P)
        values = [eval_poly(P, v) for v in points]
        assert not any(values[x] for x in S.points)
        assert [1 if ones >> x & 1 else 2 if twos >> x & 1 else 0
                for x in range(3**n)] == values
        assert support_size(P) == sum(1 for v in values if v)
        assert product_matrix(P, A) == [
            [eval_poly(P, tuple((-x - y) % 3 for x, y in zip(a, b)))
             for b in A.vectors()] for a in A.vectors()]


@settings(deadline=None, max_examples=60)
@given(subset_cases())
def test_basis_is_unit_at_its_free_columns(case):
    # column j of the evaluation matrix is free exactly when it adds no
    # rank to the columns before it; basis element k is 1 at the k-th
    # free column and 0 at every other free column
    n, d, S, _ = case
    monos = monomials_up_to(n, d)
    evals = [[eval_poly(make_poly(n, {m: 1}), v) for m in monos]
             for v in S.vectors()]

    def rank_before(j):
        return rank_mod_p([row[:j] for row in evals])

    free = [j for j in range(len(monos)) if rank_before(j + 1) == rank_before(j)]
    basis = vanishing_space_basis(n, d, S)
    assert len(basis) == len(free)
    for k, P in enumerate(basis):
        assert [P.terms.get(monos[j], 0) for j in free] == [
            int(i == k) for i in range(len(free))]


def test_verify_support_bound_n6_product_set():
    # the product of the lex-least maximum sets of F_3^4 and F_3^2, an
    # 80-point progression-free set; at d = 2n every function on A is a
    # polynomial, so dim V = |A| exactly
    w4 = [decode_point(x, 4) for x in golden.LEX_LEAST_WITNESSES[4]]
    w2 = [decode_point(x, 2) for x in golden.LEX_LEAST_WITNESSES[2]]
    A = PointSet.from_vectors([a + b for a in w4 for b in w2])
    verifier._tables.pop(6, None)
    started = time.perf_counter()
    report = verify_support_bound(6, 9, A)
    assert time.perf_counter() - started < 2.0
    assert report.all_ok and report.set_size == 80
    assert (report.dim_v, report.rank, report.max_support) == (55, 72, 72)
    assert report.counters["table_cached"] is False
    full = verify_support_bound(6, 12, A)
    assert full.all_ok and full.dim_v == 80
    assert full.counters["table_cached"] is True


def test_pointset_file_roundtrip(tmp_path):
    ps = PointSet(2, (0, 1, 3, 4))
    text = format_pointset(ps)
    assert parse_pointset(text) == ps
    commented = "# a comment\n0 0\n0 1  # inline\n\n1 0\n1 1\n"
    assert parse_pointset(commented) == ps
    with pytest.raises(ValueError):
        parse_pointset("0 0\n1\n")
    with pytest.raises(ValueError):
        parse_pointset("# nothing\n")


def test_fieldpoly_validation():
    with pytest.raises(ValueError):
        FieldPoly(1, {(3,): 1})
    with pytest.raises(ValueError):
        FieldPoly(1, {(1,): 0})
    with pytest.raises(ValueError):
        FieldPoly(2, {(1,): 1})
