"""Polynomial engine and proof-core checks: worked examples frozen by hand,
a brute-force vanishing-count oracle, pair matrices built from eval_poly
with a rank oracle of their own (itself checked against determinants),
affine images of the pinned witnesses, the split/reconstruction and
eval/expand consistency properties, and every report against the
FieldPoly route (a fresh elimination, a polynomial per basis element,
values from its terms) that the kept per-set elimination replaced."""
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import golden, verifier
from capbound.capsearch import (complete_triple, decode_point,
                                is_progression_free, max_capset, third_points)
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


def matrix_rank(M):
    """Rank of an integer matrix over F_3 by plain Gaussian elimination on
    lists, independent of the verifier's packed elimination."""
    rows = [[x % 3 for x in row] for row in M]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = rows[rank][col]  # 1 and 2 are their own inverses mod 3
        top = rows[rank] = [x * inverse % 3 for x in rows[rank]]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            rows[r] = [(x - factor * y) % 3 for x, y in zip(rows[r], top)]
        rank += 1
    return rank


def _values(P):
    """P's values at every point of F_3^n, packed: a signed sum of the
    evaluation table's columns, one per term of the FieldPoly.  The
    verifier once checked every basis element this way; it stays here as
    the reference for its elimination's packed values."""
    table = verifier._table(P.n)
    index = {m: j for j, m in enumerate(table.monos)}
    ones = twos = 0
    for mono, coeff in P.terms.items():
        c1, c2 = table.columns[index[mono]]
        if coeff == 2:
            c1, c2 = c2, c1
        ones, twos = verifier._add(ones, twos, c1, c2)
    return ones, twos


def test_product_matrix_examples():
    # A = {0, 1} in F_3: the one off-diagonal point is -0-1 = 2
    A = PointSet(1, (0, 1))
    third = third_points(A)
    assert third == 0b100
    one_plus_x = make_poly(1, {(0,): 1, (1,): 1})  # 1, 2, 0 at x = 0, 1, 2
    assert product_matrix(_values(one_plus_x), A, third) == (0b011, 0)
    assert product_matrix(_values(make_poly(1, {})), A, third) == (0, 0)
    one = make_poly(1, {(0,): 1})
    assert product_matrix(_values(one), A, third) == (0b011, 0b100)


def det3_mod_3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])) % 3


def test_rank_mod_p():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 1]]) == 1
    assert matrix_rank([]) == 0
    rng = random.Random(5)
    for _ in range(30):
        u = [rng.randint(0, 2) for _ in range(4)]
        v = [rng.randint(0, 2) for _ in range(4)]
        if not any(u) or not any(v):
            continue
        outer = [[a * b % 3 for b in v] for a in u]
        assert matrix_rank(outer) == 1
    for _ in range(60):
        m = [[rng.randint(0, 2) for _ in range(3)] for _ in range(3)]
        full = matrix_rank(m) == 3
        assert full == (det3_mod_3(m) != 0)
    # the verifier's rank of a diagonal matrix, given its nonzero entries
    for mask in range(16):
        diag = [[rng.randint(1, 2) * (mask >> i & 1) * (i == j)
                 for j in range(4)] for i in range(4)]
        assert rank_mod_p(mask) == matrix_rank(diag)


def test_support_size():
    one_plus_x = make_poly(1, {(0,): 1, (1,): 1})
    assert support_size(_values(one_plus_x)) == 2  # zero at x = 2


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


def test_progression_refused_before_the_null_space(monkeypatch):
    def no_null_space(*args):
        raise AssertionError("null space computed for a refused set")
    monkeypatch.setattr(verifier, "_eliminations", {})
    monkeypatch.setattr(verifier, "_rref", no_null_space)
    with pytest.raises(ValueError, match="not progression-free"):
        verify_support_bound(2, 2, PointSet(2, (0, 1, 2)))


def test_out_of_reach_dimensions_refused_at_once():
    n = VERIFY_MAX_N + 1
    started = time.perf_counter()
    with pytest.raises(ValueError, match="out of reach"):
        verify_support_bound(n, 2, PointSet(n, (0, 1)))
    assert time.perf_counter() - started < 0.5
    assert n not in verifier._tables


# Subsets of F_3^n, n <= 3, with a degree d in [0, 2n].
@st.composite
def subset_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2 * n))
    S = PointSet(n, tuple(draw(st.sets(st.integers(0, 3**n - 1)))))
    return n, d, S


@settings(deadline=None, max_examples=80)
@given(subset_cases())
def test_packed_values_match_eval_poly(case):
    # the packed values the elimination keeps for V's basis, and those of
    # the reference route, against eval_poly at every point
    n, d, S = case
    points = list(product(range(3), repeat=n))  # base-3 index order
    basis = vanishing_space_basis(n, d, S)
    elimination, kept = verifier._elimination(S.complement())
    assert kept
    packed = elimination.basis_values(d)
    assert len(packed) == len(basis)
    for P, (ones, twos) in zip(basis, packed):
        values = [eval_poly(P, v) for v in points]
        assert not any(values[x] for x in S.points)
        assert [1 if ones >> x & 1 else 2 if twos >> x & 1 else 0
                for x in range(3**n)] == values
        assert _values(P) == (ones, twos)
        assert support_size((ones, twos)) == sum(1 for v in values if v)


# A progression-free A in F_3^n, n <= 3, a degree d in [0, 2n] for the
# caps, and a polynomial vanishing off A plus up to three more points, so
# that its pair matrix on A is diagonal in some draws and not in others.
@st.composite
def pair_cases(draw):
    n = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2 * n))
    members: list[int] = []
    for x in draw(st.lists(st.integers(0, 3**n - 1), unique=True,
                           min_size=2, max_size=12)):
        if is_progression_free(PointSet(n, (*members, x))):
            members.append(x)
    extra = draw(st.sets(st.integers(0, 3**n - 1), max_size=3))
    B = PointSet(n, tuple(set(members) | extra))
    # at degree 2n every function on F_3^n is a polynomial
    basis = vanishing_space_basis(n, 2 * n, B.complement())
    raw: dict = {}
    for P in basis:
        c = draw(st.integers(0, 2))
        for mono, coeff in P.terms.items():
            raw[mono] = raw.get(mono, 0) + c * coeff
    return n, d, PointSet(n, tuple(members)), make_poly(n, raw)


@settings(deadline=None, max_examples=100)
@given(pair_cases())
def test_packed_checks_match_pair_matrix(case):
    # the verifier's vanishing_ok, diagonal_ok, rank and max_support for a
    # one-element basis {P} against P's values off A and its pair matrix
    # (a, b) -> P(-a-b), built entry by entry with eval_poly; rank is the
    # rank of that matrix whenever it is diagonal.  P replaces the basis
    # where every call reads it, kept elimination or not.
    n, d, A, P = case
    M = [[eval_poly(P, tuple((-x - y) % 3 for x, y in zip(a, b)))
          for b in A.vectors()] for a in A.vectors()]
    diagonal = not any(M[i][j] for i in range(A.size)
                       for j in range(A.size) if i != j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier._Elimination, "basis_values",
                   lambda self, d: [_values(P)])
        report = verify_support_bound(n, d, A)
    outside = [v for x, v in enumerate(product(range(3), repeat=n))
               if x not in A.points]
    assert report.vanishing_ok is not any(eval_poly(P, v) for v in outside)
    assert report.diagonal_ok is diagonal
    if diagonal:
        assert report.rank == matrix_rank(M)
    assert report.rank_ok is (diagonal
                              and report.rank <= report.support_cap)
    assert report.max_support == sum(
        1 for v in product(range(3), repeat=n) if eval_poly(P, v))


# An invertible linear map of F_3^n, n <= 4, and a translation.
@st.composite
def affine_maps(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n)
                  .filter(lambda m: matrix_rank(m) == n))
    shift = draw(row)
    return n, matrix, shift


@settings(deadline=None, max_examples=30)
@given(affine_maps())
def test_affine_images_of_witnesses_verify_alike(case):
    # an affine map preserves zero-sum triples and polynomial degree, so
    # the image of a pinned witness is progression-free, as large, and
    # has a space V of the same dimension at every d
    n, matrix, shift = case
    witness = PointSet(n, golden.LEX_LEAST_WITNESSES[n])
    image = PointSet.from_vectors(
        [tuple((sum(m * x for m, x in zip(row, v)) + t) % 3
               for row, t in zip(matrix, shift)) for v in witness.vectors()])
    assert image.size == witness.size
    assert is_progression_free(image)
    for d in range(2 * n + 1):
        report = verify_support_bound(n, d, image)
        assert report.all_ok
        assert report.dim_v == verify_support_bound(n, d, witness).dim_v


@settings(deadline=None, max_examples=60)
@given(subset_cases())
def test_basis_is_unit_at_its_free_columns(case):
    # column j of the evaluation matrix is free exactly when it adds no
    # rank to the columns before it; basis element k is 1 at the k-th
    # free column and 0 at every other free column
    n, d, S = case
    monos = monomials_up_to(n, d)
    evals = [[eval_poly(make_poly(n, {m: 1}), v) for m in monos]
             for v in S.vectors()]

    def rank_before(j):
        return matrix_rank([row[:j] for row in evals])

    free = [j for j in range(len(monos)) if rank_before(j + 1) == rank_before(j)]
    basis = vanishing_space_basis(n, d, S)
    assert len(basis) == len(free)
    for k, P in enumerate(basis):
        assert [P.terms.get(monos[j], 0) for j in free] == [
            int(i == k) for i in range(len(free))]


def product_set_n6():
    """The product of the lex-least maximum sets of F_3^4 and F_3^2, an
    80-point progression-free set."""
    w4 = [decode_point(x, 4) for x in golden.LEX_LEAST_WITNESSES[4]]
    w2 = [decode_point(x, 2) for x in golden.LEX_LEAST_WITNESSES[2]]
    return PointSet.from_vectors([a + b for a in w4 for b in w2])


def test_verify_support_bound_n6_product_set(monkeypatch):
    # at d = 2n every function on A is a polynomial, so dim V = |A|
    # exactly
    A = product_set_n6()
    verifier._tables.pop(6, None)
    monkeypatch.setattr(verifier, "_eliminations", {})
    started = time.perf_counter()
    report = verify_support_bound(6, 9, A)
    assert time.perf_counter() - started < 2.0
    assert report.all_ok and report.set_size == 80
    assert (report.dim_v, report.rank, report.max_support) == (55, 72, 72)
    assert report.counters["table_cached"] is False
    full = verify_support_bound(6, 12, A)
    assert full.all_ok and full.dim_v == 80
    assert full.counters["table_cached"] is True


def greedy_set(n, size, seed):
    """A progression-free set of `size` points of F_3^n: the points in a
    seeded random order, each kept unless it completes a pair of those
    kept before it."""
    order = list(range(3**n))
    random.Random(seed).shuffle(order)
    members, excluded = [], set()
    for x in order:
        if x not in excluded:
            excluded.update(complete_triple(x, a, n) for a in members)
            members.append(x)
            if len(members) == size:
                return PointSet(n, tuple(members))
    raise ValueError(f"greedy stopped at {len(members)} points")


def reference_report(n, d, A):
    """verify_support_bound by the FieldPoly route: A's indicators reduced
    afresh, each basis element made a FieldPoly and its values computed
    from its terms by _values."""
    table = verifier._table(n)
    ones = [table.indicators[x][0] for x in A.points]
    twos = [table.indicators[x][1] for x in A.points]
    pivots = verifier._rref(ones, twos, len(table.monos))
    m_d = mspace_size(n, d, 3)
    basis = [make_poly(n, {m: (ones[r] >> j & 1) + 2 * (twos[r] >> j & 1)
                           for j, m in enumerate(table.monos)})
             for r, col in enumerate(pivots) if col < m_d]
    nonzero = [v1 | v2 for v1, v2 in map(_values, basis)]
    third = third_points(A)
    cap = 2 * mspace_size(n, d // 2, 3)
    diagonal_ok = not any(z & third for z in nonzero)
    rank = max((bin(z & A.mask).count("1") for z in nonzero), default=0)
    support = max((bin(z).count("1") for z in nonzero), default=0)
    lower = m_d - (3**n - A.size)
    return verifier.VerifierReport(
        n=n, d=d, set_size=A.size, dim_v=len(basis), dim_lower_bound=lower,
        max_support=support, support_cap=cap, rank=rank,
        vanishing_ok=not any(z & ~A.mask for z in nonzero),
        diagonal_ok=diagonal_ok, rank_ok=diagonal_ok and rank <= cap,
        support_ok=support <= cap, bound_ok=len(basis) >= lower)


@pytest.mark.parametrize("name", ["witness-1", "witness-2", "witness-3",
                                  "witness-4", "greedy-5", "product-6"])
def test_reports_match_the_fieldpoly_route(name):
    # every field but the cost fields, at every d, the kept elimination
    # serving all d after the first
    kind, n = name.split("-")
    n = int(n)
    A = {"witness": lambda: PointSet(n, golden.LEX_LEAST_WITNESSES[n]),
         "greedy": lambda: greedy_set(n, 18, 5),
         "product": product_set_n6}[kind]()
    for d in range(2 * n + 1):
        report = verify_support_bound(n, d, A)
        assert report == reference_report(n, d, A), d
        assert report.all_ok


def test_kept_eliminations(monkeypatch):
    monkeypatch.setattr(verifier, "_eliminations", {})
    witness = PointSet(4, golden.LEX_LEAST_WITNESSES[4])
    cold = []
    for d in range(9):  # a cold call computes values for V_d's rows only
        verifier._eliminations.clear()
        cold.append(verify_support_bound(4, d, witness))
        assert cold[-1].counters["elimination_cached"] is False
        kept = verifier._eliminations[4, witness.mask]
        assert len(kept.values) == cold[-1].dim_v
    for d in reversed(range(9)):
        warm = verify_support_bound(4, d, witness)
        assert warm.counters["elimination_cached"] is True
        assert warm == cold[d]
    # a translate: the same n and size, but an entry of its own
    shifted = PointSet.from_vectors([v[:-1] + ((v[-1] + 1) % 3,)
                                     for v in witness.vectors()])
    report = verify_support_bound(4, 5, shifted)
    assert report.counters["elimination_cached"] is False
    assert report == reference_report(4, 5, shifted)
    assert len(verifier._eliminations) == 2
    # only the most recently used sets stay
    limit = verifier._KEPT_ELIMINATIONS
    others = [greedy_set(4, 12, seed) for seed in range(limit)]
    assert len({A.mask for A in others}) == limit
    for A in others:
        verify_support_bound(4, 3, A)
        assert len(verifier._eliminations) <= limit
    assert len(verifier._eliminations) == limit
    assert verify_support_bound(4, 3, others[-1]).counters[
        "elimination_cached"] is True
    assert verify_support_bound(4, 5, witness).counters[
        "elimination_cached"] is False


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
    assert parse_pointset(commented, 2) == ps
    for wrong in ("0 0 0\n", "0 0\n0 1 2\n", "0\n"):
        with pytest.raises(ValueError, match="has dimension"):
            parse_pointset(wrong, 2)


def test_fieldpoly_validation():
    with pytest.raises(ValueError):
        FieldPoly(1, {(3,): 1})
    with pytest.raises(ValueError):
        FieldPoly(1, {(1,): 0})
    with pytest.raises(ValueError):
        FieldPoly(2, {(1,): 1})
