"""Polynomial engine and proof-core checks: worked examples frozen by hand,
a brute-force vanishing-count oracle, pair matrices built from eval_poly
with a rank oracle of their own (itself checked against determinants),
affine images of the pinned witnesses, the split/reconstruction and
eval/expand consistency properties, the bitsliced transform and point
indicators against eval_poly, and every report against the FieldPoly
route (a fresh elimination of indicators expanded term by term, a
polynomial per basis element, values from eval_poly at every point), and
the point-file reader against format_pointset and a token-by-token
reference reader."""
import random
import time
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import golden, verifier
from capbound.capsearch import (complete_triple, decode_point, encode_point,
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
            assert len(monomials_up_to(n, d)) == mspace_size(n, d)


def complement(S):
    """The points of F_3^n off S: the polynomials vanishing on S are
    those vanishing off its complement."""
    return PointSet(S.n, tuple(x for x in range(3**S.n)
                               if x not in S.points))


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
    # 1 + x spans the degree-1 polynomials vanishing off {0, 1}, at 2
    basis = vanishing_space_basis(PointSet(1, (0, 1)), 1)
    assert len(basis) == 1
    assert basis[0].terms == {(0,): 1, (1,): 1}

    assert len(vanishing_space_basis(PointSet(1, (0, 1, 2)), 2)) == 3
    assert len(vanishing_space_basis(PointSet(1, ()), 2)) == 0


def test_vanishing_space_against_enumeration():
    rng = random.Random(31)
    cases = [(1, 1, (2,)), (1, 2, (0, 2)), (2, 2, (0, 4, 8))]
    for _ in range(3):
        pts = tuple(sorted(rng.sample(range(9), rng.randint(1, 5))))
        cases.append((2, rng.randint(0, 3), pts))
    for n, d, pts in cases:
        S = PointSet(n, pts)
        basis = vanishing_space_basis(complement(S), d)
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


# Bits per point of monomial_values: a sum of at most 3^6 terms, each a
# coefficient times a monomial's value, at most 2 * 2, stays below 2^12.
SLOT = 16


@cache
def monomial_values(n):
    """Each monomial's values from eval_poly, point by point, one value
    per SLOT-bit slot of an int: slot x for the point of base-3 index x."""
    points = list(product(range(3), repeat=n))
    columns = {}
    for m in points:  # exponent vectors run over the same tuples
        P = FieldPoly(n, {m: 1})
        columns[m] = sum(eval_poly(P, v) << SLOT * x
                         for x, v in enumerate(points))
    return columns


def _values(P):
    """P's values at every point of F_3^n, packed (bit x for the point of
    base-3 index x): at each point, the sum of P's terms at it, each a
    coefficient times the monomial's eval_poly value there.  The reference
    for the verifier's bitsliced transform, sharing no code with it."""
    columns = monomial_values(P.n)
    total = sum(c * columns[m] for m, c in P.terms.items())
    ones = twos = 0
    for x in range(3**P.n):
        value = (total >> SLOT * x & (1 << SLOT) - 1) % 3
        ones |= (value == 1) << x
        twos |= (value == 2) << x
    return ones, twos


# Coefficients of 1 - (y - a)^2 at y^0, y^1, y^2 for a = 0, 1, 2.
INDICATOR_FACTORS = ((1, 0, 2), (0, 2, 2), (0, 1, 2))


def indicator_poly(x):
    """delta_x(y) = prod_i (1 - (y_i - x_i)^2), 1 at x and 0 elsewhere,
    expanded term by term."""
    terms = {}
    for mono in product(range(3), repeat=len(x)):
        coeff = 1
        for a, e in zip(x, mono):
            coeff = coeff * INDICATOR_FACTORS[a][e] % 3
        terms[mono] = coeff
    return make_poly(len(x), terms)


def graded_lex_descending(n):
    """The tensor-order positions of the monomials, in descending
    graded-lex order."""
    return [encode_point(m) for m in reversed(monomials_up_to(n, 2 * n))]


def packed_coefficients(P):
    """P's coefficients packed in the verifier's tensor order: bit k for
    the monomial whose exponent vector has base-3 index k."""
    ones = twos = 0
    for k, mono in enumerate(product(range(3), repeat=P.n)):
        c = P.terms.get(mono, 0)
        ones |= (c == 1) << k
        twos |= (c == 2) << k
    return ones, twos


def unpack(ones, twos, size):
    """The entries of a packed F_3 vector of the given length."""
    return [1 if ones >> x & 1 else 2 if twos >> x & 1 else 0
            for x in range(size)]


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
    report = verify_support_bound(PointSet(1, (0, 1)), 1)
    assert report.dim_v == 1
    assert report.dim_lower_bound == 1
    assert report.max_support == 2
    assert report.support_cap == 2
    assert report.rank == 2
    assert report.all_ok


def test_verify_support_bound_from_search():
    ps = max_capset(2).witness
    for d in (2, 3):
        report = verify_support_bound(ps, d)
        assert report.all_ok
        assert report.set_size == 4


def test_verify_support_bound_preconditions():
    with pytest.raises(ValueError, match="not progression-free"):
        verify_support_bound(PointSet(1, (0, 1, 2)), 1)


@pytest.mark.parametrize("entry", [verify_support_bound,
                                   vanishing_space_basis])
@pytest.mark.parametrize("n", [1, 3])
def test_both_entries_refuse_degrees_outside_0_to_2n(entry, n):
    # V_d is described for d in [0, 2n] alone, by both entries alike
    A = PointSet(n, (0, 1))
    for d in (-1, 2 * n + 1):
        with pytest.raises(ValueError) as refusal:
            entry(A, d)
        assert str(refusal.value) == f"d={d} is outside [0, {2 * n}]"


def test_progression_refused_before_the_null_space(monkeypatch):
    def no_null_space(*args):
        raise AssertionError("null space computed for a refused set")
    monkeypatch.setattr(verifier, "_last_elimination", None)
    monkeypatch.setattr(verifier, "_rref", no_null_space)
    with pytest.raises(ValueError, match="not progression-free"):
        verify_support_bound(PointSet(2, (0, 1, 2)), 2)


def test_out_of_reach_dimensions_refused_at_once():
    # before any table, or any 3^n-point set, is built
    for entry, n, d in ((verify_support_bound, VERIFY_MAX_N + 1, 2),
                        (vanishing_space_basis, 14, 0)):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="out of reach"):
            entry(PointSet(n, (0,)), d)
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
    A = complement(S)
    basis = vanishing_space_basis(A, d)
    elimination, kept = verifier._elimination(A)
    assert kept
    packed = elimination.basis_values(d)
    assert len(packed) == len(basis)
    for P, (ones, twos) in zip(basis, packed):
        values = [eval_poly(P, v) for v in points]
        assert not any(values[x] for x in S.points)
        assert unpack(ones, twos, 3**n) == values
        assert _values(P) == (ones, twos)
        assert support_size((ones, twos)) == sum(1 for v in values if v)


# A polynomial over F_3 in n <= 4 variables, with any exponents below 3.
@st.composite
def field_polys(draw):
    n = draw(st.integers(1, 4))
    monos = list(product(range(3), repeat=n))
    return make_poly(n, draw(st.dictionaries(st.sampled_from(monos),
                                             st.integers(1, 2))))


@settings(deadline=None, max_examples=150)
@given(field_polys())
def test_transform_matches_eval_poly(P):
    table = verifier._table(P.n)
    values = verifier._evaluate(table, *packed_coefficients(P))
    assert unpack(*values, 3**P.n) == [
        eval_poly(P, v) for v in product(range(3), repeat=P.n)]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.integers(0, 2), min_size=n, max_size=n)))
def test_indicator_is_the_unit_vector_at_its_point(x):
    # the verifier's packed indicator is indicator_poly's coefficients,
    # and the transform takes it to 1 at x and 0 at every other point
    x = tuple(x)
    table = verifier._table(len(x))
    packed = verifier._indicator(table, x)
    assert packed == packed_coefficients(indicator_poly(x))
    assert verifier._evaluate(table, *packed) == (1 << encode_point(x), 0)
    assert [eval_poly(indicator_poly(x), v)
            for v in product(range(3), repeat=len(x))] == unpack(
        1 << encode_point(x), 0, 3**len(x))


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
    basis = vanishing_space_basis(B, 2 * n)
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
        report = verify_support_bound(A, d)
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
        report = verify_support_bound(image, d)
        assert report.all_ok
        assert report.dim_v == verify_support_bound(witness, d).dim_v


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
    basis = vanishing_space_basis(complement(S), d)
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
    monkeypatch.setattr(verifier, "_last_elimination", None)
    started = time.perf_counter()
    report = verify_support_bound(A, 9)
    assert time.perf_counter() - started < 2.0
    assert report.all_ok and report.set_size == 80
    assert (report.dim_v, report.rank, report.max_support) == (55, 72, 72)
    assert report.counters["table_cached"] is False
    full = verify_support_bound(A, 12)
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
    """verify_support_bound by the FieldPoly route: V_d's basis among
    reference_rows(A), the rows of degree at most d (a row's degree is
    its pivot's), each with its values from eval_poly."""
    m_d = mspace_size(n, d)
    nonzero = [z for P, z in reference_rows(A) if P.degree <= d]
    third = third_points(A)
    cap = 2 * mspace_size(n, d // 2)
    diagonal_ok = not any(z & third for z in nonzero)
    rank = max((bin(z & A.mask).count("1") for z in nonzero), default=0)
    support = max((bin(z).count("1") for z in nonzero), default=0)
    lower = m_d - (3**n - A.size)
    return verifier.VerifierReport(
        n=n, d=d, set_size=A.size, dim_v=len(nonzero),
        dim_lower_bound=lower,
        max_support=support, support_cap=cap, rank=rank,
        vanishing_ok=not any(z & ~A.mask for z in nonzero),
        diagonal_ok=diagonal_ok, rank_ok=diagonal_ok and rank <= cap,
        support_ok=support <= cap, bound_ok=len(nonzero) >= lower)


@cache
def reference_rows(A):
    """A's indicators, expanded by indicator_poly, reduced afresh by _rref
    in descending graded-lex order: each reduced row as a FieldPoly with
    the mask of the points where _values finds it nonzero, rows
    ascending (the basis of V_d is those of degree at most d)."""
    packed = [packed_coefficients(indicator_poly(v)) for v in A.vectors()]
    ones, twos = [o for o, _ in packed], [t for _, t in packed]
    verifier._rref(ones, twos, graded_lex_descending(A.n))
    monos = list(product(range(3), repeat=A.n))
    rows = []
    for o, t in zip(reversed(ones), reversed(twos)):
        P = make_poly(A.n, {m: (o >> k & 1) + 2 * (t >> k & 1)
                            for k, m in enumerate(monos)})
        v1, v2 = _values(P)
        rows.append((P, v1 | v2))
    return rows


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
        report = verify_support_bound(A, d)
        assert report == reference_report(n, d, A), d
        assert report.all_ok


def test_rref_refuses_dependent_rows():
    # the indicators of distinct points are independent, so the
    # verifier never meets this; a repeated row adds no pivot
    order = graded_lex_descending(2)
    o1, t1 = packed_coefficients(indicator_poly(decode_point(4, 2)))
    o2, t2 = packed_coefficients(indicator_poly(decode_point(7, 2)))
    ones, twos = [o1, o2, o1], [t1, t2, t1]
    with pytest.raises(ArithmeticError, match="3 rows have 2 pivots"):
        verifier._rref(ones, twos, order)
    assert len(verifier._rref([o1, o2], [t1, t2], order)) == 2


def test_kept_eliminations(monkeypatch):
    witness = PointSet(4, golden.LEX_LEAST_WITNESSES[4])
    cold = []
    for d in range(9):  # a cold call computes values for V_d's rows only
        monkeypatch.setattr(verifier, "_last_elimination", None)
        cold.append(verify_support_bound(witness, d))
        assert cold[-1].counters["elimination_cached"] is False
        kept = verifier._last_elimination
        assert kept.A == witness
        assert len(kept.values) == cold[-1].dim_v
    for d in reversed(range(9)):
        warm = verify_support_bound(witness, d)
        assert warm.counters["elimination_cached"] is True
        assert warm == cold[d] == reference_report(4, d, witness)
    # a translate: the same n and size, but a set of its own, which takes
    # the slot; the witness is then cold again
    shifted = PointSet.from_vectors([v[:-1] + ((v[-1] + 1) % 3,)
                                     for v in witness.vectors()])
    report = verify_support_bound(shifted, 5)
    assert report.counters["elimination_cached"] is False
    assert report == reference_report(4, 5, shifted)
    assert verifier._last_elimination.A == shifted
    assert verify_support_bound(shifted, 6).counters[
        "elimination_cached"] is True
    again = verify_support_bound(witness, 5)
    assert again.counters["elimination_cached"] is False
    assert again == cold[5]


def test_pointset_file_roundtrip(tmp_path):
    ps = PointSet(2, (0, 1, 3, 4))
    text = format_pointset(ps)
    assert parse_pointset(text, 2) == ps
    commented = "# a comment\n0 0\n0 1  # inline\n\n1 0\n1 1\n"
    assert parse_pointset(commented, 2) == ps
    with pytest.raises(ValueError, match="line 2"):
        parse_pointset("0 0\n1\n", 2)
    with pytest.raises(ValueError, match="no points"):
        parse_pointset("# nothing\n", 2)
    for wrong in ("0 0 0\n", "0 0\n0 1 2\n", "0\n"):
        with pytest.raises(ValueError, match="has dimension"):
            parse_pointset(wrong, 2)
    with pytest.raises(ValueError, match="out of reach"):
        parse_pointset("0 " * (VERIFY_MAX_N + 1) + "\n", VERIFY_MAX_N + 1)


@st.composite
def point_files(draw):
    """A nonempty subset of F_3^n (n <= 4) and its point file, with comment
    lines, blank lines, inline comments and extra spaces drawn in."""
    n = draw(st.integers(1, 4))
    points = draw(st.sets(st.integers(0, 3**n - 1), min_size=1))
    ps = PointSet(n, tuple(points))
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for line in format_pointset(ps).splitlines():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "# a comment",
                                               "  # indented comment"])))
        gap = draw(space)
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(space)
        inline = draw(st.sampled_from(["", "# inline", "#0 1 2"]))
        lines.append(lead + line.replace(" ", gap) + trail + inline)
    return ps, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(deadline=None, max_examples=150)
@given(point_files())
def test_parse_pointset_reads_what_format_pointset_writes(case):
    ps, text = case
    assert parse_pointset(text, ps.n) == ps


def reference_parse_pointset(text, n):
    """The reader before rows were read as base-3 numerals: every token
    through int, every point through encode_point."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"point file has dimension {len(tokens)}, "
                             f"expected {n}")
        rows.append(tokens)
    if not rows:
        raise ValueError("no points found")
    return PointSet(n, tuple(encode_point([int(tok) for tok in row])
                             for row in rows))


# Rows beside the single-digit numerals: padded, signed, underscored and
# non-ASCII digits (int reads them), out of range, not numbers, repeated
# points, and rows far wider than the verifier's reach.
EDGE_FILES = {
    "padded": "00 1\n", "plus": "+1 0\n", "plus-last": "1 +0\n",
    "three": "3 0\n", "minus": "-1 0\n", "letter": "x 0\n",
    "underscore": "1 1_0\n", "arabic-indic": "\u0661 2\n",
    "duplicate": "0 1\n0 1\n", "padded-both": "01 1\n1 01\n",
    "three-second": "0 1\n0 3\n", "narrow-first": "2\n2 2\n",
    "plain": "0 0\n0 2\n", "commented": "1 0 \n# 2 2\n 1  0x\n",
    "wide-5000": " ".join("1" * 5000) + "\n",
    "wide-640": " ".join("2" * 640) + "\n",
    "wide-641": " ".join("1" * 641) + "\n" + " ".join("0" * 641) + "\n",
    "wide-4301": " ".join("1" * 4301) + "\n" + " ".join("3" * 4301) + "\n",
}


def first_bad_line(text, n):
    """The number of the first row of a point file that is not n digits
    0, 1 and 2, or None."""
    for number, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens and (len(tokens) != n or not set(tokens) <= set("012")):
            return number
    return None


# n = None stands for the width of the file's first row, the n that a
# caller reading the file itself would pass.
@pytest.mark.parametrize("text", EDGE_FILES.values(), ids=EDGE_FILES)
@pytest.mark.parametrize("n", [None, 2])
def test_parse_pointset_agrees_with_the_token_reader(text, n):
    if n is None:
        n = len(text.split("\n", 1)[0].split())
    bad = first_bad_line(text, n)
    if n > VERIFY_MAX_N:
        with pytest.raises(ValueError, match="out of reach"):
            parse_pointset(text, n)
    elif bad is not None:
        # a row outside the documented format is refused by its number
        with pytest.raises(ValueError, match=rf"\bline {bad}\b"):
            parse_pointset(text, n)
    else:
        # the same PointSet as the token reader, or ValueError from both
        try:
            expected = reference_parse_pointset(text, n)
        except ValueError:
            with pytest.raises(ValueError):
                parse_pointset(text, n)
        else:
            assert parse_pointset(text, n) == expected


# Spellings that int reads as 0, 1 or 2, or that lie outside [0, 2]:
# none of them is a digit of the point-file format.
OTHER_SPELLINGS = ["00", "+1", "1_0", "\u0661", "3", "-1", "x"]


@pytest.mark.parametrize("token", OTHER_SPELLINGS)
def test_parse_pointset_refuses_every_other_spelling(token):
    text = f"0 1\n# a comment\n\n2 {token}  # inline\n1 1\n"
    with pytest.raises(ValueError, match=r"line 4 holds a coordinate"):
        parse_pointset(text, 2)


def test_table_order_is_the_graded_lex_order_reversed():
    # the order _rref scans and the monomial of each position, against
    # the exponent tuples of monomials_up_to encoded one by one
    for n in range(VERIFY_MAX_N + 1):
        table = verifier._table(n)
        reference = list(reversed(monomials_up_to(n, 2 * n)))
        assert table.order == [encode_point(m) for m in reference]
        assert [decode_point(k, n) for k in table.order] == reference
        assert table.degrees == [sum(decode_point(k, n))
                                 for k in range(3**n)]


def test_fieldpoly_validation():
    with pytest.raises(ValueError):
        FieldPoly(1, {(3,): 1})
    with pytest.raises(ValueError):
        FieldPoly(1, {(1,): 0})
    with pytest.raises(ValueError):
        FieldPoly(2, {(1,): 1})
