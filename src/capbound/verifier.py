"""F_3 polynomial engine and mechanical checks of the rank argument.

Polynomials live over F_3 in n variables with every exponent below 3,
the natural reduced form for functions on F_3^n.  On top of the engine,
verify_support_bound replays the linear-algebra core of the bound at
small n: the space of degree-<=d polynomials vanishing off a
progression-free set has the predicted dimension, its members evaluate to
diagonal pair matrices of bounded rank, and their supports respect the cap
2*|M(n, floor(d/2))|.

The field is F_3 throughout, where -2*b = b makes the diagonal entries
P(b).  eval_poly is the single-point evaluator the tests use as an
oracle.  The linear algebra packs vectors over F_3 into two bit-planes of
a Python int: one evaluation table per n holds every monomial at every
point of F_3^n, a polynomial's values everywhere are a signed sum of its
columns, and one bitsliced Gauss-Jordan elimination serves the null space
and the ranks.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

from .capsearch import PointSet, complete_triple, is_progression_free
from .qnomial import mspace_size

Monomial = tuple[int, ...]


def parse_pointset(text: str) -> PointSet:
    """Parse the flat file format: one point per line as space-separated
    digits, '#' starting a comment."""
    vectors = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vectors.append(tuple(int(tok) for tok in line.split()))
    if not vectors:
        raise ValueError("no points found")
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise ValueError("inconsistent point dimensions")
    return PointSet.from_vectors(vectors)


def format_pointset(ps: PointSet) -> str:
    lines = [" ".join(str(c) for c in v) for v in ps.vectors()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FieldPoly:
    """Polynomial over F_3 with per-variable exponents < 3.

    terms maps exponent tuples to nonzero coefficients in {1, 2}; the
    zero polynomial has an empty map and degree -1 by convention.
    """

    n: int
    terms: dict[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mono, coeff in self.terms.items():
            if len(mono) != self.n:
                raise ValueError("monomial arity mismatch")
            if any(not 0 <= e < 3 for e in mono):
                raise ValueError("exponent outside [0, 2]")
            if not 1 <= coeff < 3:
                raise ValueError("coefficients must be nonzero residues")

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms


def make_poly(n: int, raw_terms: dict[Monomial, int]) -> FieldPoly:
    """Normalize coefficients mod 3 and drop zeros."""
    terms = {}
    for mono, coeff in raw_terms.items():
        c = coeff % 3
        if c:
            terms[tuple(mono)] = c
    return FieldPoly(n, terms)


def eval_poly(P: FieldPoly, x: tuple[int, ...] | list[int]) -> int:
    """Value of P at a point of F_3^n, exponents evaluated literally."""
    if len(x) != P.n:
        raise ValueError(f"point has {len(x)} coordinates, polynomial has {P.n}")
    total = 0
    for mono, coeff in P.terms.items():
        v = coeff
        for xi, e in zip(x, mono):
            if e:
                v = v * pow(xi, e, 3) % 3
        total += v
    return total % 3


def monomials_up_to(n: int, d: int) -> list[Monomial]:
    """All exponent tuples with entries < 3 and total degree <= d, in graded
    lexicographic order (the canonical column order everywhere here)."""
    out = [m for m in product(range(min(3, d + 1)), repeat=n) if sum(m) <= d]
    out.sort(key=lambda m: (sum(m), m))
    return out


# ---------------------------------------------------------------------------
# Packed F_3 linear algebra.  A vector over F_3 is a pair of ints (ones,
# twos): bit i of `ones` is set where entry i is 1, bit i of `twos` where
# it is 2, never both.  Adding, negating or scaling a whole vector is then
# a handful of big-int bit operations (Boothby and Bradshaw, "Bitslicing
# and the Method of Four Russians over larger finite fields", 2009).

# Largest n the verifier accepts, so that every accepted input verifies
# in well under a second per d.  At n = 6 the evaluation table (3^n x 3^n
# entries) builds in about 0.02 s and an 80-point set verifies in at most
# 0.25 s per d.  At n = 7 the table takes about 0.2 s, the null space of
# a 180-point set about 1 s per d, and the pair matrices grow as
# dim V * |A|^2 on top (Python 3.11, one core of a shared VM).
VERIFY_MAX_N = 6


def _add(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Entrywise sum of two packed F_3 vectors (negate b by swapping its
    planes first to subtract)."""
    x = a1 ^ b1
    y = a2 ^ b2
    z = x & y  # 1 + 2 = 0
    return (x ^ z) | (a2 & b2), (y ^ z) | (a1 & b1)


class _EvalTable(NamedTuple):
    """Every monomial of monomials_up_to(n, 2n) at every point of F_3^n.

    columns[j] packs monomial j's values over the points (bit x for the
    point of base-3 index x); rows[x] packs point x's values over the
    monomials (bit j for monomial j).  The monomials are in graded-lex
    order, so the first |M(n, d)| of them are M(n, d) for every d.
    """

    monos: list[Monomial]
    index: dict[Monomial, int]
    columns: list[tuple[int, int]]
    rows: list[tuple[int, int]]


_tables: dict[int, _EvalTable] = {}


def _table(n: int) -> _EvalTable:
    """The evaluation table for n, built once per process.

    Raises ValueError above VERIFY_MAX_N before building anything.
    """
    if n > VERIFY_MAX_N:
        raise ValueError(f"n={n} is out of reach for the verifier "
                         f"(its ceiling is n={VERIFY_MAX_N})")
    if n in _tables:
        return _tables[n]
    size = 3**n
    # Points where coordinate i (of weight 3^(n-1-i)) is nonzero, and
    # where it is 2.  A monomial is nonzero exactly where every variable
    # it contains is, and there it is 2 when an odd number of its
    # degree-1 variables are 2 (since 2^2 = 1).
    nonzero = [0] * n
    two = [0] * n
    for x in range(size):
        for i in range(n):
            digit = x // 3 ** (n - 1 - i) % 3
            if digit:
                nonzero[i] |= 1 << x
            if digit == 2:
                two[i] |= 1 << x
    monos = monomials_up_to(n, 2 * n)
    columns = []
    for mono in monos:
        support, odd = (1 << size) - 1, 0
        for i, e in enumerate(mono):
            if e:
                support &= nonzero[i]
            if e == 1:
                odd ^= two[i]
        columns.append((support & ~odd, support & odd))
    row_ones = [0] * size
    row_twos = [0] * size
    for j, (ones, twos) in enumerate(columns):
        bit = 1 << j
        for plane, out in ((ones, row_ones), (twos, row_twos)):
            while plane:
                low = plane & -plane
                out[low.bit_length() - 1] |= bit
                plane ^= low
    index = {m: j for j, m in enumerate(monos)}
    rows = list(zip(row_ones, row_twos))
    _tables[n] = _EvalTable(monos, index, columns, rows)
    return _tables[n]


def _rref(ones: list[int], twos: list[int], cols: int) -> list[int]:
    """Reduce packed F_3 rows, in place, to reduced row echelon form over
    their low `cols` columns, and return the pivot columns; row r holds
    the pivot of pivot column r.

    Stops once every row holds a pivot: the remaining columns are then
    free and the form is already reduced.
    """
    pivot_cols: list[int] = []
    nrows = len(ones)
    for col in range(cols):
        rank = len(pivot_cols)
        if rank == nrows:
            break
        bit = 1 << col
        pivot = next((r for r in range(rank, nrows)
                      if (ones[r] | twos[r]) & bit), None)
        if pivot is None:
            continue
        ones[rank], ones[pivot] = ones[pivot], ones[rank]
        twos[rank], twos[pivot] = twos[pivot], twos[rank]
        p1, p2 = ones[rank], twos[rank]
        if p2 & bit:  # scale the pivot row by 2 = -1
            p1, p2 = p2, p1
            ones[rank], twos[rank] = p1, p2
        for r in range(nrows):
            if r == rank:
                continue
            if ones[r] & bit:  # entry 1: subtract the pivot row
                ones[r], twos[r] = _add(ones[r], twos[r], p2, p1)
            elif twos[r] & bit:  # entry 2: subtract it twice, i.e. add it
                ones[r], twos[r] = _add(ones[r], twos[r], p1, p2)
        pivot_cols.append(col)
    return pivot_cols


def rank_mod_p(M: list[list[int]]) -> int:
    """Rank of an integer matrix over F_3 by Gaussian elimination."""
    if not M:
        return 0
    ones, twos = ([sum(1 << i for i, x in enumerate(row) if x % 3 == r)
                   for row in M] for r in (1, 2))
    return len(_rref(ones, twos, len(M[0])))


def vanishing_space_basis(n: int, d: int, S: PointSet) -> list[FieldPoly]:
    """Basis of the degree-<=d polynomials (exponents < 3) vanishing on S.

    Null space of the |S| x |M(n,d)| evaluation matrix; its dimension is
    |M(n,d)| - rank >= |M(n,d)| - |S|.
    """
    if S.n != n:
        raise ValueError(f"point set lies in dimension {S.n}, not {n}")
    if d > 2 * n:
        raise ValueError(f"d={d} exceeds the maximal degree {2 * n}")
    table = _table(n)
    width = mspace_size(n, d, 3)
    mask = (1 << width) - 1
    ones = [table.rows[x][0] & mask for x in S.points]
    twos = [table.rows[x][1] & mask for x in S.points]
    # One basis vector per free column of the RREF, so the basis is
    # deterministic given the column order.
    pivot_cols = _rref(ones, twos, width)
    pivots = set(pivot_cols)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        bit = 1 << free
        vec = [0] * width
        vec[free] = 1
        for r, pc in enumerate(pivot_cols):
            if ones[r] & bit:
                vec[pc] = 2
            elif twos[r] & bit:
                vec[pc] = 1
        basis.append(FieldPoly(n, {table.monos[i]: v
                                   for i, v in enumerate(vec) if v}))
    return basis


def _values(P: FieldPoly) -> tuple[int, int]:
    """P's values at every point of F_3^n, packed: a signed sum of the
    evaluation table's columns."""
    table = _table(P.n)
    ones = twos = 0
    for mono, coeff in P.terms.items():
        c1, c2 = table.columns[table.index[mono]]
        if coeff == 2:
            c1, c2 = c2, c1
        ones, twos = _add(ones, twos, c1, c2)
    return ones, twos


@lru_cache(maxsize=4)
def _neg_sum_indices(A: PointSet) -> list[list[int]]:
    """Base-3 index of -a-b for every pair (a, b) of A, in A's order."""
    return [[complete_triple(a, b, A.n) for b in A.points] for a in A.points]


def expand_neg_sum(P: FieldPoly) -> FieldPoly:
    """Substitute x_i <- -(b_i + c_i) and expand over 2n variables.

    Variable order of the result is (b_1..b_n, c_1..c_n).  Within each
    factor (b_i + c_i)^e the binomial exponents stay <= e < 3, so the
    result is already in reduced form; total degree never increases.
    """
    n = P.n
    out: dict[Monomial, int] = {}
    for mono, coeff in P.terms.items():
        sign = (-1) ** (sum(mono) % 2)
        # expansion of prod_i (b_i + c_i)^{e_i}: list of (beta, gamma, coef)
        partial: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 1)]
        for e in mono:
            nxt = []
            for beta, gamma, c in partial:
                for j in range(e + 1):
                    nxt.append((beta + (j,), gamma + (e - j,),
                                c * comb(e, j) % 3))
            partial = nxt
        for beta, gamma, c in partial:
            key = beta + gamma
            out[key] = (out.get(key, 0) + sign * coeff * c) % 3
    return FieldPoly(2 * n, {m: c for m, c in out.items() if c})


def clp_split(Q: FieldPoly, d: int) -> tuple[dict[Monomial, FieldPoly],
                                             dict[Monomial, FieldPoly]]:
    """Split a 2n-variable polynomial of total degree <= d into the two
    half-degree families:

        Q(b, c) = sum_m m(b) * F_m(c)  +  sum_m m(c) * G_m(b)

    with every key monomial m of degree <= floor(d/2).  Each monomial
    b^beta c^gamma is routed to the b-keyed family when deg(beta) <= d/2;
    otherwise deg(gamma) <= d/2 is forced by the degree budget and it goes
    to the c-keyed family.  Monomials eligible for both sides go to the
    b side; only the reconstruction identity is contractual.
    """
    if Q.n % 2 != 0:
        raise ValueError("expected a polynomial in 2n variables")
    n = Q.n // 2
    if Q.degree > d:
        raise ValueError(f"total degree {Q.degree} exceeds d={d}")
    half = d // 2
    f_raw: dict[Monomial, dict[Monomial, int]] = {}
    g_raw: dict[Monomial, dict[Monomial, int]] = {}
    for mono, coeff in Q.terms.items():
        beta, gamma = mono[:n], mono[n:]
        if sum(beta) <= half:
            f_raw.setdefault(beta, {})[gamma] = coeff
        else:
            g_raw.setdefault(gamma, {})[beta] = coeff
    F = {m: FieldPoly(n, terms) for m, terms in f_raw.items()}
    G = {m: FieldPoly(n, terms) for m, terms in g_raw.items()}
    return F, G


def reconstruct_split(F: dict[Monomial, FieldPoly],
                      G: dict[Monomial, FieldPoly],
                      n: int) -> FieldPoly:
    """Reassemble sum_m m(b) F_m(c) + sum_m m(c) G_m(b) as a 2n-var poly."""
    out: dict[Monomial, int] = {}
    for beta, poly in F.items():
        for gamma, coeff in poly.terms.items():
            key = beta + gamma
            out[key] = (out.get(key, 0) + coeff) % 3
    for gamma, poly in G.items():
        for beta, coeff in poly.terms.items():
            key = beta + gamma
            out[key] = (out.get(key, 0) + coeff) % 3
    return FieldPoly(2 * n, {m: c for m, c in out.items() if c})


def product_matrix(P: FieldPoly, A: PointSet) -> list[list[int]]:
    """|A| x |A| matrix with entry (a, b) = P(-a-b mod 3), rows and columns
    both in the canonical base-3 order of A."""
    if A.n != P.n:
        raise ValueError("point set does not match the polynomial")
    ones, twos = _values(P)
    return [[1 if ones >> x & 1 else 2 if twos >> x & 1 else 0 for x in row]
            for row in _neg_sum_indices(A)]


def support_size(P: FieldPoly) -> int:
    """Number of points of F_3^n where P is nonzero."""
    ones, twos = _values(P)
    return (ones | twos).bit_count()


@dataclass(frozen=True)
class VerifierReport:
    """What verify_support_bound checked, plus what it cost: per-stage
    wall times in ms (table, nullspace, pair_matrices, ranks, supports)
    and work counters.  The cost fields take no part in comparisons."""

    n: int
    d: int
    set_size: int
    dim_v: int
    dim_lower_bound: int
    max_support: int
    support_cap: int
    rank: int
    diagonal_ok: bool
    rank_ok: bool
    support_ok: bool
    bound_ok: bool
    timings_ms: dict[str, float] = field(default_factory=dict, compare=False)
    counters: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def all_ok(self) -> bool:
        return (self.diagonal_ok and self.rank_ok and self.support_ok
                and self.bound_ok)


def verify_support_bound(n: int, d: int, A: PointSet) -> VerifierReport:
    """Replay the rank argument on a concrete progression-free set A.

    For a basis of the space V of degree-<=d polynomials vanishing off A,
    checks that every basis element yields (1) a diagonal pair matrix,
    (2) of rank at most 2*|M(n, floor(d/2))|, (3) a support of at most
    that same cap, and (4) that dim V >= |M(n,d)| - (3^n - |A|).

    Raises ValueError for a set that does not lie in dimension n, for n
    above VERIFY_MAX_N (before any table is built), for d outside
    [0, 2n], and for a set that is not progression-free.
    """
    if A.n != n:
        raise ValueError(f"point set lies in dimension {A.n}, not {n}")
    if not 0 <= d <= 2 * n:
        raise ValueError(f"d={d} is outside [0, {2 * n}]")
    timings = dict.fromkeys(("table", "nullspace", "pair_matrices", "ranks",
                             "supports"), 0.0)

    def timed(stage, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        timings[stage] += time.perf_counter() - started
        return result

    cached = n in _tables
    timed("table", _table, n)
    if not is_progression_free(A):
        raise ValueError("the point set is not progression-free")

    basis = timed("nullspace", vanishing_space_basis, n, d, A.complement())
    dim_v = len(basis)
    m_d = mspace_size(n, d, 3)
    dim_lower = m_d - (3**n - A.size)
    support_cap = 2 * mspace_size(n, d // 2, 3)

    diagonal_ok = True
    rank_ok = True
    support_ok = True
    max_rank = 0
    max_support = 0
    for P in basis:
        M = timed("pair_matrices", product_matrix, P, A)
        if any(M[i][j] for i in range(len(M)) for j in range(len(M)) if i != j):
            diagonal_ok = False
        r = timed("ranks", rank_mod_p, M)
        max_rank = max(max_rank, r)
        if r > support_cap:
            rank_ok = False
        s = timed("supports", support_size, P)
        max_support = max(max_support, s)
        if s > support_cap:
            support_ok = False

    return VerifierReport(
        n=n,
        d=d,
        set_size=A.size,
        dim_v=dim_v,
        dim_lower_bound=dim_lower,
        max_support=max_support,
        support_cap=support_cap,
        rank=max_rank,
        diagonal_ok=diagonal_ok,
        rank_ok=rank_ok,
        support_ok=support_ok,
        bound_ok=dim_v >= dim_lower,
        timings_ms={k: round(v * 1000, 3) for k, v in timings.items()},
        counters={
            "eval_matrix_rows": 3**n - A.size,
            "eval_matrix_cols": m_d,
            "eval_matrix_rank": m_d - dim_v,  # rank-nullity
            "dim_v": dim_v,
            "pair_entries": dim_v * A.size**2,
            "table_cached": cached,
        },
    )
