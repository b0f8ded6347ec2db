"""F_3 polynomial engine and mechanical checks of the rank argument.

Polynomials live over F_3 in n variables with every exponent below 3,
the natural reduced form for functions on F_3^n.  On top of the engine,
verify_support_bound replays the linear-algebra core of the bound at
small n: the space of degree-<=d polynomials vanishing off a
progression-free set has the predicted dimension, its members vanish off
the set and evaluate to diagonal pair matrices of bounded rank, and their
supports respect the cap 2*|M(n, floor(d/2))|.  VerifierReport.checks
names those five checks once, for `verify-clp` and criterion 7.
vanishing_space_basis returns the same space as FieldPoly values.  Both
take A itself, read n off it, and refuse the same d and n.

The field is F_3 throughout, where -2*b = b makes the diagonal entries
P(b).  eval_poly is the single-point evaluator the tests use as an
oracle.  The linear algebra packs vectors over F_3 into two bit-planes of
a Python int, with coefficients and values in one tensor order: bit k
is the monomial, or the point, of base-3 index k.  A polynomial
vanishing off A is a combination of A's indicators, built for A's
points alone, so one bitsliced elimination of |A| rows gives V.  With
pivots at the highest graded monomial, that one elimination serves every
d: V_d is spanned by the rows whose pivot has degree at most d.  Each
basis element's values at all 3^n points come from its own coefficients
by n bitsliced stages of Yates's algorithm.  The process keeps the last
set's elimination, with the rows' packed values, so a run over every d
of one set eliminates it once.  Pair matrices are read off packed values
with point masks, never built.

Point files hold one point a line as n digits 0, 1 and 2, the form
format_pointset writes; parse_pointset reads each row as one base-3
numeral, the point's index in that same order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import comb
from typing import NamedTuple

from .capsearch import PointSet, decode_point, third_points
from .qnomial import mspace_size
from .stages import Check, Stages

Monomial = tuple[int, ...]


def parse_pointset(text: str, n: int) -> PointSet:
    """Parse the flat file format: one point per line as n space-separated
    digits 0, 1 or 2, '#' starting a comment.  n above VERIFY_MAX_N is
    refused first, and a text over POINT_FILE_MAX_CHARS characters before
    any parsing.  Every row's width and digits are checked before any
    point is converted, and a row that fails is named by its line
    number.  Each row is then read as one base-3 numeral, first
    coordinate most significant, and the PointSet built from the indices
    checks their range and duplicates."""
    check_reach(n)
    if len(text) > POINT_FILE_MAX_CHARS:
        raise ValueError(f"point file exceeds {POINT_FILE_MAX_CHARS} "
                         "characters")
    rows = []
    for line, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != n:
            raise ValueError(f"point file has dimension {len(tokens)}, "
                             f"expected {n} (line {line})")
        if not _TRITS.issuperset(tokens):
            raise ValueError(f"point file line {line} holds a coordinate "
                             "other than 0, 1 or 2")
        rows.append("".join(tokens))
    if not rows:
        raise ValueError("no points found")
    return PointSet(n, tuple(int(row, 3) for row in rows))


# The digits of a point file's coordinates
_TRITS = frozenset("012")


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
    lexicographic order, the order of V's basis."""
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
# in well under a second per d.  At n = 6 the table builds in about
# 0.5 ms, and an 80-point set verifies in about 7 ms at its first d and
# in about 7 ms at all 13; at n = 7 they would take 2 ms and about 35 ms
# for a 180-point set, at its first d or at all 15 (Python 3.11, one
# core of a shared 2-core VM).
VERIFY_MAX_N = 6
# Longest point file parse_pointset accepts: four times the 8,748
# characters format_pointset gives every point of F_3^VERIFY_MAX_N.
POINT_FILE_MAX_CHARS = 4 * 2 * VERIFY_MAX_N * 3**VERIFY_MAX_N


def _add(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Entrywise sum of two packed F_3 vectors (negate b by swapping its
    planes first to subtract)."""
    x = a1 ^ b1
    y = a2 ^ b2
    z = x & y  # 1 + 2 = 0
    return (x ^ z) | (a2 & b2), (y ^ z) | (a1 & b1)


class _Table(NamedTuple):
    """The monomials of F_3^n in tensor order, which a packed coefficient
    vector's bits follow: bit k is the monomial whose exponent vector has
    base-3 index k (decode_point(k, n)), first variable most significant,
    as points are numbered.  degrees[k] is that monomial's degree.
    zeros[i] marks the positions whose exponent of variable i is 0;
    shifted by 3^(n-1-i) and by twice that, it marks exponents 1 and 2.
    order lists the positions in monomials_up_to's graded-lex order
    reversed, the order _rref scans: by degree, then by index, both
    descending, since the index orders exponent vectors as lex does.
    """

    degrees: list[int]
    zeros: list[int]
    order: list[int]


_tables: dict[int, _Table] = {}


def check_reach(n: int) -> None:
    """Raises ValueError for n above VERIFY_MAX_N."""
    if n > VERIFY_MAX_N:
        raise ValueError(f"n={n} is out of reach for the verifier "
                         f"(its ceiling is n={VERIFY_MAX_N})")


def _table(n: int) -> _Table:
    """The monomial table for n, built once per process.

    Raises ValueError above VERIFY_MAX_N before building anything.
    """
    check_reach(n)
    if n in _tables:
        return _tables[n]
    degrees = [sum(m) for m in product(range(3), repeat=n)]  # index order
    order = sorted(range(3**n), key=lambda k: (degrees[k], k), reverse=True)
    # variable i's exponent is 0 in runs of 3^(n-1-i) positions, one run
    # in every 3^(n-i)
    full = (1 << 3**n) - 1
    zeros = [((1 << 3**i) - 1) * (full // ((1 << 3**(i + 1)) - 1))
             for i in reversed(range(n))]
    _tables[n] = _Table(degrees, zeros, order)
    return _tables[n]


def _indicator(table: _Table, x: tuple[int, ...]) -> tuple[int, int]:
    """The packed coefficients of delta_x(y) = prod_i (1 - (y_i - x_i)^2),
    1 at x and 0 elsewhere.  1 - (y_i - a)^2 has coefficients (1, 0, 2),
    (0, 2, 2) and (0, 1, 2) at y_i^0, y_i^1, y_i^2 for a = 0, 1, 2.  The
    product is nonzero where every factor is, and there 2 where an odd
    number of factors are 2 (2^2 = 1)."""
    stride = len(table.degrees)
    full = (1 << stride) - 1
    support, odd = full, 0
    for a, zero in zip(x, table.zeros):
        stride //= 3
        support &= ~(zero << stride if a == 0 else zero)
        odd ^= full if a == 1 else zero << 2 * stride
    return support & ~odd, support & odd


def _evaluate(table: _Table, ones: int, twos: int) -> tuple[int, int]:
    """The packed values at every point of F_3^n (bit x for the point of
    base-3 index x) of the polynomial with packed coefficients (ones,
    twos), by Yates's algorithm (Yates, "The design and analysis of
    factorial experiments", 1937): evaluation is the tensor product of one
    3x3 map per variable, which takes the coefficients c0, c1, c2 of
    exponents 0, 1, 2 to the values c0, c0 + c1 + c2 and c0 - c1 + c2 at
    0, 1, 2.  One stage per variable applies it to every slice at once."""
    stride = 1
    for zero in reversed(table.zeros):
        a1, a2 = ones & zero, twos & zero
        b1, b2 = ones >> stride & zero, twos >> stride & zero
        c1, c2 = ones >> 2 * stride & zero, twos >> 2 * stride & zero
        s1, s2 = _add(a1, a2, c1, c2)
        p1, p2 = _add(s1, s2, b1, b2)
        m1, m2 = _add(s1, s2, b2, b1)
        ones = a1 | p1 << stride | m1 << 2 * stride
        twos = a2 | p2 << stride | m2 << 2 * stride
        stride *= 3
    return ones, twos


def _rref(ones: list[int], twos: list[int], order: list[int]) -> list[int]:
    """Reduce linearly independent packed F_3 rows, in place, to reduced
    row echelon form over the columns of `order`, scanned in that order,
    and return the pivot columns in it; row r holds pivot column r, its
    first nonzero column in that order.

    Stops once every row holds a pivot: the remaining columns are then
    free and the form is already reduced.  Raises ArithmeticError if the
    rows are dependent, with fewer pivots than rows.
    """
    pivot_cols: list[int] = []
    nrows = len(ones)
    for col in order:
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
    if len(pivot_cols) < nrows:
        raise ArithmeticError(f"{nrows} rows have {len(pivot_cols)} pivots")
    return pivot_cols


class _Elimination:
    """The indicators of one set A in F_3^n, reduced once for every d.

    V_0 <= V_1 <= ... <= V_2n, and a basis of V_d is the reduced rows whose
    pivot (highest graded-lex monomial) has degree at most d, so one
    elimination of the |A| indicators serves every d.  The mask
    third_points(A), the reduction and each row's packed values are
    computed on first use and kept while A is the last set verified.  A
    row's values come from its own coefficients by _evaluate.
    """

    def __init__(self, A: PointSet):
        self.A = A
        self.table = _table(A.n)
        self.values: dict[int, tuple[int, int]] = {}

    @cached_property
    def third(self) -> int:
        return third_points(self.A)

    @cached_property
    def rows(self) -> tuple[list[int], list[int], list[int]]:
        """(ones, twos, pivots): A's |A| indicators in reduced row
        echelon form, as _rref leaves them; _rref checks that every
        indicator adds rank, so row r holds pivot r for every r."""
        indicators = [_indicator(self.table, x) for x in self.A.vectors()]
        ones = [o for o, _ in indicators]
        twos = [t for _, t in indicators]
        return ones, twos, _rref(ones, twos, self.table.order)

    def basis_rows(self, d: int) -> range:
        """The rows spanning V_d, pivots ascending."""
        pivots = self.rows[2]
        degrees = self.table.degrees
        high = sum(degrees[col] > d for col in pivots)  # pivots descend
        return range(len(pivots) - 1, high - 1, -1)

    def basis_values(self, d: int) -> list[tuple[int, int]]:
        """The packed values at every point of F_3^n of V_d's basis."""
        ones, twos, _ = self.rows
        rows = self.basis_rows(d)
        for r in rows:
            if r not in self.values:
                self.values[r] = _evaluate(self.table, ones[r], twos[r])
        return [self.values[r] for r in rows]


_last_elimination: _Elimination | None = None


def _elimination(A: PointSet) -> tuple[_Elimination, bool]:
    """A's elimination and whether it was kept from the call before.
    Every caller runs the degrees of one set in a row, so only the last
    set's is kept."""
    global _last_elimination
    if _last_elimination is not None and _last_elimination.A == A:
        return _last_elimination, True
    _last_elimination = _Elimination(A)
    return _last_elimination, False


def _check_degree(n: int, d: int) -> None:
    """Raises ValueError for d outside [0, 2n], the degrees of V_d."""
    if not 0 <= d <= 2 * n:
        raise ValueError(f"d={d} is outside [0, {2 * n}]")


def vanishing_space_basis(A: PointSet, d: int) -> list[FieldPoly]:
    """Basis of V_d, the degree-<=d polynomials (exponents < 3) vanishing
    off A, as FieldPoly values: the same V_d that verify_support_bound
    checks, read from A's kept elimination, in the form that names each
    member's monomials.  The basis is the reduced rows of A's indicators
    whose pivot (highest graded-lex monomial) lies in M(n, d), ascending.

    Raises ValueError for d outside [0, 2n] and for n above
    VERIFY_MAX_N, before any table is built.
    """
    n = A.n
    _check_degree(n, d)
    elimination, _ = _elimination(A)
    ones, twos, _ = elimination.rows
    basis = []
    for r in elimination.basis_rows(d):
        terms = {}
        nonzero = ones[r] | twos[r]
        while nonzero:
            low = nonzero & -nonzero
            terms[decode_point(low.bit_length() - 1, n)] = (
                1 if ones[r] & low else 2)
            nonzero ^= low
        basis.append(FieldPoly(n, terms))
    return basis


# Three of the per-element checks of verify_support_bound, on P's packed
# values (_Elimination.basis_values).  P's pair matrix (a, b) -> P(-a-b)
# on A x A is never built: its off-diagonal entries are P at the points
# of third_points(A), its diagonal ones P at A itself (-2a = a over F_3).

def product_matrix(values: tuple[int, int], A: PointSet,
                   third: int) -> tuple[int, int]:
    """P's pair matrix on A as the point masks (diagonal, off_diagonal) of
    its nonzero entries, given P's packed values and third =
    third_points(A).  The matrix is diagonal iff off_diagonal is 0."""
    nonzero = values[0] | values[1]
    return nonzero & A.mask, nonzero & third


def rank_mod_p(diagonal: int) -> int:
    """Rank over F_3 of a diagonal matrix, given the mask of its nonzero
    diagonal entries: each is a unit, so the rank is their count."""
    return diagonal.bit_count()


def support_size(values: tuple[int, int]) -> int:
    """Number of points of F_3^n where P is nonzero, given P's packed
    values."""
    return (values[0] | values[1]).bit_count()


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


@dataclass(frozen=True)
class VerifierReport:
    """What verify_support_bound checked and what it cost: wall times in
    ms of table, nullspace and checks (charged on both sides of the null
    space) and work counters.  rank is the most members of A at which one
    basis element is nonzero, its pair matrix's rank when diagonal_ok
    holds (rank_ok requires it).  Cost fields take no part in comparisons.
    `checks` lists the five checks for every reader, so a new check is
    added there alone."""

    n: int
    d: int
    set_size: int
    dim_v: int
    dim_lower_bound: int
    max_support: int
    support_cap: int
    rank: int
    vanishing_ok: bool
    diagonal_ok: bool
    rank_ok: bool
    support_ok: bool
    bound_ok: bool
    timings_ms: dict[str, float] = field(default_factory=dict, compare=False)
    counters: dict[str, int] = field(default_factory=dict, compare=False)

    @property
    def checks(self) -> tuple[Check, ...]:
        cap = self.support_cap
        return (Check("vanishes_off_set", self.vanishing_ok, "every basis "
                      "element is 0 at every point outside the set"),
                Check("pair_matrix_diagonal", self.diagonal_ok,
                      "off-diagonal entries vanish"),
                Check("rank_cap", self.rank_ok,
                      f"max rank {self.rank} <= {cap}"),
                Check("support_cap", self.support_ok,
                      f"max support {self.max_support} <= {cap}"),
                Check("dimension_bound", self.bound_ok,
                      f"dim V = {self.dim_v} >= {self.dim_lower_bound}"))

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_support_bound(A: PointSet, d: int) -> VerifierReport:
    """Replay the rank argument on a concrete progression-free set A.

    For a basis of the space V of degree-<=d polynomials vanishing off A,
    checks that every basis element (1) vanishes off A and yields (2) a
    diagonal pair matrix, (3) of rank at most 2*|M(n, floor(d/2))|, (4) a
    support of at most that same cap, and (5) that
    dim V >= |M(n,d)| - (3^n - |A|).  The basis comes from A's
    elimination, which the process keeps for the next d.

    Raises ValueError for d outside [0, 2n] and for n above VERIFY_MAX_N
    (both before any table is built), and for a set that is not
    progression-free.
    """
    n = A.n
    _check_degree(n, d)
    clock = Stages("table", "nullspace", "checks")
    cached = n in _tables
    _table(n)
    clock.lap("table")
    elimination, kept = _elimination(A)
    third = elimination.third
    members = A.mask
    if third & members:
        raise ValueError("the point set is not progression-free")
    clock.lap("checks")
    pivots = elimination.rows[2]  # reduced here, on A's first call, and timed
    clock.lap("nullspace")
    dim_lower = mspace_size(n, d) - (3**n - A.size)
    support_cap = 2 * mspace_size(n, d // 2)

    basis = elimination.basis_values(d)
    outside = ~members
    vanishing_ok = diagonal_ok = True
    max_rank = max_support = 0
    for values in basis:
        if (values[0] | values[1]) & outside:
            vanishing_ok = False
        diagonal, off_diagonal = product_matrix(values, A, third)
        if off_diagonal:
            diagonal_ok = False
        max_rank = max(max_rank, rank_mod_p(diagonal))
        max_support = max(max_support, support_size(values))
    clock.lap("checks")
    dim_v = len(basis)

    return VerifierReport(
        n=n, d=d, set_size=A.size, dim_v=dim_v, dim_lower_bound=dim_lower,
        max_support=max_support, support_cap=support_cap, rank=max_rank,
        vanishing_ok=vanishing_ok, diagonal_ok=diagonal_ok,
        rank_ok=diagonal_ok and max_rank <= support_cap,
        support_ok=max_support <= support_cap, bound_ok=dim_v >= dim_lower,
        timings_ms=clock.ms,
        counters={
            "elimination_rows": A.size,
            "elimination_cols": len(elimination.table.degrees),
            "elimination_rank": len(pivots),
            "dim_v": dim_v,
            "third_points": third.bit_count(),
            "table_cached": cached,
            "elimination_cached": kept,
        },
    )
