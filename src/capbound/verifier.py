"""Finite-field polynomial engine and mechanical checks of the rank argument.

Polynomials live over a prime field F_p in n variables with every exponent
below p, the natural reduced form for functions on F_p^n.  On top of the
engine, verify_support_bound replays the linear-algebra core of the bound
at small n: the space of degree-<=d polynomials vanishing off a
progression-free set has the predicted dimension, its members evaluate to
diagonal pair matrices of bounded rank, and their supports respect the cap
2*|M(n, floor(d/2))|.

The engine is generic in the prime p; the verification harness itself is
pinned to p = 3, where -2*b = b makes the diagonal entries P(b).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb

from .capsearch import PointSet, is_progression_free
from .qnomial import mspace_size

Monomial = tuple[int, ...]


def parse_pointset(text: str, p: int = 3) -> PointSet:
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
    return PointSet.from_vectors(vectors, p)


def format_pointset(ps: PointSet) -> str:
    lines = [" ".join(str(c) for c in v) for v in ps.vectors()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FieldPoly:
    """Polynomial over F_p with per-variable exponents < p.

    terms maps exponent tuples to nonzero coefficients in [1, p-1]; the
    zero polynomial has an empty map and degree -1 by convention.
    """

    p: int
    n: int
    terms: dict[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mono, coeff in self.terms.items():
            if len(mono) != self.n:
                raise ValueError("monomial arity mismatch")
            if any(not 0 <= e < self.p for e in mono):
                raise ValueError("exponent outside [0, p-1]")
            if not 1 <= coeff < self.p:
                raise ValueError("coefficients must be nonzero residues")

    @property
    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=-1)

    def is_zero(self) -> bool:
        return not self.terms


def make_poly(p: int, n: int, raw_terms: dict[Monomial, int]) -> FieldPoly:
    """Normalize coefficients mod p and drop zeros."""
    terms = {}
    for mono, coeff in raw_terms.items():
        c = coeff % p
        if c:
            terms[tuple(mono)] = c
    return FieldPoly(p, n, terms)


def eval_poly(P: FieldPoly, x: tuple[int, ...] | list[int]) -> int:
    """Value of P at a point of F_p^n, exponents evaluated literally."""
    if len(x) != P.n:
        raise ValueError(f"point has {len(x)} coordinates, polynomial has {P.n}")
    p = P.p
    total = 0
    for mono, coeff in P.terms.items():
        v = coeff
        for xi, e in zip(x, mono):
            if e:
                v = v * pow(xi, e, p) % p
        total += v
    return total % p


def monomials_up_to(n: int, d: int, p: int) -> list[Monomial]:
    """All exponent tuples with entries < p and total degree <= d, in graded
    lexicographic order (the canonical column order everywhere here)."""
    out = [m for m in product(range(min(p, d + 1)), repeat=n) if sum(m) <= d]
    out.sort(key=lambda m: (sum(m), m))
    return out


def _rref(M: list[list[int]], cols: int,
          p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of M over F_p and its pivot columns.

    Stops once every row holds a pivot: the remaining columns are then
    free and the form is already reduced.
    """
    mat = [[x % p for x in row] for row in M]
    pivot_cols: list[int] = []
    for col in range(cols):
        rank = len(pivot_cols)
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [x * inv % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivot_cols.append(col)
    return mat, pivot_cols


def rank_mod_p(M: list[list[int]], p: int) -> int:
    """Rank of a matrix over F_p by Gaussian elimination."""
    if not M:
        return 0
    return len(_rref(M, len(M[0]), p)[1])


def vanishing_space_basis(n: int, d: int, S: PointSet,
                          p: int = 3) -> list[FieldPoly]:
    """Basis of the degree-<=d polynomials (exponents < p) vanishing on S.

    Null space of the |S| x |M(n,d)| evaluation matrix; its dimension is
    |M(n,d)| - rank >= |M(n,d)| - |S|.
    """
    if S.p != p or S.n != n:
        raise ValueError("point set does not match (n, p)")
    if d > (p - 1) * n:
        raise ValueError(f"d={d} exceeds the maximal degree {(p - 1) * n}")
    monos = monomials_up_to(n, d, p)
    rows = []
    for vec in S.vectors():
        powers = [[pow(c, e, p) for e in range(p)] for c in vec]
        rows.append([_prod_mod(powers, m, p) for m in monos])
    # One basis vector per free column of the RREF, so the basis is
    # deterministic given the column order.
    mat, pivot_cols = _rref(rows, len(monos), p)
    pivots = set(pivot_cols)
    basis = []
    for free in range(len(monos)):
        if free in pivots:
            continue
        vec = [0] * len(monos)
        vec[free] = 1
        for r, pc in enumerate(pivot_cols):
            vec[pc] = -mat[r][free] % p
        basis.append(FieldPoly(p, n, {monos[i]: v
                                      for i, v in enumerate(vec) if v}))
    return basis


def _prod_mod(powers: list[list[int]], mono: Monomial, p: int) -> int:
    v = 1
    for i, e in enumerate(mono):
        if e:
            v = v * powers[i][e] % p
    return v


def expand_neg_sum(P: FieldPoly) -> FieldPoly:
    """Substitute x_i <- -(b_i + c_i) and expand over 2n variables.

    Variable order of the result is (b_1..b_n, c_1..c_n).  Within each
    factor (b_i + c_i)^e the binomial exponents stay <= e < p, so the
    result is already in reduced form; total degree never increases.
    """
    p, n = P.p, P.n
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
                                c * comb(e, j) % p))
            partial = nxt
        for beta, gamma, c in partial:
            key = beta + gamma
            out[key] = (out.get(key, 0) + sign * coeff * c) % p
    return FieldPoly(p, 2 * n, {m: c for m, c in out.items() if c})


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
    F = {m: FieldPoly(Q.p, n, terms) for m, terms in f_raw.items()}
    G = {m: FieldPoly(Q.p, n, terms) for m, terms in g_raw.items()}
    return F, G


def reconstruct_split(F: dict[Monomial, FieldPoly],
                      G: dict[Monomial, FieldPoly],
                      n: int, p: int) -> FieldPoly:
    """Reassemble sum_m m(b) F_m(c) + sum_m m(c) G_m(b) as a 2n-var poly."""
    out: dict[Monomial, int] = {}
    for beta, poly in F.items():
        for gamma, coeff in poly.terms.items():
            key = beta + gamma
            out[key] = (out.get(key, 0) + coeff) % p
    for gamma, poly in G.items():
        for beta, coeff in poly.terms.items():
            key = beta + gamma
            out[key] = (out.get(key, 0) + coeff) % p
    return FieldPoly(p, 2 * n, {m: c for m, c in out.items() if c})


def product_matrix(P: FieldPoly, A: PointSet) -> list[list[int]]:
    """|A| x |A| matrix with entry (a, b) = P(-a-b mod p), rows and columns
    both in the canonical base-p order of A."""
    if A.p != P.p or A.n != P.n:
        raise ValueError("point set does not match the polynomial")
    p = P.p
    vecs = A.vectors()
    out = []
    for va in vecs:
        row = []
        for vb in vecs:
            point = tuple((-x - y) % p for x, y in zip(va, vb))
            row.append(eval_poly(P, point))
        out.append(row)
    return out


def support_size(P: FieldPoly) -> int:
    """Number of points of F_p^n where P is nonzero."""
    return sum(1 for vec in product(range(P.p), repeat=P.n)
               if eval_poly(P, vec) != 0)


@dataclass(frozen=True)
class VerifierReport:
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

    @property
    def all_ok(self) -> bool:
        return (self.diagonal_ok and self.rank_ok and self.support_ok
                and self.bound_ok)


def verify_support_bound(n: int, d: int, A: PointSet, p: int = 3) -> VerifierReport:
    """Replay the rank argument on a concrete progression-free set A.

    For a basis of the space V of degree-<=d polynomials vanishing off A,
    checks that every basis element yields (1) a diagonal pair matrix,
    (2) of rank at most 2*|M(n, floor(d/2))|, (3) a support of at most
    that same cap, and (4) that dim V >= |M(n,d)| - (3^n - |A|).
    """
    if p != 3:
        raise ValueError("verification is specific to p=3")
    if A.p != 3 or A.n != n:
        raise ValueError("point set does not match (n, p)")
    if not is_progression_free(A):
        raise ValueError("the point set is not progression-free")

    basis = vanishing_space_basis(n, d, A.complement(), p=3)
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
        M = product_matrix(P, A)
        if any(M[i][j] for i in range(len(M)) for j in range(len(M)) if i != j):
            diagonal_ok = False
        r = rank_mod_p(M, 3)
        max_rank = max(max_rank, r)
        if r > support_cap:
            rank_ok = False
        s = support_size(P)
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
    )
