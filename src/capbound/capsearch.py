"""Exact maximum progression-free subsets of F_3^n by branch and bound.

Points of F_p^n are encoded as base-p integers, first coordinate most
significant, so numeric order on indices equals lexicographic order on
vectors; PointSet holds a subset in that encoding for any prime p, and
the search works in its p = 3 case.  The search is a depth-first branch
and bound over points in that canonical order.  Affine symmetry
(translations plus invertible linear maps, both preserving a + b + c = 0)
is quotiented out by a coordinate-opening normalization: the first point
is 0, and whenever the walk first leaves the span of the coordinates used
so far, the new point is the next unit vector.  The pruning bound
combines the remaining candidate count, caps per hyperplane slice, and
caps on the not-yet-opened coordinate shells, all grounded in the
exhaustively proven lower-dimensional maxima.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def encode_point(coords: tuple[int, ...] | list[int], p: int = 3) -> int:
    """Base-p index of a coordinate vector, first coordinate most significant."""
    value = 0
    for c in coords:
        if not 0 <= c < p:
            raise ValueError(f"coordinate {c} outside F_{p}")
        value = value * p + c
    return value


def decode_point(index: int, n: int, p: int = 3) -> tuple[int, ...]:
    coords = [0] * n
    for i in range(n - 1, -1, -1):
        index, coords[i] = divmod(index, p)
    return tuple(coords)


@dataclass(frozen=True)
class PointSet:
    """A duplicate-free subset of F_p^n, stored as sorted base-p indices."""

    p: int
    n: int
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        size = self.p**self.n
        if any(not 0 <= x < size for x in self.points):
            raise ValueError(f"point index outside [0, {self.p}^{self.n})")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @classmethod
    def from_vectors(cls, vectors, p: int) -> "PointSet":
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot infer dimension from an empty vector list")
        n = len(vectors[0])
        return cls(p, n, tuple(encode_point(v, p) for v in vectors))

    @property
    def size(self) -> int:
        return len(self.points)

    def vectors(self) -> list[tuple[int, ...]]:
        return [decode_point(x, self.n, self.p) for x in self.points]

    def complement(self) -> "PointSet":
        members = set(self.points)
        rest = tuple(x for x in range(self.p**self.n) if x not in members)
        return PointSet(self.p, self.n, rest)


@dataclass(frozen=True)
class SearchResult:
    n: int
    max_size: int
    witness: PointSet
    nodes_explored: int
    proven_optimal: bool
    fixed_prefix: tuple[int, ...]


def complete_triple(a: int, b: int, n: int) -> int:
    """The unique c with a + b + c = 0 coordinatewise mod 3, on encoded points."""
    c = 0
    mul = 1
    for _ in range(n):
        c += (-(a % 3 + b % 3)) % 3 * mul
        a //= 3
        b //= 3
        mul *= 3
    return c


def is_progression_free(A: PointSet) -> bool:
    """True iff no three pairwise-distinct members of A sum to zero (p = 3).

    In F_3, a + a + c = 0 forces c = -2a = a, so the point completing a
    pair of distinct members is automatically distinct from both; checking
    every unordered pair against membership is therefore exhaustive.
    """
    if A.p != 3:
        raise ValueError(
            f"progression-freeness is checked over F_3, not F_{A.p}")
    pts = A.points
    members = set(pts)
    n = A.n
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if complete_triple(pts[i], pts[j], n) in members:
                return False
    return True


def _third_table(n: int) -> list[list[int]]:
    size = 3**n
    tbl = [[0] * size for _ in range(size)]
    for a in range(size):
        row = tbl[a]
        for b in range(a, size):
            c = complete_triple(a, b, n)
            row[b] = c
            tbl[b][a] = c
    return tbl


class _BudgetExhausted(Exception):
    pass


class _Shared:
    """Tables and best-so-far state of one search."""

    def __init__(self, n: int):
        size = 3**n
        self.n = n
        self.table = _third_table(n)
        self.bit = [1 << i for i in range(size)]
        self.notbit = [~b for b in self.bit]
        self.digits = [decode_point(x, n) for x in range(size)]
        self.pow3 = [3**k for k in range(n + 1)]
        # Points strictly between the unit vector 3^k and the end of the
        # (k+1)-coordinate span: the fresh candidates when a coordinate opens.
        self.opening_mask = [
            ((1 << self.pow3[k + 1]) - 1) & ~((1 << (self.pow3[k] + 1)) - 1)
            for k in range(n)
        ]
        # Slice pruning: a progression-free set meets each hyperplane
        # {x_j = v} in a progression-free subset of F_3^(n-1), so each of
        # the 3n coordinate slices contributes at most the (n-1)-dimensional
        # maximum, which the search itself establishes one level down.
        # Likewise each shell U_{j+1} minus U_j is two parallel copies of
        # F_3^j, capping what the not-yet-opened coordinates can ever add.
        self.slice_cap = 1 if n == 1 else _proven_max(n - 1)
        shell = [2 * _proven_max(j) for j in range(n)]
        self.future = [sum(shell[k:]) for k in range(n + 1)]
        self.slice_mask = [[0] * 3 for _ in range(n)]
        for x in range(size):
            for j, v in enumerate(self.digits[x]):
                self.slice_mask[j][v] |= self.bit[x]
        self.best_size = 0
        self.best: tuple[int, ...] = ()

    def record(self, chosen: list[int]) -> None:
        self.best_size = len(chosen)
        self.best = tuple(chosen)


class _Walker:
    """The depth-first walk; owns the node counter and the budget.

    A node is (chosen, cands, k): every chosen point lies in U_k, the span
    of the last k coordinates, and cands holds the still-eligible points
    of U_k above the last choice.  Points outside U_k need no tracking:
    completions of pairs inside U_k stay inside U_k, so nothing out there
    is ever excluded, and the pointwise stabilizer of U_k permutes it
    transitively.  Opening coordinate k+1 therefore branches exactly once,
    on the unit vector 3^k.
    """

    def __init__(self, shared: _Shared, node_budget: int | None):
        self.shared = shared
        self.node_budget = node_budget
        self.nodes = 0
        self.counts = [[0] * 3 for _ in range(shared.n)]

    def dfs(self, chosen: list[int], cands: int, k: int) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _BudgetExhausted
        shared = self.shared
        if len(chosen) > shared.best_size:
            shared.record(chosen)
        depth = len(chosen)
        best = shared.best_size
        n = shared.n
        future = shared.future[k]
        if depth + cands.bit_count() + future <= best:
            return
        if k == n:
            # Slice prune: per direction, the final size cannot beat the
            # sum over values of min(slice_cap, already chosen + available).
            cap = shared.slice_cap
            counts = self.counts
            for j in range(n):
                masks = shared.slice_mask[j]
                cj = counts[j]
                bound = 0
                for v in range(3):
                    reach = cj[v] + (cands & masks[v]).bit_count()
                    bound += cap if reach > cap else reach
                if bound <= best:
                    return
        table = shared.table
        notbit = shared.notbit
        digits = shared.digits
        counts = self.counts
        while cands:
            if depth + cands.bit_count() + future <= shared.best_size:
                return
            low = cands & -cands
            x = low.bit_length() - 1
            cands ^= low
            # Each pair (a, x) with a already chosen excludes the point
            # completing it to a zero-sum triple.
            narrowed = cands
            row = table[x]
            for a in chosen:
                narrowed &= notbit[row[a]]
            chosen.append(x)
            dx = digits[x]
            for j, v in enumerate(dx):
                counts[j][v] += 1
            self.dfs(chosen, narrowed, k)
            for j, v in enumerate(dx):
                counts[j][v] -= 1
            chosen.pop()
        if k < n:
            x = shared.pow3[k]
            narrowed = shared.opening_mask[k]
            row = table[x]
            for a in chosen:
                narrowed &= notbit[row[a]]
            chosen.append(x)
            dx = digits[x]
            for j, v in enumerate(dx):
                counts[j][v] += 1
            self.dfs(chosen, narrowed, k + 1)
            for j, v in enumerate(dx):
                counts[j][v] -= 1
            chosen.pop()


@lru_cache(maxsize=None)
def _proven_max(n: int) -> int:
    """Maximum capset size of F_3^n, established by this module's own
    exhaustive search (F_3^0 is a single point)."""
    return 1 if n == 0 else max_capset(n).max_size


def max_capset(n: int, node_budget: int | None = None) -> SearchResult:
    """Exhaustive search for a maximum progression-free subset of F_3^n.

    Translation puts 0 in some maximum set, and the coordinate-opening
    normalization (see _Walker) handles the rest of the affine symmetry,
    so the walk starts from chosen = [0] with no coordinate opened.  The
    witness is the lexicographically least maximum set: the normalized
    escapes are exactly the lex-minimal choices, the DFS runs in canonical
    order, subtrees containing a strictly larger set are never pruned, and
    only a strictly larger set replaces the recorded one.  When
    node_budget triggers, max_size is a valid lower bound and
    proven_optimal is False.

    The slice cap of F_3^n needs the proven maximum of F_3^(n-1), so n = 5
    rests on the n = 4 proof (about a minute) and then runs without end
    unless budgeted; n >= 6 would need the unbudgeted n = 5 maximum.
    Unbudgeted n = 5 and every n >= 6 are refused before any table is
    built.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n >= 6:
        raise ValueError(
            f"search at n={n} is out of reach: its slice cap needs the "
            f"proven n={n - 1} maximum, and no search here proves n >= 5")
    if n == 5 and node_budget is None:
        raise ValueError(
            "search at n=5 needs a node budget: the exhaustive walk does "
            "not finish in practical time, so only a budgeted lower bound "
            "is available")
    shared = _Shared(n)
    shared.record([0])
    walker = _Walker(shared, node_budget)
    for counts in walker.counts:
        counts[0] = 1  # the root point 0 has every coordinate 0
    exhausted = False
    try:
        walker.dfs([0], 0, 0)
    except _BudgetExhausted:
        exhausted = True
    return SearchResult(
        n=n,
        max_size=shared.best_size,
        witness=PointSet(3, n, shared.best),
        nodes_explored=walker.nodes,
        proven_optimal=not exhausted,
        fixed_prefix=(0, 1) if n == 1 else (0, 1, 3),
    )
