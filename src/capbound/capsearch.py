"""Exact maximum progression-free subsets of F_3^n by branch and bound.

Points of F_p^n are encoded as base-p integers, first coordinate most
significant, so numeric order on indices equals lexicographic order on
vectors; PointSet holds a subset in that encoding for any prime p, and
the search works in its p = 3 case.  The search is a depth-first branch
and bound over points in that canonical order.  Affine symmetry
(translations plus invertible linear maps, both preserving a + b + c = 0)
is quotiented out by a coordinate-opening normalization: the first point
is 0, and whenever the walk first leaves the span of the coordinates used
so far, the new point is the next unit vector.  Two bounds prune the
walk, both grounded in the exhaustively proven lower-dimensional maxima:
the cardinality bound (chosen points, remaining candidates, and caps on
the not-yet-opened coordinate shells) and, once every coordinate is open,
the slice bound.  The slice bound runs over all (3^n - 1)/2 hyperplane
directions: each of the three parallel slices {x : u.x = v} is an affine
F_3^(n-1) and holds at most its proven maximum, so a child whose reach
gives some direction a capped slice sum no larger than the best set so
far is skipped before it is entered.  With it n = 4 is proven in 626,734
nodes (about 14 s on a 2-core VM, Python 3.11) where the coordinate
slices alone needed 11,295,933 (about 50 s).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import getitem


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
    prunes: dict[str, int]
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


class _BudgetExhausted(Exception):
    pass


def _hyperplane_masks(n: int) -> list[tuple[int, int, int]]:
    """Per hyperplane direction, the bitmasks of its three parallel slices.

    The directions are the u in F_3^n whose first nonzero entry is 1, one
    for each pair {u, -u}, (3^n - 1)/2 in all; slice v of u is
    {x : u.x = v}, an affine copy of F_3^(n-1).
    """
    points = [decode_point(x, n) for x in range(3**n)]
    result = []
    for u in points[1:]:
        if next(c for c in u if c) != 1:
            continue
        masks = [0, 0, 0]
        for x, coords in enumerate(points):
            masks[sum(a * b for a, b in zip(u, coords)) % 3] |= 1 << x
        result.append(tuple(masks))
    return result


class _PackedSlices:
    """The slice counts of a point set over every direction, in one int.

    With D directions and fields of w bits, |S & slice v of direction u|
    sits in the field at bit (v * D + u) * w, so slice v of all directions
    forms one plane of D fields.  A count is the sum of per-byte tables
    over the bytes of the point mask.  Every count and every bound stays
    below 2^(w-1), the top bit of its field, so the arithmetic on whole
    planes never carries from one field into the next.
    """

    def __init__(self, slices: list[tuple[int, int, int]], n: int, cap: int):
        directions = len(slices)
        w = max(3**(n - 1), 3 * cap).bit_length() + 1
        half = 1 << (w - 1)
        self.field_bits = w
        self.top_shift = w - 1
        self.plane_bits = directions * w
        ones = sum(1 << (u * w) for u in range(directions))
        ones3 = ones * (1 + (1 << self.plane_bits)
                        + (1 << 2 * self.plane_bits))
        self.plane = ones * ((1 << w) - 1)
        self.plane_tops = ones * half
        self.tops = ones3 * half
        self.caps = ones3 * cap
        # count + over_cap has its top bit set exactly when count > cap
        self.over_cap = ones3 * (half - 1 - cap)
        # bound + at_most[b] has its top bit clear exactly when bound <= b;
        # no cap set, so no best, exceeds 3 * cap
        self.at_most = [ones * (half - 1 - b) for b in range(3 * cap + 1)]
        nbytes = (3**n + 7) // 8
        point = [0] * (8 * nbytes)
        for u, masks in enumerate(slices):
            for v, mask in enumerate(masks):
                field = 1 << ((v * directions + u) * w)
                for x in range(3**n):
                    if mask >> x & 1:
                        point[x] += field
        self.byte_counts = []
        for base in range(0, 8 * nbytes, 8):
            table = [0] * 256
            for byte in range(1, 256):
                low = (byte & -byte).bit_length() - 1
                table[byte] = table[byte & (byte - 1)] + point[base + low]
            self.byte_counts.append(table)

    def cutting_direction(self, reach: int, best: int) -> int:
        """Index of a direction whose slice bound on `reach` is <= best, or -1.

        The bound of direction u is the sum over v of
        min(cap, |reach & slice v|), all evaluated at once in the fields.
        """
        counts = sum(map(getitem, self.byte_counts,
                         reach.to_bytes(len(self.byte_counts), "little")))
        over = (counts + self.over_cap) & self.tops
        excess = over - (over >> self.top_shift)
        counts = (counts & ~excess) | (self.caps & excess)
        plane, width = self.plane, self.plane_bits
        bounds = ((counts & plane) + ((counts >> width) & plane)
                  + (counts >> 2 * width))
        cut = self.plane_tops & ~(bounds + self.at_most[best])
        if not cut:
            return -1
        return ((cut & -cut).bit_length() - 1) // self.field_bits


def _completion_moves(n: int) -> list[tuple[tuple[int, int, int, int], ...]]:
    """Per point x, the digit moves that translate a point mask by -x.

    The point completing (x, a) to a zero-sum triple is -x - a, so the
    points a chosen set C excludes once x joins it are -C translated by
    -x.  Adding s to the digit of weight w = 3^j lifts the points whose
    digit is below 3 - s by s*w and drops the rest by (3 - s)*w; a move
    is (lifted mask, s*w, dropped mask, (3 - s)*w).
    """
    size = 3**n
    everything = (1 << size) - 1
    moves = []
    for x in range(size):
        steps = []
        for j, digit in enumerate(reversed(decode_point(x, n))):
            s = -digit % 3
            if s:
                w = 3**j
                lifted = sum(1 << y for y in range(size) if y // w % 3 < 3 - s)
                steps.append((lifted, s * w, everything ^ lifted, (3 - s) * w))
        moves.append(tuple(steps))
    return moves


class _Shared:
    """Tables and best-so-far state of one search."""

    def __init__(self, n: int):
        size = 3**n
        self.n = n
        self.bit = [1 << i for i in range(size)]
        self.neg_bit = [1 << encode_point([-c % 3 for c in decode_point(x, n)])
                        for x in range(size)]
        self.moves = _completion_moves(n)
        self.pow3 = [3**k for k in range(n + 1)]
        # Points strictly between the unit vector 3^k and the end of the
        # (k+1)-coordinate span: the fresh candidates when a coordinate opens.
        self.opening_mask = [
            ((1 << self.pow3[k + 1]) - 1) & ~((1 << (self.pow3[k] + 1)) - 1)
            for k in range(n)
        ]
        # Slice pruning: a progression-free set meets each hyperplane
        # {x : u.x = v} in a progression-free subset of an affine
        # F_3^(n-1), so each of the three slices of every direction u
        # contributes at most the (n-1)-dimensional maximum, which the
        # search itself establishes one level down.  Likewise each shell
        # U_{j+1} minus U_j is two parallel copies of F_3^j, capping what
        # the not-yet-opened coordinates can ever add.
        self.slice_cap = _proven_max(n - 1)
        self.slices = _hyperplane_masks(n)
        self.packed = _PackedSlices(self.slices, n, self.slice_cap)
        shell = [2 * _proven_max(j) for j in range(n)]
        self.future = [sum(shell[k:]) for k in range(n + 1)]
        self.best_size = 0
        self.best: tuple[int, ...] = ()

    def record(self, mask: int) -> None:
        self.best_size = mask.bit_count()
        self.best = tuple(x for x in range(len(self.bit)) if mask >> x & 1)


# How many of the latest cutting directions the slice test tries one by one
# before it evaluates all of them in packed form; three ran faster than one
# at n = 4 and n = 5.
_RECENT_CUTS = 3


class _Walker:
    """The depth-first walk; owns the node and prune counters and the budget.

    A node is (mask, neg, cands, k): mask holds the chosen points and neg
    their negatives, every chosen point lies in U_k, the span of the last
    k coordinates, and cands holds the still-eligible points of U_k above
    the last choice.  Points outside U_k need no tracking: completions of
    pairs inside U_k stay inside U_k, so nothing out there is ever
    excluded, and the pointwise stabilizer of U_k permutes it
    transitively.  Opening coordinate k+1 therefore branches exactly once,
    on the unit vector 3^k.
    """

    def __init__(self, shared: _Shared, node_budget: int | None):
        self.shared = shared
        self.node_budget = node_budget
        self.nodes = 0
        self.prunes = {"cardinality": 0, "slice": 0}
        self.recent = [masks[:2] for masks in shared.slices[:_RECENT_CUTS]]

    def sliced_out(self, reach: int, size: int) -> bool:
        """True when some direction caps every set inside `reach` at best.

        A set inside reach meets slice v of direction u in at most
        min(slice_cap, |reach & slice v|) points.  The directions that
        made the latest cuts are tried one by one, most recent first, since
        they tend to cut again; the rest are summed all at once in the
        packed counts.
        """
        shared = self.shared
        cap = shared.slice_cap
        best = shared.best_size
        recent = self.recent
        for i, (m0, m1) in enumerate(recent):
            c0 = (reach & m0).bit_count()
            c1 = (reach & m1).bit_count()
            c2 = size - c0 - c1
            if ((cap if c0 > cap else c0) + (cap if c1 > cap else c1)
                    + (cap if c2 > cap else c2)) <= best:
                if i:
                    recent.insert(0, recent.pop(i))
                return True
        u = shared.packed.cutting_direction(reach, best)
        if u < 0:
            return False
        recent.pop()
        recent.insert(0, shared.slices[u][:2])
        return True

    def dfs(self, mask: int, neg: int, cands: int, k: int) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _BudgetExhausted
        shared = self.shared
        prunes = self.prunes
        depth = mask.bit_count()
        if depth > shared.best_size:
            shared.record(mask)
        n = shared.n
        future = shared.future[k]
        if depth + cands.bit_count() + future <= shared.best_size:
            prunes["cardinality"] += 1
            return
        moves = shared.moves
        neg_bit = shared.neg_bit
        while cands:
            if depth + cands.bit_count() + future <= shared.best_size:
                prunes["cardinality"] += 1
                return
            low = cands & -cands
            x = low.bit_length() - 1
            cands ^= low
            # choosing x excludes -x - a for every chosen a
            excluded = neg
            for lifted, up, dropped, down in moves[x]:
                excluded = ((excluded & lifted) << up
                            | (excluded & dropped) >> down)
            narrowed = cands & ~excluded
            if k == n:
                # With every coordinate open, cands covers all points the
                # child can still add, so its hyperplane slices are exact
                # reach sets: prune the child before entering it.
                size = depth + 1 + narrowed.bit_count()
                if size <= shared.best_size:
                    prunes["cardinality"] += 1
                    continue
                if self.sliced_out(mask | low | narrowed, size):
                    prunes["slice"] += 1
                    continue
            self.dfs(mask | low, neg | neg_bit[x], narrowed, k)
        if k < n:
            x = shared.pow3[k]
            excluded = neg
            for lifted, up, dropped, down in moves[x]:
                excluded = ((excluded & lifted) << up
                            | (excluded & dropped) >> down)
            self.dfs(mask | shared.bit[x], neg | neg_bit[x],
                     shared.opening_mask[k] & ~excluded, k + 1)


@lru_cache(maxsize=None)
def _proven_max(n: int) -> int:
    """Maximum capset size of F_3^n, established by this module's own
    exhaustive search (F_3^0 is a single point)."""
    return 1 if n == 0 else max_capset(n).max_size


def max_capset(n: int, node_budget: int | None = None) -> SearchResult:
    """Exhaustive search for a maximum progression-free subset of F_3^n.

    Translation puts 0 in some maximum set, and the coordinate-opening
    normalization (see _Walker) handles the rest of the affine symmetry,
    so the walk starts from the point 0 with no coordinate opened.  The
    witness is the lexicographically least maximum set: the normalized
    escapes are exactly the lex-minimal choices, the DFS runs in canonical
    order, subtrees containing a strictly larger set are never pruned, and
    only a strictly larger set replaces the recorded one.  When
    node_budget triggers, max_size is a valid lower bound and
    proven_optimal is False.

    The slice cap of F_3^n needs the proven maximum of F_3^(n-1), so n = 5
    rests on the n = 4 proof (about 14 s) and then runs without end
    unless budgeted; n >= 6 would need the unbudgeted n = 5 maximum.
    Unbudgeted n = 5 and every n >= 6 are refused before any table is
    built.

    `prunes` counts the cuts of each bound, the same on every run:
    "cardinality" (candidate count plus shell caps; one per node or
    remaining run of siblings it cuts) and "slice" (one per child it
    skips).
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
    shared.record(1)
    walker = _Walker(shared, node_budget)
    exhausted = False
    try:
        walker.dfs(1, 1, 0, 0)
    except _BudgetExhausted:
        exhausted = True
    return SearchResult(
        n=n,
        max_size=shared.best_size,
        witness=PointSet(3, n, shared.best),
        nodes_explored=walker.nodes,
        prunes=dict(walker.prunes),
        proven_optimal=not exhausted,
        fixed_prefix=(0, 1) if n == 1 else (0, 1, 3),
    )
