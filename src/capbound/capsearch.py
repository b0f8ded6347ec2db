"""Exact maximum progression-free subsets of F_3^n by branch and bound.

Points of F_3^n are encoded as base-3 integers, first coordinate most
significant, so numeric order on indices equals lexicographic order on
vectors; PointSet holds a subset in that encoding.  The search is a
depth-first branch and bound over points in that canonical order.
Affine symmetry (translations plus invertible linear maps, both
preserving a + b + c = 0) is quotiented out by a coordinate-opening
normalization: the first point is 0, and whenever the walk first leaves
the span of the coordinates used so far, the new point is the next unit
vector.  The cardinality bound prunes the walk: chosen points, remaining
candidates, and caps on the not-yet-opened coordinate shells, each shell
capped by the exhaustively proven lower-dimensional maxima.

A proof has two phases.  The find walk meets the lex-least maximum set
early (node 1,552 at n = 4); each time it records a larger set, of size
b, a refutation is asked whether b + 1 points are impossible, and the
walk stops once they are proven so.  The refutation first counts pairs:
every m-point set satisfies
sum_u sum_v C(|A & H_uv|, 2) = C(m, 2) (3^(n-1) - 1)/2 over the three
parallel slices H_uv = {x : u.x = v} of each hyperplane direction u,
which forces some slice to hold at least s points (_forced_slice).  Each
slice is an affine F_3^(n-1), so it holds at most the (n-1) maximum:
either no s fits (m = 5 at n = 2, m = 10 at n = 3), or s is below that
cap and nothing is decided, or s is the cap, as for m = 21 at n = 4:
then some slice is a maximum cap of F_3^(n-1).  Up to affine maps that
slice is x_1 = 0, the cap is one representative per affine class
(collected by the (n-1) walk and merged by orbits, _full_cap_classes)
and the set holds e_1 = (1, 0, ..., 0), so one extension walk per
representative (_Extend) settles m.  This is how Edel, Ferret, Landjev
and Storme (2002) and Potechin (2008) classified large caps.  n = 4 is
proven in 7,959 nodes (1,552 find, 174 collecting the 18 normalized
9-caps of F_3^3, one class, and 6,233 extending it), about 0.1 s on a
2-core VM with Python 3.11; the find walk run out takes 6,008,923 nodes
and about 15 s.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache


def encode_point(coords: tuple[int, ...] | list[int]) -> int:
    """Base-3 index of a coordinate vector, first coordinate most significant."""
    value = 0
    for c in coords:
        if not 0 <= c < 3:
            raise ValueError(f"coordinate {c} outside F_3")
        value = value * 3 + c
    return value


def decode_point(index: int, n: int) -> tuple[int, ...]:
    coords = [0] * n
    for i in range(n - 1, -1, -1):
        index, coords[i] = divmod(index, 3)
    return tuple(coords)


@dataclass(frozen=True)
class PointSet:
    """A duplicate-free subset of F_3^n, stored as sorted base-3 indices."""

    n: int
    points: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 3**self.n
        if any(not 0 <= x < size for x in self.points):
            raise ValueError(f"point index outside [0, 3^{self.n})")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points")
        object.__setattr__(self, "points", tuple(sorted(self.points)))

    @classmethod
    def from_vectors(cls, vectors) -> "PointSet":
        vectors = list(vectors)
        if not vectors:
            raise ValueError("cannot infer dimension from an empty vector list")
        n = len(vectors[0])
        return cls(n, tuple(encode_point(v) for v in vectors))

    @property
    def size(self) -> int:
        return len(self.points)

    def vectors(self) -> list[tuple[int, ...]]:
        return [decode_point(x, self.n) for x in self.points]

    def complement(self) -> "PointSet":
        members = set(self.points)
        rest = tuple(x for x in range(3**self.n) if x not in members)
        return PointSet(self.n, rest)


@dataclass(frozen=True)
class SearchResult:
    n: int
    max_size: int
    witness: PointSet
    nodes_explored: int
    prunes: dict[str, int]
    proven_optimal: bool
    fixed_prefix: tuple[int, ...]
    # the cost of the call (see max_capset); no part of comparisons
    timings_ms: dict[str, float] = field(default_factory=dict, compare=False)
    counters: dict[str, int | None] = field(default_factory=dict,
                                            compare=False)


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
    """True iff no three pairwise-distinct members of A sum to zero.

    In F_3, a + a + c = 0 forces c = -2a = a, so the point completing a
    pair of distinct members is automatically distinct from both; checking
    every unordered pair against membership is therefore exhaustive.
    """
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


class _Stop(Exception):
    """Ends a walk early once it has what it was started for."""


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


class _Tables:
    """The per-n tables every walk of F_3^n reads."""

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
        # A progression-free set meets each hyperplane {x : u.x = v} in a
        # progression-free subset of an affine F_3^(n-1), so the
        # refutation caps a slice at the (n-1)-dimensional maximum, which
        # the search itself establishes one level down.  Likewise each
        # shell U_{j+1} minus U_j is two parallel copies of F_3^j, which
        # caps what the not-yet-opened coordinates can ever add.
        self.slice_cap = _proven_max(n - 1)
        shell = [2 * _proven_max(j) for j in range(n)]
        self.future = [sum(shell[k:]) for k in range(n + 1)]


def _points(mask: int) -> tuple[int, ...]:
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)



class _Walker:
    """The depth-first walk; owns the best size, the node and prune
    counters and the budget.  Subclasses say what `record` does with each
    set larger than the best size.

    A node is (mask, neg, cands, k): mask holds the chosen points and neg
    their negatives, every chosen point lies in U_k, the span of the last
    k coordinates, and cands holds the still-eligible points of U_k above
    the last choice.  Points outside U_k need no tracking: completions of
    pairs inside U_k stay inside U_k, so nothing out there is ever
    excluded, and the pointwise stabilizer of U_k permutes it
    transitively.  Opening coordinate k+1 therefore branches exactly once,
    on the unit vector 3^k.  Every subtree the bounds cut holds no set
    larger than the best size, so the walk meets every larger set that
    the normalization reaches.
    """

    def __init__(self, tables: _Tables, best_size: int,
                 node_budget: int | None):
        self.tables = tables
        self.best_size = best_size
        self.node_budget = node_budget
        self.nodes = 0
        self.prunes = {"cardinality": 0}

    def record(self, mask: int) -> None:
        raise NotImplementedError

    def dfs(self, mask: int, neg: int, cands: int, k: int) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise _BudgetExhausted
        tables = self.tables
        prunes = self.prunes
        depth = mask.bit_count()
        if depth > self.best_size:
            self.record(mask)
        n = tables.n
        future = tables.future[k]
        if depth + cands.bit_count() + future <= self.best_size:
            prunes["cardinality"] += 1
            return
        moves = tables.moves
        neg_bit = tables.neg_bit
        while cands:
            if depth + cands.bit_count() + future <= self.best_size:
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
            if k == n and depth + 1 + narrowed.bit_count() <= self.best_size:
                # With every coordinate open, no shell can add to the child,
                # so its cardinality bound is known before it is entered.
                prunes["cardinality"] += 1
                continue
            self.dfs(mask | low, neg | neg_bit[x], narrowed, k)
        if k < n:
            x = tables.pow3[k]
            excluded = neg
            for lifted, up, dropped, down in moves[x]:
                excluded = ((excluded & lifted) << up
                            | (excluded & dropped) >> down)
            self.dfs(mask | tables.bit[x], neg | neg_bit[x],
                     tables.opening_mask[k] & ~excluded, k + 1)


class _Collect(_Walker):
    """Keeps every set it meets of size best_size + 1; started with the
    best size pinned one below the proven maximum, it meets every
    normalized maximum cap."""

    def __init__(self, tables: _Tables, best_size: int):
        super().__init__(tables, best_size, None)
        self.found: list[tuple[int, ...]] = []

    def record(self, mask: int) -> None:
        self.found.append(_points(mask))


class _Extend(_Walker):
    """The walk for an m-point cap of F_3^n holding rep, a cap of
    F_3^(n-1) placed at x_1 = 0, and the point e_1 = (1, 0, ..., 0).

    Every other candidate lies in the slices x_1 = 1 and x_1 = 2, above
    e_1, the least point of x_1 = 1, so the walk starts with every
    coordinate open and e_1 as its last choice.  It stops at the first
    m-point set and keeps it in `found`.
    """

    def __init__(self, tables: _Tables, rep: tuple[int, ...], m: int,
                 node_budget: int | None):
        super().__init__(tables, m - 1, node_budget)
        self.rep = rep
        self.found: tuple[int, ...] | None = None

    def record(self, mask: int) -> None:
        self.found = _points(mask)
        raise _Stop

    def run(self) -> tuple[int, ...] | None:
        tables = self.tables
        e1 = tables.pow3[tables.n - 1]
        neg = 0
        for x in self.rep:
            neg |= tables.neg_bit[x]
        excluded = neg
        for lifted, up, dropped, down in tables.moves[e1]:
            excluded = (excluded & lifted) << up | (excluded & dropped) >> down
        mask = sum(tables.bit[x] for x in self.rep) | tables.bit[e1]
        above = ((1 << 3**tables.n) - 1) & ~((tables.bit[e1] << 1) - 1)
        try:
            self.dfs(mask, neg | tables.neg_bit[e1], above & ~excluded,
                     tables.n)
        except _Stop:
            pass
        return self.found


class _Find(_Walker):
    """Records each larger set as the best and asks `refute` whether one
    point more is impossible; stops the walk once it is."""

    def __init__(self, tables: _Tables, node_budget: int | None, refute):
        super().__init__(tables, 1, node_budget)
        self.best: tuple[int, ...] = (0,)
        self.refute = refute

    def record(self, mask: int) -> None:
        self.best_size = mask.bit_count()
        self.best = _points(mask)
        if self.refute(self.best_size + 1):
            raise _Stop


def _forced_slice(n: int, m: int, cap: int) -> int | None:
    """The least s <= cap that the pair-count identity allows as the
    largest slice of an m-point set in F_3^n, or None if none does.

    Two distinct points x, y share a slice of direction u exactly when
    u.(x - y) = 0, which holds for (3^(n-1) - 1)/2 of the (3^n - 1)/2
    directions, so summing C(|A & slice|, 2) over all slices of all
    directions gives C(m, 2) (3^(n-1) - 1)/2 for every m-point set A.  If
    no slice holds more than s points, a direction's three slice sizes
    add up to m with none above s, and its term is at most that of the
    greedy split (s, ..., s, remainder), which majorizes every other one.
    Since that maximum grows with s, the least s reaching the average
    over the directions is a lower bound on the largest slice.
    """
    directions = (3**n - 1) // 2
    pairs = m * (m - 1) // 2 * ((3**(n - 1) - 1) // 2)
    for s in range(max(1, -(-m // 3)), min(cap, m) + 1):
        full, rest = divmod(m, s)
        if directions * (full * s * (s - 1) + rest * (rest - 1)) // 2 >= pairs:
            return s
    return None


def _affine_generators(n: int) -> list[list[int]]:
    """Point permutations generating the affine group of F_3^n: the
    translation by e_1, x_1 -> 2 x_1, the swaps of adjacent coordinates
    and the transvection x_1 -> x_1 + x_2.  Conjugating the one
    translation and the one transvection by the linear maps gives every
    translation and every elementary transvection, which with the
    scaling generate GL(n, 3)."""
    maps = [lambda v: ((v[0] + 1) % 3,) + v[1:],
            lambda v: (2 * v[0] % 3,) + v[1:]]
    maps += [lambda v, i=i: v[:i] + (v[i + 1], v[i]) + v[i + 2:]
             for i in range(n - 1)]
    if n >= 2:
        maps.append(lambda v: ((v[0] + v[1]) % 3,) + v[1:])
    points = [decode_point(x, n) for x in range(3**n)]
    return [[encode_point(f(v)) for v in points] for f in maps]


def _orbit(points: tuple[int, ...], generators: list[list[int]]) -> set[int]:
    """The point masks of every image of a set under the generated group."""
    start = sum(1 << x for x in points)
    orbit = {start}
    frontier = [start]
    while frontier:
        members = _points(frontier.pop())
        for g in generators:
            image = sum(1 << g[x] for x in members)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def _normalized_full_caps(n: int) -> _Collect:
    """The collect walk over F_3^n: every maximum cap in the walk's
    normalized form, which every affine class has a member in."""
    walker = _Collect(_Tables(n), _proven_max(n) - 1)
    walker.dfs(1, 1, 0, 0)
    return walker


@dataclass(frozen=True)
class _FullCapClasses:
    """One maximum cap of F_3^n per affine class, and the collect walk's
    node and prune counts."""

    reps: tuple[tuple[int, ...], ...]
    nodes: int
    prunes: tuple[tuple[str, int], ...]


@lru_cache(maxsize=None)
def _full_cap_classes(n: int) -> _FullCapClasses:
    """The maximum caps of F_3^n up to affine equivalence: the collected
    normalized caps, each kept unless the orbit of an earlier one holds
    it.  F_3^0 is a single point."""
    if n == 0:
        return _FullCapClasses(((0,),), 0, (("cardinality", 0),))
    walker = _normalized_full_caps(n)
    generators = _affine_generators(n)
    covered: set[int] = set()
    reps = []
    for points in walker.found:
        if sum(1 << x for x in points) not in covered:
            reps.append(points)
            covered |= _orbit(points, generators)
    return _FullCapClasses(tuple(reps), walker.nodes,
                           tuple(walker.prunes.items()))


class _Proof:
    """One max_capset call: the find walk, the refutations it asks for,
    and their cost (stage times, counters, node and prune totals)."""

    def __init__(self, n: int, node_budget: int | None):
        self.n = n
        self.timings = dict.fromkeys(
            ("tables", "find", "identity", "classes", "refute"), 0.0)
        self.counters: dict[str, int | None] = {
            "find_nodes": 0, "collect_nodes": 0, "refute_nodes": 0,
            "full_cap_classes": 0, "forced_slice": None, "refuted_size": None}
        self.prunes = {"cardinality": 0}
        self.classes: _FullCapClasses | None = None
        started = time.perf_counter()
        self.tables = _Tables(n)
        self.timings["tables"] = time.perf_counter() - started
        self.find = _Find(self.tables, node_budget, self.refute)

    def _remaining(self) -> int | None:
        budget = self.find.node_budget
        return None if budget is None else budget - self.find.nodes

    def _charge(self, phase: str, nodes: int, prunes) -> None:
        """Adds a walk's cost to the totals; the find walk's budget is
        what the other walks leave of node_budget."""
        self.counters[phase] += nodes
        for rule, count in prunes:
            self.prunes[rule] += count
        if phase != "find_nodes" and self.find.node_budget is not None:
            self.find.node_budget -= nodes

    def _full_caps(self) -> _FullCapClasses:
        if self.classes is None:
            started = time.perf_counter()
            self.classes = _full_cap_classes(self.n - 1)
            self.timings["classes"] += time.perf_counter() - started
            self._charge("collect_nodes", self.classes.nodes,
                         self.classes.prunes)
            self.counters["full_cap_classes"] = len(self.classes.reps)
            remaining = self._remaining()
            if remaining is not None and remaining < 0:
                raise _BudgetExhausted
        return self.classes

    def refute(self, m: int) -> bool:
        """True once it has proven that no m-point cap of F_3^n exists.

        Step 1: with every slice capped at the proven (n-1) maximum,
        `_forced_slice` either rules m out or says how large the largest
        slice must be.  If that is below the cap, nothing is decided.
        Step 2: if it is the cap, some slice is a maximum cap of
        F_3^(n-1).  An affine map sends that slice to x_1 = 0 and, acting
        on the last n-1 coordinates, the cap to its class representative.
        x_1 -> -x_1 and the shear x -> x - x_1 p' (which fix x_1 = 0
        pointwise) then send some point p = (1, p') or (2, p') of the set
        to e_1.  So an m-point cap exists only if some representative
        extends through e_1, and `_Extend` tries each one.
        """
        started = time.perf_counter()
        cap = self.tables.slice_cap
        s = _forced_slice(self.n, m, cap)
        self.timings["identity"] += time.perf_counter() - started
        self.counters["forced_slice"] = s
        if s is not None and s < cap:
            return False
        if s == cap:
            for rep in self._full_caps().reps:
                walker = _Extend(self.tables, rep, m, self._remaining())
                started = time.perf_counter()
                try:
                    found = walker.run()
                finally:
                    self.timings["refute"] += time.perf_counter() - started
                    self._charge("refute_nodes", walker.nodes,
                                 walker.prunes.items())
                if found is not None:
                    return False
        self.counters["refuted_size"] = m
        return True

    def run(self) -> SearchResult:
        find = self.find
        proven = True
        started = time.perf_counter()
        try:
            find.dfs(1, 1, 0, 0)
        except _Stop:
            pass
        except _BudgetExhausted:
            proven = False
        timings = self.timings
        timings["find"] = (time.perf_counter() - started - timings["identity"]
                           - timings["classes"] - timings["refute"])
        self._charge("find_nodes", find.nodes, find.prunes.items())
        c = self.counters
        return SearchResult(
            n=self.n,
            max_size=find.best_size,
            witness=PointSet(self.n, find.best),
            nodes_explored=(c["find_nodes"] + c["collect_nodes"]
                            + c["refute_nodes"]),
            prunes=dict(self.prunes),
            proven_optimal=proven,
            fixed_prefix=(0, 1) if self.n == 1 else (0, 1, 3),
            timings_ms={k: round(v * 1000, 3) for k, v in timings.items()},
            counters=dict(c),
        )


@lru_cache(maxsize=None)
def _proven_max(n: int) -> int:
    """Maximum capset size of F_3^n, established by this module's own
    exhaustive search (F_3^0 is a single point)."""
    return 1 if n == 0 else max_capset(n).max_size


def max_capset(n: int, node_budget: int | None = None) -> SearchResult:
    """Exhaustive search for a maximum progression-free subset of F_3^n.

    Find: translation puts 0 in some maximum set, and the
    coordinate-opening normalization (see _Walker) handles the rest of
    the affine symmetry, so the walk starts from the point 0 with no
    coordinate opened.  Each time it records a larger set, of size b, it
    asks the refutation (see _Proof.refute) whether b + 1 points are
    impossible, and it stops as soon as they are proven so; a walk that
    runs out is a proof as well.  The witness is the lexicographically
    least maximum set: the normalized escapes are exactly the
    lex-minimal choices, the walk runs in canonical order, up to the
    stop it never cuts a subtree holding a set larger than its best,
    and only a strictly larger set replaces the recorded one.

    nodes_explored counts the nodes of every walk the call makes: find,
    the collect walk that classifies the maximum caps of F_3^(n-1)
    (counted at its full cost even when its result is cached from an
    earlier call) and the extension walks.  The search stops once that
    count passes node_budget; max_size is then a valid lower bound and
    proven_optimal is False.  A node_budget below 1 is refused: not even
    the root node would be searched.

    The slice cap of F_3^n needs the proven maximum of F_3^(n-1), so n = 5
    rests on the n = 4 proof and then runs without end unless budgeted;
    n >= 6 would need the unbudgeted n = 5 maximum.  Unbudgeted n = 5 and
    every n >= 6 are refused before any table is built.

    `prunes` counts the cuts of the bound over all walks, the same on
    every run: "cardinality" (candidate count plus shell caps; one per
    node, remaining run of siblings or child it cuts).  `counters` splits
    the nodes by walk (find_nodes, collect_nodes, refute_nodes) and gives
    full_cap_classes (affine classes of maximum caps of F_3^(n-1) tried,
    0 if none were needed), forced_slice (the least largest slice the
    pair-count identity allows for the last size asked about; None when
    none up to the cap does) and refuted_size (the size proven
    impossible, None if none was).
    `timings_ms` gives the wall time of each stage: tables, find (less
    the stages it calls), identity, classes and refute.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    if n >= 6:
        raise ValueError(
            f"search at n={n} is out of reach: its slice cap needs the "
            f"proven n={n - 1} maximum, and no search here proves n >= 5")
    if n == 5 and node_budget is None:
        raise ValueError(
            "search at n=5 needs a node budget: the exhaustive walk does "
            "not finish in practical time, so only a budgeted lower bound "
            "is available")
    return _Proof(n, node_budget).run()
