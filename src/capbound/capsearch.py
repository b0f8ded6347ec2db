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

A proof has two phases.  The refutation first bounds the maximum from
the top.  It counts pairs: every m-point set satisfies
sum_u sum_v C(|A & H_uv|, 2) = C(m, 2) (3^(n-1) - 1)/2 over the three
parallel slices H_uv = {x : u.x = v} of each hyperplane direction u,
which forces some slice to hold at least s points (_forced_slice).  Each
slice is an affine F_3^(n-1), so it holds at most the (n-1) maximum:
either no s fits (m = 5 at n = 2, m = 10 at n = 3), or s is below that
cap and nothing is decided, or s is the cap, as for m = 21 at n = 4:
then some slice is a maximum cap of F_3^(n-1).  Up to affine maps that
slice is x_1 = 0, the cap is one representative per affine class
and the set holds e_1 = (1, 0, ..., 0), so one extension walk per
representative (_Extend) settles m.  This is how Edel, Ferret, Landjev
and Storme (2002) and Potechin (2008) classified large caps.  The
classes come by the same extension one dimension down, which meets
every class of F_3^k where the identity forces a maximum slice, as it
does for k <= 3 (_forces_full_slice); each cap met is matched against
the representatives so far by an explicit affine certificate, a map
from a representative's frame onto a frame of the cap, in the spirit
of McKay's isomorph-free generation (1998).  The same certificates,
from a representative onto itself, give its affine symmetries (see
the affine module); lifted to F_3^n so that they fix e_1 and the
slice, they let each extension walk branch only on orbit
representatives (McKay's isomorph rejection; see _Walker), and each of
the two slices x_1 = 1, 2 the walk fills is capped at the (n-1)
maximum (see _Extend).  Scanning
upward, the first size m ruled out gives the upper bound U = m - 1
(_Proof.upper_bound).  The find walk then starts at best size
U - 1 and stops at the first U-point set it meets, the lex-least one
(_Proof.find).  n = 4 is proven in 1,334 nodes (46 classifying the
9-caps of F_3^3 into one class after 21 frame tries, 503 extending it
under its 144 symmetries and the slice cap to refute 21 points, instead
of 656 without the cap and 6,233 without either, and 785 finding the
witness), about 9 ms on a 2-core VM with Python 3.11, of which the
refutation takes about 2 ms and the symmetries and their masks about
2 ms; the find walk run out at best size 20 takes 6,007,821 nodes and
about 22 s.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .affine import FramedCap, orbit_group
from .stages import Check, Stages

# Largest node budget a search accepts, so that no budgeted run goes on
# for more than minutes: `search --n 5 --budget 1000000` took 4.7 to 7.3 s
# (six runs, Python 3.11.7, shared 2-core VM), so 10^8 take 8 to 12 minutes.
MAX_BUDGET = 10**8


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

    @cached_property
    def mask(self) -> int:
        """The members as a point mask: bit x is set for point x."""
        return sum(1 << x for x in self.points)

    def vectors(self) -> list[tuple[int, ...]]:
        return [decode_point(x, self.n) for x in self.points]


@dataclass(frozen=True)
class SearchResult:
    """The largest progression-free set a search found in F_3^n, with
    its witness, whether the walk proved it maximum, and the walk's
    node count and prunes (see max_capset)."""
    n: int
    max_size: int
    witness: PointSet
    nodes_explored: int
    prunes: dict[str, int]
    proven_optimal: bool
    # the cost of the call (see max_capset); no part of comparisons
    timings_ms: dict[str, float] = field(default_factory=dict, compare=False)
    counters: dict[str, int | None] = field(default_factory=dict,
                                            compare=False)

    @property
    def checks(self) -> list[Check]:
        """The checks `search` reports: the witness is progression-free."""
        return [Check("witness_progression_free",
                      is_progression_free(self.witness),
                      f"witness of size {self.max_size}")]


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


def third_points(A: PointSet) -> int:
    """Point mask of {-a-b : a != b in A}, the points that complete a pair
    of distinct members to a zero-sum triple; each unordered pair is
    visited once."""
    third = 0
    for i, a in enumerate(A.points):
        for b in A.points[i + 1:]:
            third |= 1 << complete_triple(a, b, A.n)
    return third


def is_progression_free(A: PointSet) -> bool:
    """True iff no three pairwise-distinct members of A sum to zero.

    In F_3, a + a + c = 0 forces c = -2a = a, so the point completing a
    pair of distinct members is automatically distinct from both; checking
    every unordered pair against membership is therefore exhaustive.
    """
    return not third_points(A) & A.mask


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
    is (lifted mask, s*w, dropped mask, (3 - s)*w).  A move depends only
    on (w, s), so the 2n of them are built once and shared.
    """
    everything = (1 << 3**n) - 1
    moves = [()]
    for j in range(n):
        w = 3**j
        # one bit at the start of each run of 3w points, so that lifted
        # holds the first (3 - s)*w points of every run
        period = everything // ((1 << 3 * w) - 1)
        step = [()]
        for s in (2, 1):
            lifted = ((1 << (3 - s) * w) - 1) * period
            step.append(((lifted, s * w, everything ^ lifted, (3 - s) * w),))
        moves = [low + move for move in step for low in moves]
    return moves


class _Tables:
    """The per-n tables every walk of F_3^n reads."""

    def __init__(self, n: int):
        size = 3**n
        self.n = n
        self.bit = [1 << i for i in range(size)]
        neg = [0]
        for _ in range(n):
            neg = [3 * y + d for y in neg for d in (0, 2, 1)]
        self.neg_bit = [1 << y for y in neg]
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
        third = self.pow3[n - 1]
        self.slices = tuple(((1 << third) - 1) << c * third for c in (1, 2))
        shell = [2 * _proven_max(j) for j in range(n)]
        self.future = [sum(shell[k:]) for k in range(n + 1)]


@lru_cache(maxsize=None)
def _tables(n: int) -> _Tables:
    """The tables of F_3^n, built once per n; every walk only reads them."""
    return _Tables(n)


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

    A walk with every coordinate open may start with a group G of affine
    maps that send its chosen points, and so its candidates, onto
    themselves.  At each node, group holds the g in G other than the
    identity that fix every point chosen since the start, each as the
    point masks (fixed, lower) of the x with g(x) = x and with g(x) < x;
    only the bits of candidates are read.
    A candidate x that some g of group sends lower is not branched on
    (the "orbit" prune), and the child on x keeps the g that fix x.
    G permutes the sets of candidates that complete the chosen points to
    a cap, so each orbit of them has a lex-least member S, and S is
    never cut this way: if g
    fixes the points of S below x and g(x) < x, then g(S) holds those
    points and g(x), so it is lex-smaller than S.  The find walk starts
    with no group.

    Three rules cut the walk, each counted in `prunes`: "cardinality"
    (the chosen points, the candidates and the shell caps of the
    unopened coordinates reach no more than the best size), "orbit" (the
    group above) and "slice" (slice_cap, when set, bounds what the
    slices x_1 = 1, 2 can still take; see _Extend).
    """

    def __init__(self, tables: _Tables, best_size: int,
                 node_budget: int | None):
        self.tables = tables
        self.best_size = best_size
        self.node_budget = node_budget
        self.nodes = 0
        self.prunes = {"cardinality": 0, "orbit": 0, "slice": 0}
        self.slice_cap: int | None = None

    def record(self, mask: int) -> None:
        raise NotImplementedError

    def dfs(self, mask: int, neg: int, cands: int, k: int,
            group: tuple[tuple[int, int], ...] = ()) -> None:
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
        cap = self.slice_cap
        if cap is not None:
            room = depth
            for part in tables.slices:
                room += min(cap - (mask & part).bit_count(),
                            (cands & part).bit_count())
            if room <= self.best_size:
                prunes["slice"] += 1
                return
        moves = tables.moves
        neg_bit = tables.neg_bit
        skip = 0
        for _, lower in group:
            skip |= lower
        while cands:
            if depth + cands.bit_count() + future <= self.best_size:
                prunes["cardinality"] += 1
                return
            low = cands & -cands
            x = low.bit_length() - 1
            cands ^= low
            if skip & low:
                prunes["orbit"] += 1
                continue
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
            self.dfs(mask | low, neg | neg_bit[x], narrowed, k,
                     tuple(g for g in group if g[0] & low) if group else ())
        if k < n:
            x = tables.pow3[k]
            excluded = neg
            for lifted, up, dropped, down in moves[x]:
                excluded = ((excluded & lifted) << up
                            | (excluded & dropped) >> down)
            self.dfs(mask | tables.bit[x], neg | neg_bit[x],
                     tables.opening_mask[k] & ~excluded, k + 1)


class _Extend(_Walker):
    """The walk for an m-point cap of F_3^n holding rep, a cap of
    F_3^(n-1) placed at x_1 = 0, and the point e_1 = (1, 0, ..., 0).

    Every other candidate lies in the slices x_1 = 1 and x_1 = 2, above
    e_1, the least point of x_1 = 1, so the walk starts with every
    coordinate open and e_1 as its last choice.  It stops at the first
    m-point set and keeps it in `found`.  group (see _Walker) is that of
    the lifted affine maps of rep onto itself (affine.orbit_group), which
    fix e_1 and map the candidates onto themselves; with it the walk meets
    only the lex-least m-sets of each orbit, and still meets one when
    any exists.  Without it the walk is the plain one.

    Each slice S_c = {x : x_1 = c} is an affine F_3^(n-1), so a cap meets
    it in at most slice_cap points, the (n-1) maximum.  Every candidate
    lies in S_1 or S_2, so a node can reach at most |chosen| plus, for
    c = 1, 2, the lesser of slice_cap - |chosen & S_c| and
    |cands & S_c|; the walk cuts it when that is no more than the best
    size (the "slice" prune), on entering it.  No subtree it cuts holds
    an m-point set, so the walk still meets one when any exists; with
    slice_cap None it is the uncapped walk.
    """

    def __init__(self, tables: _Tables, rep: tuple[int, ...], m: int,
                 node_budget: int | None,
                 group: tuple[tuple[int, int], ...] = ()):
        super().__init__(tables, m - 1, node_budget)
        self.rep = rep
        self.group = group
        self.slice_cap = tables.slice_cap
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
                     tables.n, self.group)
        except _Stop:
            pass
        return self.found


class _ExtendAll(_Extend):
    """The extension walk that goes on to the end and keeps in `found`
    every m-point set it meets, in walk order."""

    def __init__(self, tables: _Tables, rep: tuple[int, ...], m: int):
        super().__init__(tables, rep, m, None)
        self.found: list[tuple[int, ...]] = []

    def record(self, mask: int) -> None:
        self.found.append(_points(mask))


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


@dataclass(frozen=True)
class _FullCapClasses:
    """One maximum cap of F_3^n per affine class, and the nodes, prunes
    and frame tries that found them in every dimension up to n.  The
    symmetries of each class are found on first use and kept with it."""

    n: int
    reps: tuple[tuple[int, ...], ...]
    nodes: int
    prunes: tuple[tuple[str, int], ...]
    frames_tried: int

    @cached_property
    def framed(self) -> tuple[FramedCap, ...]:
        """Per representative, its frame; its frames_tried counts the
        search for its stabilizer once that has run."""
        return tuple(FramedCap(rep, self.n) for rep in self.reps)

    @cached_property
    def stabilizers(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per representative, every affine map of F_3^n onto itself
        (FramedCap.stabilizer)."""
        return tuple(framed.stabilizer() for framed in self.framed)

    @cached_property
    def orbit_groups(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per representative, the group of its extension walk in
        F_3^(n+1): its affine maps onto itself, lifted (orbit_group)."""
        return tuple(orbit_group(maps, self.n + 1)
                     for maps in self.stabilizers)


def _forces_full_slice(n: int) -> bool:
    """True iff the pair-count identity forces every maximum cap of F_3^n
    a slice that is a maximum cap of F_3^(n-1), so that the classes of
    F_3^n come by extension (_full_cap_classes).  It does for n <= 3 and
    not for n = 4, whose 20-caps need only an 8-point slice.  F_3^0 is a
    single point, its own class."""
    if n == 0:
        return True
    cap = _proven_max(n - 1)
    return _forced_slice(n, _proven_max(n), cap) == cap


@lru_cache(maxsize=None)
def _full_cap_classes(n: int) -> _FullCapClasses:
    """The maximum caps of F_3^n up to affine equivalence.  Where
    _forces_full_slice(n) holds, each has an image that the extension
    walk from some class of F_3^(n-1) meets (see _Proof.extends); the
    caps met are kept in walk order, each as a representative unless an
    earlier one has a certificate for it.  Elsewhere a class could be
    missed, and the call is refused."""
    if n == 0:
        return _FullCapClasses(0, ((0,),), 0,
                               (("cardinality", 0), ("orbit", 0),
                                ("slice", 0)), 0)
    tables = _tables(n)
    m = _proven_max(n)
    if not _forces_full_slice(n):
        s = _forced_slice(n, m, tables.slice_cap)
        raise ValueError(f"extension cannot classify the {m}-caps of "
                         f"F_3^{n}: they need only a slice of {s} points")
    lower = _full_cap_classes(n - 1)
    nodes = lower.nodes
    prunes = dict(lower.prunes)
    reps: list[FramedCap] = []
    for rep in lower.reps:
        walker = _ExtendAll(tables, rep, m)
        for points in walker.run():
            if all(framed.certificate(points) is None for framed in reps):
                reps.append(FramedCap(points, n))
        nodes += walker.nodes
        for rule, count in walker.prunes.items():
            prunes[rule] += count
    return _FullCapClasses(
        n, tuple(framed.points for framed in reps), nodes,
        tuple(prunes.items()),
        lower.frames_tried + sum(framed.frames_tried for framed in reps))


class _Proof(_Walker):
    """One max_capset call in two phases, and its cost (stage times,
    counters, node and prune totals over every walk).  `upper_bound`
    proves that no cap has U + 1 points; the find walk then only has to
    meet the lex-least U-point set (`find`)."""

    def __init__(self, n: int, node_budget: int | None):
        self.clock = Stages("lower_proofs", "tables", "find", "identity",
                            "classes", "refute")
        # The tables need the proven maxima below n; proven here, they
        # are cached, so the tables' own calls cost nothing.
        _proven_max(n - 1)
        self.clock.lap("lower_proofs")
        super().__init__(_tables(n), 1, node_budget)
        self.n = n
        self.best: tuple[int, ...] = (0,)
        self.upper: int | None = None
        self.counters: dict[str, int | None] = {
            "find_nodes": 0, "collect_nodes": 0, "refute_nodes": 0,
            "full_cap_classes": 0, "class_frames_tried": 0,
            "class_automorphisms": 0, "stabilizer_frames_tried": 0,
            "forced_slice": None, "refuted_size": None}
        self.classes: _FullCapClasses | None = None
        self.clock.lap("tables")

    def _charge(self, phase: str, nodes: int, prunes) -> None:
        """Adds another walk's cost to the totals; it comes out of the
        find walk's node budget."""
        self.counters[phase] += nodes
        for rule, count in prunes:
            self.prunes[rule] += count
        if self.node_budget is not None:
            self.node_budget -= nodes
            if self.nodes > self.node_budget:
                raise _BudgetExhausted

    def _full_caps(self) -> _FullCapClasses:
        """The classes of maximum caps of F_3^(n-1) and, built on first
        use, the groups of their extension walks."""
        if self.classes is None:
            self.classes = _full_cap_classes(self.n - 1)
            self.classes.orbit_groups  # built now, in the classes stage
            self.clock.lap("classes")
            self.counters["full_cap_classes"] = len(self.classes.reps)
            self.counters["class_frames_tried"] = self.classes.frames_tried
            self.counters["class_automorphisms"] = sum(
                map(len, self.classes.stabilizers))
            self.counters["stabilizer_frames_tried"] = sum(
                framed.frames_tried for framed in self.classes.framed)
            self._charge("collect_nodes", self.classes.nodes,
                         self.classes.prunes)
        return self.classes

    def upper_bound(self) -> int | None:
        """An upper bound U on the size of a cap of F_3^n, proven by
        ruling out U + 1 points; None if the scan meets a size it cannot
        decide.

        With every slice capped at the proven (n-1) maximum,
        `_forced_slice` says for each m how large the largest slice of an
        m-point cap must be, scanning m upward.  None rules m out.  Below
        the cap, nothing is decided and the scan moves on.  At the cap,
        some slice is a maximum cap of F_3^(n-1), and `extends` settles
        m if the classes of those caps come by extension
        (_forces_full_slice(n - 1)); if they do not, as at n = 5, the
        scan ends with no U.  A walk that meets an m-point set moves the
        scan on.  The first m ruled out gives U = m - 1, since every
        subset of a cap is a cap.
        """
        cap = self.tables.slice_cap
        m = 1
        while True:
            s = _forced_slice(self.n, m, cap)
            self.clock.lap("identity")
            self.counters["forced_slice"] = s
            if s is None:
                break
            if s == cap:
                if not _forces_full_slice(self.n - 1):
                    return None
                if not self.extends(m):
                    break
            m += 1
        self.counters["refuted_size"] = m
        return m - 1

    def extends(self, m: int) -> bool:
        """True iff some m-point cap of F_3^n has a slice that is a
        maximum cap of F_3^(n-1).

        An affine map sends that slice to x_1 = 0 and, acting on the
        last n-1 coordinates, the cap to its class representative.
        x_1 -> -x_1 and the shear x -> x - x_1 p' (which fix x_1 = 0
        pointwise) then send some point p = (1, p') or (2, p') of the set
        to e_1.  So such a cap exists only if some representative
        extends through e_1, and `_Extend` tries each one.  Each walk
        branches only on orbit representatives under the affine maps of
        its representative onto itself, lifted to fix e_1 (see _Walker):
        it still meets an m-point set if one exists.
        """
        classes = self._full_caps()
        for rep, group in zip(classes.reps, classes.orbit_groups):
            budget = self.node_budget
            walker = _Extend(self.tables, rep, m,
                             None if budget is None else budget - self.nodes,
                             group)
            try:
                found = walker.run()
            finally:
                self.clock.lap("refute")
                self._charge("refute_nodes", walker.nodes,
                             walker.prunes.items())
            if found is not None:
                return True
        return False

    def record(self, mask: int) -> None:
        self.best_size = mask.bit_count()
        self.best = _points(mask)
        if self.upper is not None:
            raise _Stop

    def find(self) -> None:
        """The witness phase.  With an upper bound, each walk starts at
        best size upper - 1 and stops at the first set it records, of
        upper points: the lex-least one, since the walk cuts no subtree
        that holds a set larger than its best.  A walk that runs out
        without one proves that no such set exists, and upper is lowered
        by one.  With none, one walk from best size 1 records each larger
        set; run out, it proves the last one maximum."""
        if self.upper is None:
            self.dfs(1, 1, 0, 0)
            return
        try:
            while True:
                self.best_size = self.upper - 1
                self.dfs(1, 1, 0, 0)
                self.upper -= 1
        except _Stop:
            pass

    def run(self) -> SearchResult:
        proven = True
        try:
            self.upper = self.upper_bound()
            self.find()
        except _BudgetExhausted:
            proven = False
        self.clock.lap("find")
        c = self.counters
        c["find_nodes"] = self.nodes
        return SearchResult(
            n=self.n,
            max_size=len(self.best),
            witness=PointSet(self.n, self.best),
            nodes_explored=(c["find_nodes"] + c["collect_nodes"]
                            + c["refute_nodes"]),
            prunes=dict(self.prunes),
            proven_optimal=proven,
            timings_ms=self.clock.ms,
            counters=dict(c),
        )


@lru_cache(maxsize=None)
def _proven_max(n: int) -> int:
    """Maximum capset size of F_3^n, established by this module's own
    exhaustive search (F_3^0 is a single point)."""
    return 1 if n == 0 else max_capset(n).max_size


def max_capset(n: int, node_budget: int | None = None) -> SearchResult:
    """Exhaustive search for a maximum progression-free subset of F_3^n.

    First the refutation proves an upper bound U (see
    _Proof.upper_bound); at n = 5 it finds none.  Then the find walk:
    translation puts 0 in some maximum set, and the coordinate-opening
    normalization (see _Walker) handles the rest of the affine symmetry,
    so the walk starts from the point 0 with no coordinate opened.  With
    U, it starts at best size U - 1 and stops at the first U-point set
    it meets, walking again for one point less each time it runs out
    without one (see _Proof.find).  Without U, it starts at best size 1,
    records each larger set, and only running out proves the last one
    maximum.  The witness is the lexicographically least maximum set:
    the normalized escapes are exactly the lex-minimal choices, the walk
    runs in canonical order, up to the stop it never cuts a subtree
    holding a set larger than its best, and only a strictly larger set
    replaces the recorded one.

    nodes_explored counts the nodes of every walk the call makes: the
    extension walks that classify the maximum caps of F_3^(n-1)
    (counted at their full cost, every dimension down, even when the
    classes are cached), those of the refutation, and find.  The search
    stops once that count passes node_budget; max_size is then a valid
    lower bound and proven_optimal is False.  At n <= 4 a budget that
    runs out before the find walk meets its U-point set leaves only the
    one-point set {0}, a small but valid lower bound.  A node_budget
    below 1 is refused: not even the root node would be searched; so is
    one above MAX_BUDGET.

    The slice cap of F_3^n needs the proven maximum of F_3^(n-1), so n = 5
    rests on the n = 4 proof and then runs without end unless budgeted;
    n >= 6 would need the unbudgeted n = 5 maximum.  Unbudgeted n = 5 and
    every n >= 6 are refused before any table is built.

    `prunes` counts the cuts over all walks, the same on every run:
    "cardinality" (candidate count plus shell caps; one per node,
    remaining run of siblings or child it cuts), "orbit" (one per
    candidate of a refutation's extension walk that an affine symmetry
    of its representative sends to a smaller candidate, see _Walker) and
    "slice" (one per node of an extension walk whose two open slices,
    each capped at the (n-1) maximum, cannot lift it above its best
    size, see _Extend).
    `counters` splits the nodes by walk (find_nodes, collect_nodes,
    refute_nodes) and gives full_cap_classes (affine classes of maximum
    caps of F_3^(n-1) tried, 0 if none were needed), class_frames_tried
    (the frames the matching of those classes tried, see affine.FramedCap;
    like collect_nodes, counted in full even when the classes are
    cached), class_automorphisms (the affine maps of those
    representatives onto themselves, summed over them: the order of the
    groups the extension walks prune with; 0 if none were needed),
    stabilizer_frames_tried (the frames the search for those maps tried
    or ruled out, see affine.FramedCap.stabilizer; 0 if none were
    needed), forced_slice (the least largest slice the pair-count
    identity allows for the last size the bound scan asked about: at
    n <= 4 the refuted size, at n = 5 the first size it could not
    decide, 51, where it reads the cap 20; None when none up to the cap
    does) and refuted_size (the size proven impossible, None if none
    was).
    `timings_ms` gives the wall time of each stage from one stages.Stages
    clock (a stage charged more than once adds up): lower_proofs (the
    proofs of every dimension below n, which the slice and shell caps
    rest on; near 0 once cached), tables, find, identity, classes, refute.
    """
    _check_search(n, node_budget)
    return _Proof(n, node_budget).run()


def _check_search(n: int, node_budget: int | None) -> None:
    """Refuse a search that max_capset would not run."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if node_budget is not None and node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    if node_budget is not None and node_budget > MAX_BUDGET:
        raise ValueError(f"node_budget must be at most {MAX_BUDGET}, "
                         f"got {node_budget}")
    if n >= 6:
        raise ValueError(
            f"search at n={n} is out of reach: its slice cap needs the "
            f"proven n={n - 1} maximum, and no search here proves n >= 5")
    if n == 5 and node_budget is None:
        raise ValueError(
            "search at n=5 needs a node budget: the exhaustive walk does "
            "not finish in practical time, so only a budgeted lower bound "
            "is available")
