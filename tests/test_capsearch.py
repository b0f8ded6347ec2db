"""Search oracle cross-checks: brute force over all subsets at tiny n, an
independent include/exclude search with no symmetry reduction at n = 3,
the affine-invariance sanity properties, the witness phase started above
the maximum, and the steps of the slice-first refutation: the pair-count
identity, the classes of maximum caps with their affine certificates
(checked against an orbit-closure oracle and a collect walk from the
root), their affine symmetries (found by origin cosets and checked
against the frame search at every origin and a brute-force stabilizer)
and the extension walk, orbit-pruned and plain."""
import random
import time
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound import affine, golden
from capbound.affine import FramedCap, lift, orbit_group
from capbound.capsearch import (
    PointSet,
    _Extend,
    _ExtendAll,
    _forced_slice,
    _forces_full_slice,
    _full_cap_classes,
    _points,
    _Proof,
    _proven_max,
    _Tables,
    _tables,
    _Walker,
    _completion_moves,
    complete_triple,
    decode_point,
    encode_point,
    is_progression_free,
    max_capset,
    third_points,
)


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
    """The point masks of every image of a set under the generated group,
    by closing the set's orbit under the generators."""
    start = sum(1 << x for x in points)
    orbit = {start}
    frontier = [start]
    while frontier:
        mask = frontier.pop()
        members = [x for x in range(mask.bit_length()) if mask >> x & 1]
        for g in generators:
            image = sum(1 << g[x] for x in members)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


class _Collect(_Walker):
    """Keeps every set it meets of size best_size + 1; started with the
    best size pinned one below the proven maximum, it meets every
    normalized maximum cap."""

    def __init__(self, tables: _Tables, best_size: int):
        super().__init__(tables, best_size, None)
        self.found: list[tuple[int, ...]] = []

    def record(self, mask: int) -> None:
        self.found.append(_points(mask))


def _normalized_full_caps(n: int) -> _Collect:
    """The collect walk over F_3^n from the root: every maximum cap in the
    walk's normalized form, which every affine class has a member in.  It
    shares no step with the extension walks that classify the caps."""
    walker = _Collect(_Tables(n), _proven_max(n) - 1)
    walker.dfs(1, 1, 0, 0)
    return walker


def certificate_map(n: int, frame: tuple[int, ...],
                    image: tuple[int, ...]) -> dict[int, int]:
    """The affine map sending frame[i] to image[i] for every i, on every
    point of F_3^n, by coordinate arithmetic: the point
    r_0 + sum c_i (r_i - r_0) goes to b_0 + sum c_i (b_i - b_0) for every
    coefficient vector c."""
    r = [decode_point(x, n) for x in frame]
    b = [decode_point(x, n) for x in image]

    def combine(base, c):
        return encode_point(tuple(
            (base[0][j] + sum(ci * (v[j] - base[0][j])
                              for ci, v in zip(c, base[1:]))) % 3
            for j in range(n)))

    return {combine(r, c): combine(b, c)
            for c in product(range(3), repeat=n)}


def assert_certifies(framed: FramedCap, cap: tuple[int, ...],
                     image: tuple[int, ...]) -> None:
    """The certificate's map is a bijection of F_3^n sending the framed
    set onto cap."""
    g = certificate_map(framed.n, framed.frame, image)
    assert sorted(g) == sorted(g.values()) == list(range(3**framed.n))
    assert sorted(g[x] for x in framed.points) == sorted(cap)


def brute_force_max(n: int) -> int:
    """Check every subset (only viable for 3^n <= 9 points)."""
    points = range(3**n)
    best = 0
    for k in range(3**n, 0, -1):
        for subset in combinations(points, k):
            if is_progression_free(PointSet(n, subset)):
                return k
    return best


def include_exclude_max(n: int) -> int:
    """Independent search: binary include/exclude recursion on the point
    list, no translation or linear normalization, cardinality prune only."""
    size = 3**n
    third = [[complete_triple(a, b, n) for b in range(size)]
             for a in range(size)]
    best = [0]

    def walk(idx: int, chosen: list[int], banned: set[int]) -> None:
        if len(chosen) > best[0]:
            best[0] = len(chosen)
        if idx == size or len(chosen) + (size - idx) <= best[0]:
            return
        if idx not in banned:
            extra = {third[idx][a] for a in chosen}
            walk(idx + 1, chosen + [idx], banned | extra)
        walk(idx + 1, chosen, banned)

    walk(0, [], set())
    return best[0]


def test_encode_decode_roundtrip():
    for n in (1, 2, 3):
        for idx in range(3**n):
            assert encode_point(decode_point(idx, n)) == idx
    assert encode_point((1, 2)) == 5
    with pytest.raises(ValueError):
        encode_point((0, 3))


def test_complete_triple_examples():
    assert complete_triple(0, 0, 1) == 0
    assert complete_triple(0, 1, 1) == 2
    a, b = encode_point((1, 2)), encode_point((2, 2))
    assert decode_point(complete_triple(a, b, 2), 2) == (0, 2)


def test_completion_avoids_the_pair():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        a, b = rng.sample(range(3**n), 2)
        c = complete_triple(a, b, n)
        assert c != a and c != b


@pytest.mark.parametrize("n,points,expected", [
    (1, (0, 1), True),
    (1, (0, 1, 2), False),
    (2, tuple(range(9)), False),
])
def test_is_progression_free(n, points, expected):
    assert is_progression_free(PointSet(n, points)) is expected


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, 3**n - 1)))))
def test_third_points_by_brute_force(case):
    # -a-b by coordinate arithmetic over ordered pairs, and zero-sum
    # triples by a triple loop over the members
    n, points = case
    A = PointSet(n, tuple(points))
    vectors = A.vectors()
    third = {encode_point(tuple((-x - y) % 3 for x, y in zip(a, b)))
             for a in vectors for b in vectors if a != b}
    assert third_points(A) == sum(1 << c for c in third)
    free = not any(all((x + y + z) % 3 == 0 for x, y, z in zip(a, b, c))
                   for a, b, c in combinations(vectors, 3))
    assert is_progression_free(A) is free


def test_brute_force_agreement_small():
    assert max_capset(1).max_size == brute_force_max(1) == 2
    assert max_capset(2).max_size == brute_force_max(2) == 4


def test_independent_search_agreement_n3():
    assert max_capset(3).max_size == include_exclude_max(3) == 9


def test_witnesses_are_progression_free_and_sized():
    for n in (1, 2, 3):
        result = max_capset(n)
        assert result.witness.size == result.max_size
        assert is_progression_free(result.witness)
        assert result.proven_optimal
        assert result.witness.points[:2] == (0, 1)


def test_monotone_in_dimension():
    sizes = [max_capset(n).max_size for n in (1, 2, 3)]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperplane_masks_are_every_direction(n):
    size = 3**n
    everything = (1 << size) - 1
    directions = _hyperplane_masks(n)
    assert len(directions) == (size - 1) // 2
    assert len(set(directions)) == len(directions)
    for masks in directions:
        assert masks[0] | masks[1] | masks[2] == everything
        assert sum(m.bit_count() for m in masks) == size
        for mask in masks:
            assert mask.bit_count() == 3**(n - 1)
            points = [x for x in range(size) if mask >> x & 1]
            # closed under completing triples: an affine hyperplane
            for i, a in enumerate(points):
                for b in points[i + 1:]:
                    assert mask >> complete_triple(a, b, n) & 1
    for j in range(n):
        coordinate = tuple(
            sum(1 << x for x in range(size) if decode_point(x, n)[j] == v)
            for v in range(3))
        assert coordinate in directions


def test_completion_moves_match_complete_triple():
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        moves = _completion_moves(n)
        negate = [encode_point([-c % 3 for c in decode_point(a, n)])
                  for a in range(3**n)]
        for _ in range(100):
            chosen = rng.sample(range(3**n), rng.randint(1, 3**n))
            x = rng.randrange(3**n)
            moved = sum(1 << negate[a] for a in chosen)
            for lifted, up, dropped, down in moves[x]:
                moved = ((moved & lifted) << up) | ((moved & dropped) >> down)
            assert moved == sum(1 << complete_triple(x, a, n) for a in chosen)
        assert _Tables(n).neg_bit == [1 << y for y in negate]


def test_prune_counts_repeat():
    first, second = max_capset(3), max_capset(3)
    assert first.prunes == second.prunes
    assert set(first.prunes) == {"cardinality", "orbit", "slice"}
    assert first.nodes_explored == second.nodes_explored


def test_budget_cutoff():
    result = max_capset(3, node_budget=20)
    assert not result.proven_optimal
    assert 0 < result.max_size <= 9
    assert is_progression_free(result.witness)


def test_lex_least_witnesses_pinned():
    # the first maximum set the canonical-order walk meets is the
    # lexicographically least one; pruning changes must not move it
    expected = {1: (0, 1), 2: (0, 1, 3, 4),
                3: (0, 1, 3, 4, 9, 10, 14, 17, 23)}
    for n, points in expected.items():
        assert max_capset(n).witness == PointSet(n, points)


def test_budget_below_one_refused():
    # not even the root node fits such a budget; a one-point "witness"
    # would pass for a search result
    for budget in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            max_capset(3, node_budget=budget)


def test_out_of_reach_dimensions_refused_at_once():
    with pytest.raises(ValueError, match="node budget"):
        max_capset(5)
    for n, budget in ((6, None), (6, 10)):
        with pytest.raises(ValueError, match="out of reach"):
            max_capset(n, node_budget=budget)


def test_affine_maps_preserve_the_property():
    rng = random.Random(99)
    witness = max_capset(3).witness
    vectors = witness.vectors()
    for _ in range(20):
        perm = rng.sample(range(3), 3)
        shift = tuple(rng.randrange(3) for _ in range(3))
        moved = [tuple((v[p] + s) % 3 for p, s in zip(perm, shift))
                 for v in vectors]
        assert is_progression_free(
            PointSet(3, tuple(encode_point(v) for v in moved)))


def test_capset_validation():
    with pytest.raises(ValueError):
        PointSet(1, (0, 3))
    with pytest.raises(ValueError):
        PointSet(1, (0, 0))
    with pytest.raises(ValueError):
        max_capset(0)


@lru_cache(maxsize=None)
def all_caps(n: int, k: int) -> frozenset[tuple[int, ...]]:
    """Every k-point progression-free subset of F_3^n, by plain
    backtracking over the points in order with no symmetry or bounds."""
    size = 3**n
    third = [[complete_triple(a, b, n) for b in range(size)]
             for a in range(size)]
    found = set()

    def walk(start: int, chosen: list[int], banned: set[int]) -> None:
        if len(chosen) == k:
            found.add(tuple(chosen))
            return
        for x in range(start, size - (k - len(chosen)) + 1):
            if x not in banned:
                walk(x + 1, chosen + [x],
                     banned | {third[x][a] for a in chosen})

    walk(0, [], set())
    return frozenset(found)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 4))
def test_pair_count_identity(data, n):
    # every pair of distinct points shares a slice in (3^(n-1) - 1)/2 of
    # the directions, whatever the set
    points = data.draw(st.sets(st.integers(0, 3**n - 1)))
    mask = sum(1 << x for x in points)
    m = len(points)
    slices = [(mask & s).bit_count()
              for masks in _hyperplane_masks(n) for s in masks]
    assert (sum(c * (c - 1) // 2 for c in slices)
            == m * (m - 1) // 2 * (3**(n - 1) - 1) // 2)
    if m:
        # uncapped, the forced slice is a lower bound on the largest one
        assert _forced_slice(n, m, 3**(n - 1)) <= max(slices)


def test_forced_slice_values():
    # at n = 1 no two points share a slice, so the identity holds with
    # equality at zero
    assert _forced_slice(1, 2, 1) == 1
    assert _forced_slice(1, 4, 1) is None
    assert _forced_slice(2, 5, 2) is None
    assert _forced_slice(3, 10, 4) is None
    assert _forced_slice(3, 9, 4) == 4
    assert _forced_slice(4, 20, 9) == 8
    assert _forced_slice(4, 21, 9) == 9
    assert _forced_slice(5, 46, 20) == 18


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_generators_keep_zero_sum_triples(n):
    for g in _affine_generators(n):
        assert sorted(g) == list(range(3**n))
        for a in range(3**n):
            for b in range(a + 1, 3**n):
                assert complete_triple(g[a], g[b], n) == g[
                    complete_triple(a, b, n)]


@pytest.mark.parametrize("n,count", [(2, 54), (3, 2106)])
def test_class_orbits_cover_every_maximum_cap(n, count):
    caps = all_caps(n, _proven_max(n))
    assert len(caps) == count
    generators = _affine_generators(n)
    covered = set()
    for rep in _full_cap_classes(n).reps:
        covered |= _orbit(rep, generators)
    assert covered == {sum(1 << x for x in cap) for cap in caps}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_classes_equal_the_orbit_classes(n):
    # the orbit method keeps a collected cap unless the orbit of an
    # earlier representative holds it
    generators = _affine_generators(n)
    covered: set[int] = set()
    reps = []
    for points in _normalized_full_caps(n).found:
        if sum(1 << x for x in points) not in covered:
            reps.append(points)
            covered |= _orbit(points, generators)
    assert _full_cap_classes(n).reps == tuple(reps)


@pytest.mark.parametrize("n,count", [(2, 54), (3, 2106)])
def test_every_maximum_cap_gets_a_certificate(n, count):
    caps = sorted(all_caps(n, _proven_max(n)))
    assert len(caps) == count
    (rep,) = _full_cap_classes(n).reps
    framed = FramedCap(rep, n)
    for cap in caps:
        image = framed.certificate(cap)
        assert image is not None
        assert_certifies(framed, cap, image)


def test_set_with_a_line_gets_no_certificate():
    (rep,) = _full_cap_classes(3).reps
    line = (0, 1, 2)
    rest = [x for x in range(3, 27) if x not in rep][:6]
    framed = FramedCap(rep, 3)
    assert framed.certificate(tuple(sorted(line + tuple(rest)))) is None
    # every frame of the 9-point set was tried and failed
    assert framed.frames_tried == 9 * 8 * 7 * 6


def test_frame_of_a_normalized_cap_is_its_unit_vectors():
    # coordinates in the frame 0, 3^0, ..., 3^(n-1) are base-3 digits
    (rep,) = _full_cap_classes(3).reps
    framed = FramedCap(rep, 3)
    assert framed.frame == (0, 1, 3, 9)
    digits = [tuple((i, c) for i, c in enumerate(reversed(decode_point(x, 3)))
                    if c) for x in rep if x not in framed.frame]
    assert framed.coords == tuple(digits)
    with pytest.raises(ValueError, match="does not span"):
        FramedCap((0, 1, 3, 4), 3)


# An invertible affine map of F_3^n, n <= 4: a matrix whose map is a
# bijection of the points, and a translation.
@st.composite
def affine_maps(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    points = list(product(range(3), repeat=n))
    matrix = draw(st.lists(row, min_size=n, max_size=n).filter(
        lambda m: len({apply_linear(m, v) for v in points}) == 3**n))
    return n, matrix, draw(row)


def apply_linear(matrix, v):
    return tuple(sum(m * x for m, x in zip(row, v)) % 3 for row in matrix)


@settings(deadline=None, max_examples=40)
@given(affine_maps())
def test_affine_images_of_witnesses_get_a_certificate(case):
    # tests/test_verifier.py checks that the same images stay
    # progression-free, keep their size and keep dim V at every d
    n, matrix, shift = case
    witness = golden.LEX_LEAST_WITNESSES[n]
    image = PointSet.from_vectors([
        tuple((x + t) % 3 for x, t in zip(apply_linear(matrix, v), shift))
        for v in PointSet(n, witness).vectors()])
    framed = FramedCap(witness, n)
    frame = framed.certificate(image.points)
    assert frame is not None
    assert_certifies(framed, image.points, frame)


def test_normalized_full_caps_of_f3_cubed():
    assert len(_normalized_full_caps(3).found) == 18
    classes = _full_cap_classes(3)
    assert len(classes.reps) == 1
    # the extension walks at n = 1, 2 and 3 take 46 nodes in all; the
    # collect walk over F_3^3 takes 174
    assert (classes.nodes, _normalized_full_caps(3).nodes) == (46, 174)
    # the caps after the first at each n take 21 frame tries in all
    assert classes.frames_tried == 21


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extension_collects_only_certified_maximum_caps(n):
    caps = all_caps(n, _proven_max(n))
    (rep,) = _full_cap_classes(n).reps
    framed = FramedCap(rep, n)
    found = []
    for lower in _full_cap_classes(n - 1).reps:
        found += _ExtendAll(_Tables(n), lower, len(rep)).run()
    # the first cap met is the representative
    assert found[0] == rep
    for cap in found:
        assert cap in caps
        image = framed.certificate(cap)
        assert image is not None
        assert_certifies(framed, cap, image)


def test_no_classification_from_slices_below_the_cap():
    # a 20-cap of F_3^4 need only have an 8-point slice, and extension from
    # the 9-caps of F_3^3 alone could miss a class
    with pytest.raises(ValueError, match="slice of 8 points"):
        _full_cap_classes(4)


@pytest.mark.parametrize("n,m", [(3, 9), (4, 20)])
def test_extension_finds_a_set_when_one_exists(n, m):
    tables = _Tables(n)
    rep = _full_cap_classes(n - 1).reps[0]
    found = _Extend(tables, rep, m, None).run()
    assert found is not None and len(found) == m
    assert set(rep) | {3**(n - 1)} <= set(found)
    assert is_progression_free(PointSet(n, found))


def test_every_normalized_cap_refutes_21_without_the_dedupe():
    tables = _Tables(4)
    for rep in _normalized_full_caps(3).found:
        assert _Extend(tables, rep, 21, None).run() is None


def test_phase_counters_n4():
    result = max_capset(4)
    c = result.counters
    # started at best size 19 once 21 points are refuted, the walk meets
    # the lex-least 20-point set at node 785
    assert c["find_nodes"] == 785
    assert (c["forced_slice"], c["refuted_size"], c["full_cap_classes"]) == (
        9, 21, 1)
    # charged in full when the classes come from the cache, too
    assert (c["collect_nodes"], c["refute_nodes"]) == (46, 503)
    assert c["class_frames_tried"] == 21
    # the 9-cap class of F_3^3 has 144 affine symmetries, and the
    # refutation skips 99 candidates that one of them sends lower and
    # cuts 202 nodes whose two open slices, 9 points each at most, cannot
    # hold 21 points
    assert c["class_automorphisms"] == 144
    assert result.prunes == {"cardinality": 3299, "orbit": 99, "slice": 202}
    # the full frame search at one origin and one certificate for each
    # of the 8 others; the search at every origin tries 3,024 frames
    assert c["stabilizer_frames_tried"] == 446
    assert max_capset(4).counters == c
    assert result.nodes_explored == (c["find_nodes"] + c["collect_nodes"]
                                     + c["refute_nodes"])
    assert set(result.timings_ms) == {"lower_proofs", "tables", "find",
                                      "identity", "classes", "refute"}


def test_every_budget_short_of_the_proof_leaves_it_open():
    # every budget at n = 3; at n = 4 a stride of them cuts each phase:
    # collect (budgets 1-45), refute (46-548) and find (549-1,333)
    for n, stride in ((3, 1), (4, 37)):
        full = max_capset(n)
        for budget in range(1, full.nodes_explored, stride):
            result = max_capset(n, node_budget=budget)
            assert not result.proven_optimal
            assert 0 < result.max_size <= full.max_size
            assert is_progression_free(result.witness)
        assert max_capset(n, node_budget=full.nodes_explored) == full


@pytest.mark.parametrize("n", [2, 3, 4])
def test_witness_phase_lowers_a_bound_set_too_high(n):
    # a walk for one point more than the maximum runs out, which proves
    # that size impossible, and the next walk meets the lex-least maximum
    # set; at n = 4 the walk run out takes about 6 million nodes, so it
    # also proves the maximum without the slice refutation
    witness = golden.LEX_LEAST_WITNESSES[n]
    _proven_max(n - 1)

    class TooHigh(_Proof):
        def upper_bound(self):
            return len(witness) + 1

    result = TooHigh(n, None).run()
    assert result.witness == PointSet(n, witness)
    assert result.proven_optimal
    assert result.nodes_explored == result.counters["find_nodes"]
    assert result.nodes_explored > max_capset(n).counters["find_nodes"]


def test_n5_bound_scan_ends_without_a_bound():
    # the 20-caps of F_3^4 need only an 8-point slice, so their classes do
    # not come by extension, and the scan stops at the first size that
    # forces a 20-point slice, 51, instead of refusing the classification
    assert [_forces_full_slice(k) for k in range(5)] == [True] * 4 + [False]
    proof = _Proof(5, 1)
    assert proof.upper_bound() is None
    assert (proof.counters["forced_slice"], proof.counters["refuted_size"],
            proof.nodes) == (20, None, 0)


def test_budgeted_n5_rests_on_a_fast_n4_proof():
    # with the caches cleared, the n = 5 call proves every n <= 4 first
    _proven_max.cache_clear()
    _full_cap_classes.cache_clear()
    _tables.cache_clear()
    started = time.perf_counter()
    result = max_capset(5, node_budget=20_000)
    assert time.perf_counter() - started < 5.0
    assert result.max_size == 38
    assert not result.proven_optimal
    # no extension walk runs (see test_n5_bound_scan_ends_without_a_bound)
    assert result.prunes == {"cardinality": 62_650, "orbit": 0, "slice": 0}
    assert result.counters["refute_nodes"] == 0
    assert is_progression_free(result.witness)


def test_budgeted_n5_search_returns_the_pinned_cap():
    # criterion 7 verifies golden.CLP_CAP_5 without searching; this ties
    # the pinned points to the search that first found them
    result = max_capset(5, node_budget=golden.CLP_CAP_5_BUDGET)
    assert result.witness.points == golden.CLP_CAP_5
    assert result.max_size == len(golden.CLP_CAP_5) == 42
    assert not result.proven_optimal
    assert is_progression_free(PointSet(5, golden.CLP_CAP_5))


def _invertible_matrices_3():
    """Every invertible 3 x 3 matrix over F_3, as its rows."""
    rows = list(product(range(3), repeat=3))
    for a, b, c in product(rows, repeat=3):
        det = (a[0] * (b[1] * c[2] - b[2] * c[1])
               - a[1] * (b[0] * c[2] - b[2] * c[0])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
        if det % 3:
            yield a, b, c


def brute_force_stabilizer_3(rep: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The maps x -> Ax + t of AGL(3, 3) sending rep onto itself, as point
    tables, by trying every one; a map is dropped at the first point of
    rep it sends outside rep."""
    points = [decode_point(x, 3) for x in range(27)]
    add = [[encode_point(tuple((a + b) % 3 for a, b in zip(u, v)))
            for v in points] for u in points]
    members = set(rep)
    tried = 0
    found = set()
    for matrix in _invertible_matrices_3():
        linear = [encode_point(apply_linear(matrix, points[x])) for x in rep]
        for t in range(27):
            tried += 1
            if all(add[y][t] in members for y in linear):
                found.add(tuple(
                    add[encode_point(apply_linear(matrix, v))][t]
                    for v in points))
    assert tried == 303_264
    return found


def test_stabilizer_of_the_f3_cubed_class_by_brute_force():
    classes = _full_cap_classes(3)
    (rep,) = classes.reps
    (maps,) = classes.stabilizers
    assert len(maps) == len(set(maps)) == 144
    assert set(maps) == brute_force_stabilizer_3(rep)


def sliced_orbit_group(lifted, n: int) -> tuple[tuple[int, int], ...]:
    """The masks (fixed, lower) of every lifted table but the identity,
    read off the whole table of F_3^n and then cut to the slices
    x_1 = 1, 2, where the extension walks' candidates lie."""
    slices = (1 << 3**n) - (1 << 3**(n - 1))
    group = []
    for g in lifted:
        fixed = lower = 0
        for x, y in enumerate(g):
            if y == x:
                fixed |= 1 << x
            elif y < x:
                lower |= 1 << x
        if lower:
            group.append((fixed & slices, lower & slices))
    return tuple(group)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lifted_stabilizers_are_affine_and_fix_the_start(n):
    classes = _full_cap_classes(n - 1)
    size, e1 = 3**n, 3**(n - 1)
    third = [[complete_triple(a, b, n) for b in range(size)]
             for a in range(size)]
    for rep, maps, group in zip(classes.reps, classes.stabilizers,
                                classes.orbit_groups):
        lifted = [lift(h, n) for h in maps]
        assert len(set(lifted)) == len(maps)
        for g in lifted:
            assert sorted(g) == list(range(size))
            assert g[e1] == e1
            assert sorted(g[x] for x in rep) == sorted(rep)
            for a in range(size):
                for b in range(a + 1, size):
                    assert g[third[a][b]] == third[g[a]][g[b]]
        # one (fixed, lower) pair per map but the identity
        assert len(group) == len(maps) - 1
        assert group == sliced_orbit_group(lifted, n)


@pytest.mark.parametrize("m", [19, 20, 21])
def test_orbit_pruned_extension_agrees_with_the_plain_walk(m):
    # the plain walk, with no group and no slice cap, is the oracle; the
    # capped walk, orbit-pruned or not, meets the same first m-point set
    tables = _tables(4)
    caps = _normalized_full_caps(3).found
    assert len(caps) == 18
    for cap in caps:
        group = orbit_group(FramedCap(cap, 3).stabilizer(), 4)
        plain = _Extend(tables, cap, m, None)
        pruned = _Extend(tables, cap, m, None, group)
        plain.slice_cap = pruned.slice_cap = None
        capped = _Extend(tables, cap, m, None)
        both = _Extend(tables, cap, m, None, group)
        expected = plain.run()
        assert (expected is None) == (m == 21)
        for walker in (pruned, capped, both):
            assert walker.run() == expected
        if expected is None:
            # the group and the cap each shorten the refutation, and the
            # cap shortens the orbit-pruned one too
            assert max(pruned.nodes, capped.nodes) < plain.nodes
            assert both.nodes < pruned.nodes
        else:
            assert len(expected) == m
            assert set(cap) | {27} <= set(expected)
            assert is_progression_free(PointSet(4, expected))


def test_a_slice_cap_one_too_low_loses_a_set():
    # a 20-cap of F_3^4 holding the 9-cap at x_1 = 0 and e_1 has a second
    # 9-point slice, so a cap of 8 cuts the only subtrees that hold one
    tables = _tables(4)
    classes = _full_cap_classes(3)
    (rep,), (group,) = classes.reps, classes.orbit_groups
    plain = _Extend(tables, rep, 20, None)
    plain.slice_cap = None
    assert plain.run() is not None
    walker = _Extend(tables, rep, 20, None, group)
    walker.slice_cap = tables.slice_cap - 1
    assert walker.run() is None
    assert walker.prunes["slice"] > 0


def all_origins_stabilizer(points: tuple[int, ...],
                           n: int) -> list[tuple[int, ...]]:
    """The reference for FramedCap.stabilizer: the map of every
    certificate of the set onto itself, by the full frame search at
    every origin, each map checked to be a bijection that sends the
    frame to its certificate and the set onto itself."""
    framed = FramedCap(points, n)
    maps = []
    for image in framed.certificates(points):
        g = framed.affine_map(image)
        assert sorted(g) == list(range(3**n))
        assert tuple(g[r] for r in framed.frame) == image
        assert sorted(g[x] for x in points) == list(points)
        maps.append(g)
    return maps


def assert_same_stabilizer(points: tuple[int, ...], n: int) -> set:
    maps = FramedCap(points, n).stabilizer()
    expected = all_origins_stabilizer(points, n)
    assert len(maps) == len(set(maps)) == len(expected)
    assert set(maps) == set(expected)
    return set(maps)


def test_coset_stabilizers_of_the_classes_and_normalized_caps():
    for k in range(4):
        for rep in _full_cap_classes(k).reps:
            assert_same_stabilizer(rep, k)
    orders = {len(assert_same_stabilizer(cap, 3))
              for cap in _normalized_full_caps(3).found}
    assert orders == {144}


def test_coset_stabilizer_of_the_n4_witness():
    witness = max_capset(4).witness.points
    assert len(assert_same_stabilizer(witness, 4)) == 2_880


@lru_cache(maxsize=None)
def intransitive_caps_3(count: int) -> tuple[tuple[int, ...], ...]:
    """Seeded spanning caps of F_3^3 of 5 to 8 points, none of them
    maximum, whose stabilizer does not send the least point to every
    other point: the stabilizer finds no certificate for some origin."""
    rng = random.Random(21)
    caps = []
    while len(caps) < count:
        points = tuple(sorted(rng.sample(range(27), rng.randint(5, 8))))
        try:
            framed = FramedCap(points, 3)
        except ValueError:
            continue
        if not is_progression_free(PointSet(3, points)):
            continue
        if len({g[points[0]] for g in framed.stabilizer()}) < len(points):
            caps.append(points)
    return tuple(caps)


def test_coset_stabilizers_of_intransitive_caps():
    caps = intransitive_caps_3(12)
    assert {len(cap) for cap in caps} >= {6, 7}
    for cap in caps:
        assert_same_stabilizer(cap, 3)
    for cap in caps[:2]:
        assert set(FramedCap(cap, 3).stabilizer()) == (
            brute_force_stabilizer_3(cap))


@pytest.mark.parametrize("part", ["coset", "certificate"])
def test_corrupted_stabilizer_map_raises(monkeypatch, part):
    (rep,) = _full_cap_classes(3).reps
    if part == "coset":
        # one composed table swaps an image inside the cap with one
        # outside: still a bijection, no longer onto the cap
        outside = next(x for x in range(27) if x not in rep)
        compose = affine._compose
        calls = []

        def corrupt(t, h):
            g = list(compose(t, h))
            calls.append(len(calls))
            if len(calls) == 5:
                i, j = g.index(rep[1]), g.index(outside)
                g[i], g[j] = g[j], g[i]
            return tuple(g)

        monkeypatch.setattr(affine, "_compose", corrupt)
    else:
        # the identity sends the cap onto itself, but not its frame to
        # any certificate but the frame itself
        monkeypatch.setattr(FramedCap, "affine_map",
                            lambda self, image: tuple(range(3**self.n)))
    with pytest.raises(ArithmeticError, match="no affine automorphism"):
        FramedCap(rep, 3).stabilizer()
    if part == "coset":
        assert len(calls) == 5
