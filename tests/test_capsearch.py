"""Search oracle cross-checks: brute force over all subsets at tiny n, an
independent include/exclude search with no symmetry reduction at n = 3,
the affine-invariance sanity properties, and the steps of the slice-first
refutation: the pair-count identity, the affine generators, the classes
of maximum caps and the extension walk."""
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capbound.capsearch import (
    PointSet,
    _affine_generators,
    _Extend,
    _forced_slice,
    _full_cap_classes,
    _normalized_full_caps,
    _orbit,
    _proven_max,
    _Tables,
    _completion_moves,
    complete_triple,
    decode_point,
    encode_point,
    is_progression_free,
    max_capset,
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
    for n in (1, 2, 3, 4):
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


def test_prune_counts_repeat():
    first, second = max_capset(3), max_capset(3)
    assert first.prunes == second.prunes
    assert set(first.prunes) == {"cardinality"}
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


def all_caps(n: int, k: int) -> set[tuple[int, ...]]:
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
    return found


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


def test_normalized_full_caps_of_f3_cubed():
    assert len(_normalized_full_caps(3).found) == 18
    classes = _full_cap_classes(3)
    assert len(classes.reps) == 1
    assert classes.nodes == _normalized_full_caps(3).nodes


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
    # the walk meets the lex-least 20-point set at node 1,552
    assert c["find_nodes"] == 1_552
    assert (c["forced_slice"], c["refuted_size"], c["full_cap_classes"]) == (
        9, 21, 1)
    assert result.nodes_explored == (c["find_nodes"] + c["collect_nodes"]
                                     + c["refute_nodes"])
    assert set(result.timings_ms) == {"tables", "find", "identity",
                                      "classes", "refute"}


def test_every_budget_short_of_the_proof_leaves_it_open():
    full = max_capset(3)
    for budget in range(1, full.nodes_explored):
        result = max_capset(3, node_budget=budget)
        assert not result.proven_optimal
        assert 0 < result.max_size <= 9
        assert is_progression_free(result.witness)
    assert max_capset(3, node_budget=full.nodes_explored) == full


def test_budgeted_n5_rests_on_a_fast_n4_proof():
    # with the caches cleared, the n = 5 call proves every n <= 4 first
    _proven_max.cache_clear()
    _full_cap_classes.cache_clear()
    started = time.perf_counter()
    result = max_capset(5, node_budget=20_000)
    assert time.perf_counter() - started < 5.0
    assert result.max_size == 38
    assert not result.proven_optimal
    assert result.prunes == {"cardinality": 62_650}
    assert is_progression_free(result.witness)
