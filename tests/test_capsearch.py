"""Search oracle cross-checks: brute force over all subsets at tiny n, an
independent include/exclude search with no symmetry reduction at n = 3,
and the affine-invariance sanity properties."""
import random
from itertools import combinations

import pytest

from capbound.capsearch import (
    PointSet,
    complete_triple,
    decode_point,
    encode_point,
    is_progression_free,
    max_capset,
)


def brute_force_max(n: int) -> int:
    """Check every subset (only viable for 3^n <= 9 points)."""
    points = range(3**n)
    best = 0
    for k in range(3**n, 0, -1):
        for subset in combinations(points, k):
            if is_progression_free(PointSet(3, n, subset)):
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
    for p in (2, 5):
        for idx in range(p**3):
            assert encode_point(decode_point(idx, 3, p), p) == idx
    assert encode_point((1, 4), 5) == 9
    with pytest.raises(ValueError):
        encode_point((0, 5), 5)


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
    assert is_progression_free(PointSet(3, n, points)) is expected


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
        assert max_capset(n).witness == PointSet(3, n, points)


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
            PointSet(3, 3, tuple(encode_point(v) for v in moved)))


def test_capset_validation():
    with pytest.raises(ValueError):
        PointSet(3, 1, (0, 3))
    with pytest.raises(ValueError):
        PointSet(3, 1, (0, 0))
    with pytest.raises(ValueError):
        is_progression_free(PointSet(5, 1, (0, 1)))
    with pytest.raises(ValueError):
        max_capset(0)
