"""Maximum-cardinality matching against a brute-force oracle."""

import random

import pytest

from bipmatch import Matching, WeightedBipartiteGraph, max_cardinality_matching

from conftest import brute_force_optimum_matchings, make_any_graph


def test_fig1_perfect(fig1):
    m = max_cardinality_matching(fig1)
    assert m.cardinality == 3
    assert m.is_perfect


def test_edgeless():
    g = WeightedBipartiteGraph(2, 2, [])
    assert max_cardinality_matching(g).cardinality == 0


def test_star_with_leaves_on_large_side():
    g = WeightedBipartiteGraph(3, 1, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    assert max_cardinality_matching(g).cardinality == 1


def test_cardinality_matches_brute_force():
    rng = random.Random(1001)
    for _ in range(250):
        g = make_any_graph(rng, n_max=6)
        best = max(len(s) for s in brute_force_optimum_matchings(g))
        assert max_cardinality_matching(g).cardinality == best


def test_deterministic():
    rng = random.Random(77)
    for _ in range(30):
        g = make_any_graph(rng, n_max=6)
        first = max_cardinality_matching(g)
        assert all(max_cardinality_matching(g) == first for _ in range(3))


def test_edge_subset_restriction(fig1):
    # keep only the weight-5 perfect matching's edges plus one distractor
    m = max_cardinality_matching(fig1, [0, 3, 4, 1])
    assert m.cardinality == 3
    assert set(m.edge_indices) == {0, 3, 4}


def test_result_is_valid_matching():
    rng = random.Random(555)
    for _ in range(100):
        g = make_any_graph(rng, n_max=6)
        m = max_cardinality_matching(g)
        # constructor re-validates vertex-disjointness
        assert Matching(g, m.edge_indices) == m


def test_long_augmenting_chain():
    # path graph forcing an augmentation that rewires every prior edge
    n = 60
    edges = []
    for u in range(n):
        edges.append((u, u, 0))
        if u + 1 < n:
            edges.append((u, u + 1, 0))
    g = WeightedBipartiteGraph(n, n, edges)
    assert max_cardinality_matching(g).cardinality == n


@pytest.mark.parametrize("bad", [6, -2])
def test_subset_index_out_of_range(fig1, bad):
    # -2 would otherwise wrap round to edge 4, which no matching here uses,
    # so nothing downstream would notice
    with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
        max_cardinality_matching(fig1, [0, bad, 2])
