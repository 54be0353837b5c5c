"""Property tests for Hopcroft-Karp, the allowed-edge filter and the
enumeration: the maximum cardinality agrees with networkx on graphs of
any shape; Hopcroft-Karp on two vertex-disjoint parts returns the union
of its matchings on each part; the allowed edges of a zero-weight graph are the union of its
perfect matchings; and the enumeration yields each perfect matching
exactly once."""

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (Infeasible, WeightedBipartiteGraph, allowed_edges,  # noqa: E402
                      iter_perfect_matchings, max_cardinality_matching)

from conftest import brute_force_min_weight_pms, networkx_cardinality  # noqa: E402


@st.composite
def graphs_with_subset(draw, max_side):
    """A graph of any shape (either side larger, edgeless, with or without
    a perfect matching; square ones often hide one) in shuffled edge
    order, and either None or an edge subset given unsorted and with
    repeats."""
    n = draw(st.integers(0, max_side))
    s = n if draw(st.booleans()) else draw(st.integers(0, max_side))
    cells = set()
    if n == s and draw(st.booleans()):
        cells = set(enumerate(draw(st.permutations(range(n)))))  # hidden perfect matching
    if n and s:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, s - 1))
        cells |= draw(st.sets(cell, max_size=n * s))
    order = draw(st.permutations(sorted(cells)))
    graph = WeightedBipartiteGraph(n, s, [(u, v, 0) for u, v in order])
    subset = None
    if order:
        subset = draw(st.none() | st.lists(st.integers(0, len(order) - 1),
                                           max_size=2 * len(order)))
    return graph, subset


def _unsorted_with_repeats(draw, edges):
    """All of ``edges`` or a random choice of them, with repeats, shuffled."""
    if not edges:
        return []
    extra = st.lists(st.sampled_from(edges), max_size=len(edges))
    kept = list(edges) if draw(st.integers(0, 2)) else draw(extra)
    return draw(st.permutations(kept + draw(extra)))


@st.composite
def two_part_subsets(draw, max_side):
    """A graph with each vertex in part 0 or part 1 (the parts interleave
    in vertex index; most graphs are square, and most square ones hide a
    perfect matching inside the parts), edges within and across the parts
    in shuffled order, and one subset of edges per part, each unsorted and
    with repeats."""
    n = draw(st.integers(0, max_side))
    s = n if draw(st.integers(0, 3)) else draw(st.integers(0, max_side))
    left_part = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    right_part = draw(st.lists(st.integers(0, 1), min_size=s, max_size=s))
    cells = set()
    if n == s and draw(st.integers(0, 3)):
        hidden = draw(st.permutations(range(n)))
        cells = set(enumerate(hidden))
        for u, v in cells:
            right_part[v] = left_part[u]
    pairs = [(u, v) for u in range(n) for v in range(s)]
    inside = [(u, v) for u, v in pairs if left_part[u] == right_part[v]]
    across = [(u, v) for u, v in pairs if left_part[u] != right_part[v]]
    for some in (inside, across):
        if some:
            cells |= draw(st.sets(st.sampled_from(some), min_size=len(some) // 3,
                                  max_size=len(some)))
    order = draw(st.permutations(sorted(cells)))
    graph = WeightedBipartiteGraph(n, s, [(u, v, 0) for u, v in order])
    parts = tuple(_unsorted_with_repeats(
        draw, [e for e, (u, v) in enumerate(order) if left_part[u] == right_part[v] == p])
        for p in (0, 1))
    return graph, parts


def brute_force_perfect_matchings(graph: WeightedBipartiteGraph, subset) -> set:
    """Every perfect matching of the edge subset (all edges for None), as
    frozensets of the graph's edge indices, from the exhaustive oracle run
    on a zero-weight copy of the subgraph."""
    kept = sorted(set(range(graph.edge_count) if subset is None else subset))
    sub = WeightedBipartiteGraph(graph.n_left, graph.n_right,
                                 [graph.endpoints(e) + (0,) for e in kept])
    return {frozenset(kept[e] for e in m.edge_indices) for m in brute_force_min_weight_pms(sub)}


@settings(max_examples=300, deadline=None)
@given(graphs_with_subset(max_side=12))
def test_cardinality_matches_networkx(case):
    graph, subset = case
    matching = max_cardinality_matching(graph, subset)
    given_edges = set(range(graph.edge_count) if subset is None else subset)
    assert set(matching.edge_indices) <= given_edges
    assert matching.cardinality == networkx_cardinality(graph, subset)


@settings(max_examples=300, deadline=None)
@given(graphs_with_subset(max_side=6))
def test_allowed_edges_are_union_of_perfect_matchings(case):
    graph, subset = case
    perfect = brute_force_perfect_matchings(graph, subset)
    if not perfect:
        with pytest.raises(Infeasible):
            allowed_edges(graph, subset)
        return
    assert set(allowed_edges(graph, subset).edge_indices) == set().union(*perfect)


@settings(max_examples=300, deadline=None)
@given(two_part_subsets(max_side=8), st.randoms(use_true_random=False))
def test_hopcroft_karp_on_disjoint_parts_is_the_union(case, rng):
    graph, (first, second) = case
    both = first + second
    rng.shuffle(both)
    union = (max_cardinality_matching(graph, first).edge_indices
             + max_cardinality_matching(graph, second).edge_indices)
    assert max_cardinality_matching(graph, both).edge_indices == tuple(sorted(union))


@settings(max_examples=300, deadline=None)
@given(two_part_subsets(max_side=8), st.randoms(use_true_random=False))
def test_enumeration_yields_each_perfect_matching_once(case, rng):
    graph, (first, second) = case
    subset = first + second
    rng.shuffle(subset)
    produced = [frozenset(m.edge_indices) for m in iter_perfect_matchings(graph, subset)]
    assert len(produced) == len(set(produced))
    assert set(produced) == brute_force_perfect_matchings(graph, subset)
