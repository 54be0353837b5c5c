"""Property tests for Hopcroft-Karp and the allowed-edge filter: the
maximum cardinality agrees with networkx on graphs of any shape, and the
allowed edges of a zero-weight graph are the union of its perfect
matchings."""

import pytest

pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (Infeasible, WeightedBipartiteGraph, allowed_edges,  # noqa: E402
                      max_cardinality_matching)

from conftest import brute_force_min_weight_pms  # noqa: E402


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


def networkx_cardinality(graph: WeightedBipartiteGraph, subset) -> int:
    g = nx.Graph()
    top = [("u", u) for u in range(graph.n_left)]
    g.add_nodes_from(top)
    g.add_nodes_from(("v", v) for v in range(graph.n_right))
    for e in range(graph.edge_count) if subset is None else subset:
        u, v = graph.endpoints(e)
        g.add_edge(("u", u), ("v", v))
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)) // 2


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
    kept = sorted(set(range(graph.edge_count) if subset is None else subset))
    sub = WeightedBipartiteGraph(graph.n_left, graph.n_right,
                                 [graph.edges[e] for e in kept])
    perfect = brute_force_min_weight_pms(sub)  # every one: all weights are 0
    if not perfect:
        with pytest.raises(Infeasible):
            allowed_edges(graph, subset)
        return
    union = {kept[e] for m in perfect for e in m.edge_indices}
    assert set(allowed_edges(graph, subset).indices) == union
