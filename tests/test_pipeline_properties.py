"""Property tests for the three pipelines built on the transforms and the
tight subgraph: ``optimum_matching`` under every strategy, the optimal
edges of any graph, and preallocation. Graphs of any shape (either side
larger, edgeless, with or without a matching covering the right side),
compared with the brute-force optima of the test suite and, on sides up
to 8, with the maximum cardinality networkx finds."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (AUTO, FULL_DOUBLING, MAX_ABS_WEIGHT, STRATEGIES,  # noqa: E402
                      CoverageRequired, EdgeSet, WeightedBipartiteGraph,
                      optimal_edges_general, optimum_matching, preallocate, solve_exact)

from conftest import brute_force_optimum, brute_force_optimum_matchings  # noqa: E402

WEIGHTS = {
    "ties": st.integers(0, 2),
    "small": st.integers(-50, 50),
    "huge": st.one_of(
        st.sampled_from([-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT,
                         1 - MAX_ABS_WEIGHT, MAX_ABS_WEIGHT - 1]),
        st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)),
}
KINDS = pytest.mark.parametrize("kind", sorted(WEIGHTS))
RANDOM = settings(deadline=None, max_examples=60)


@st.composite
def graphs(draw, weights, square=False, max_side=6):
    """A graph with sides 0..max_side in shuffled edge order (the order
    decides ties). Either side may be the larger one. Square graphs hide a
    perfect matching; other graphs may or may not cover their smaller
    side."""
    n = draw(st.integers(0, max_side))
    s = n if square else draw(st.integers(0, max_side))
    cells = set(enumerate(draw(st.permutations(range(n))))) if square else set()
    if n and s:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, s - 1))
        cells |= draw(st.sets(cell, max_size=n * s))
    order = draw(st.permutations(sorted(cells)))
    ws = draw(st.lists(weights, min_size=len(order), max_size=len(order)))
    return WeightedBipartiteGraph(n, s, [(u, v, w) for (u, v), w in zip(order, ws)])


def covers_right_side(graph: WeightedBipartiteGraph) -> bool:
    return brute_force_optimum(graph)[0] == graph.n_right


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_matching_every_strategy(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind]))
    expected = brute_force_optimum(graph)
    covered = covers_right_side(graph)
    for strategy in STRATEGIES + (AUTO,):
        if not covered and strategy not in (FULL_DOUBLING, AUTO):
            with pytest.raises(CoverageRequired):
                optimum_matching(graph, strategy)
            continue
        m = optimum_matching(graph, strategy)
        assert m.graph is graph
        assert (m.cardinality, m.weight()) == expected, strategy


def networkx_cardinality(graph: WeightedBipartiteGraph) -> int:
    """Size of a maximum matching by networkx's Hopcroft-Karp."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    left = [("u", u) for u in range(graph.n_left)]
    g.add_nodes_from(left)
    g.add_nodes_from(("v", v) for v in range(graph.n_right))
    g.add_edges_from((("u", u), ("v", v)) for u, v, _w in graph.edges)
    return len(nx.bipartite.maximum_matching(g, top_nodes=left)) // 2


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_cardinality_matches_networkx(kind, data):
    # Sides up to 8, beyond the brute-force optima above. Coverage of the
    # (smaller) right side decides which strategies apply.
    graph = data.draw(graphs(WEIGHTS[kind], max_side=8))
    cardinality = networkx_cardinality(graph)
    covered = cardinality == graph.n_right
    for strategy in STRATEGIES + (AUTO,):
        if covered or strategy in (FULL_DOUBLING, AUTO):
            assert optimum_matching(graph, strategy).cardinality == cardinality, strategy
        else:
            with pytest.raises(CoverageRequired):
                optimum_matching(graph, strategy)


@KINDS
@RANDOM
@given(data=st.data())
def test_optimal_edges_are_union_of_optima(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind]))
    union = set().union(*brute_force_optimum_matchings(graph))
    covered = covers_right_side(graph)
    for strategy in STRATEGIES + (AUTO,):
        if not covered and strategy not in (FULL_DOUBLING, AUTO):
            with pytest.raises(CoverageRequired):
                optimal_edges_general(graph, strategy)
            continue
        assert set(optimal_edges_general(graph, strategy).edge_indices) == union, strategy


@KINDS
@RANDOM
@given(data=st.data())
def test_preallocate_reaches_best_preferred_count(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind], square=True))
    preferred = data.draw(st.sets(st.integers(0, max(graph.edge_count - 1, 0)),
                                  max_size=graph.edge_count))
    prefs = EdgeSet(graph, preferred)
    optima = brute_force_optimum_matchings(graph)
    m = preallocate(graph, solve_exact(graph).prices, prefs)
    assert m.is_perfect
    assert frozenset(m.edge_indices) in optima
    best = max(len(opt & set(prefs)) for opt in optima)
    assert sum(e in prefs for e in m) == best
