"""Property tests for the three pipelines built on the transforms and the
tight subgraph: ``optimum_matching`` under every strategy, the optimal
edges of any graph, and preallocation. Graphs of any shape (either side
larger, edgeless, with or without a matching covering the smaller side),
compared with the brute-force optima of the test suite and, on sides up
to 8, with the maximum cardinality networkx finds. On square graphs with
sides up to 8, the optimal edges from a certificate's own matching equal
those found through Hopcroft-Karp, and the ``enumerate`` JSON writer
prints what ``json.dumps`` prints. On tie-heavy square graphs the
minimum-weight stream and the preallocation are the same for either
certificate, with its own matching or with a Hopcroft-Karp root."""

import pytest

pytest.importorskip("hypothesis")

import json  # noqa: E402
from itertools import islice  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (AUTO, FULL_DOUBLING, MAX_ABS_WEIGHT, STRATEGIES,  # noqa: E402
                      CoverageRequired, EdgeSet, WeightedBipartiteGraph,
                      iter_min_weight_perfect_matchings, optimal_edges,
                      optimal_edges_general, optimum_matching, preallocate, solve_exact,
                      solve_via_rounding)
from bipmatch.cli import _json_lines  # noqa: E402

from conftest import (brute_force_optimum, brute_force_optimum_matchings,  # noqa: E402
                      networkx_cardinality)

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


def covers_smaller_side(graph: WeightedBipartiteGraph) -> bool:
    return brute_force_optimum(graph)[0] == min(graph.n_left, graph.n_right)


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_matching_every_strategy(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind]))
    expected = brute_force_optimum(graph)
    covered = covers_smaller_side(graph)
    for strategy in STRATEGIES + (AUTO,):
        if not covered and strategy not in (FULL_DOUBLING, AUTO):
            with pytest.raises(CoverageRequired):
                optimum_matching(graph, strategy)
            continue
        m = optimum_matching(graph, strategy)
        assert m.graph is graph
        assert (m.cardinality, m.weight()) == expected, strategy


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_cardinality_matches_networkx(kind, data):
    # Sides up to 8, beyond the brute-force optima above. Coverage of the
    # smaller side decides which strategies apply.
    graph = data.draw(graphs(WEIGHTS[kind], max_side=8))
    cardinality = networkx_cardinality(graph)
    covered = cardinality == min(graph.n_left, graph.n_right)
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
    covered = covers_smaller_side(graph)
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
    m = preallocate(optimal_edges(graph, solve_exact(graph).prices), prefs)
    assert m.is_perfect
    assert frozenset(m.edge_indices) in optima
    best = max(len(opt & set(prefs)) for opt in optima)
    assert sum(e in prefs for e in m) == best


@KINDS
@RANDOM
@given(data=st.data())
def test_optimal_edges_from_certificate_matching(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind], square=True, max_side=8))
    for solve in (solve_via_rounding, solve_exact):
        result = solve(graph)
        through_hk = optimal_edges(graph, result.prices)
        assert optimal_edges(graph, result.prices, result.matching) == through_hk


@KINDS
@RANDOM
@given(data=st.data())
def test_enumerate_json_writer(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind], square=True, max_side=8))
    for g in (graph, WeightedBipartiteGraph(0, 0, [])):
        line = _json_lines(g)
        matchings = iter_min_weight_perfect_matchings(g, solve_exact(g).prices)
        for m in islice(matchings, 30):
            assert line(m) == json.dumps(m.to_json(), sort_keys=True)


@RANDOM
@given(data=st.data())
def test_enumeration_does_not_depend_on_certificate(data):
    graph = data.draw(graphs(st.sampled_from((0, 0, 1, 2)), square=True, max_side=7))
    exact, rounding = solve_exact(graph), solve_via_rounding(graph)
    streams = [[m.edge_indices for m in islice(matchings, 1000)] for matchings in (
        iter_min_weight_perfect_matchings(graph, exact.prices, exact.matching),
        iter_min_weight_perfect_matchings(graph, rounding.prices, rounding.matching),
        iter_min_weight_perfect_matchings(graph, rounding.prices))]
    assert streams[0] == streams[1] == streams[2]


@settings(deadline=None, max_examples=150)
@given(n=st.integers(5, 8), rng=st.randoms(use_true_random=False))
def test_preallocation_does_not_depend_on_certificate(n, rng):
    # Tie-heavy square graphs, about 60% of the cells edges and about 30% of
    # the edges preferred. The exact and the rounding prices often make
    # different tight subgraphs here, but one set of optimal edges, and
    # preallocate answers on that set. Sides start at 5: on smaller graphs,
    # solving on the tight subgraph instead rarely changes the tie-break.
    cells = set(enumerate(rng.sample(range(n), n)))
    cells |= {(u, v) for u in range(n) for v in range(n) if rng.random() < 0.6}
    graph = WeightedBipartiteGraph(n, n, [(u, v, rng.choice((0, 0, 1, 2)))
                                          for u, v in rng.sample(sorted(cells), len(cells))])
    prefs = EdgeSet(graph, [e for e in range(graph.edge_count) if rng.random() < 0.3])
    exact, rounding = solve_exact(graph), solve_via_rounding(graph)
    answers = [preallocate(optimal_edges(graph, *certificate), prefs).edge_indices
               for certificate in ((exact.prices, exact.matching),
                                   (rounding.prices, rounding.matching),
                                   (rounding.prices,))]
    assert answers[0] == answers[1] == answers[2]
