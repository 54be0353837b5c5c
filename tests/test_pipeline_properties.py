"""Property tests for the three pipelines built on the transforms and the
tight subgraph: ``optimum_matching`` and the paper's three reductions,
the optimal edges of any graph, and preallocation. Graphs of any shape
(either side larger, edgeless, with or without a matching covering the
smaller side), compared with the brute-force optima of the test suite
and, on sides up to 8, with the maximum cardinality networkx finds. On
sides up to 30, ``optimum_matching`` agrees with scipy's rectangular
assignment solver on cardinality and weight. On graphs whose smaller side
cannot be covered, which it splits in two, it agrees with brute force on
sides up to 6 and with scipy on sides up to 30. On square graphs with
sides up to 8, the optimal edges from a certificate's own matching equal
those found through Hopcroft-Karp, and the ``enumerate`` JSON writer
prints what ``json.dumps`` prints. On tie-heavy square graphs the
minimum-weight stream and the preallocation are the same for either
certificate, with its own matching or with a Hopcroft-Karp root."""

import pytest

pytest.importorskip("hypothesis")

import json  # noqa: E402
import random  # noqa: E402
from itertools import islice  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (FULL_DOUBLING, MAX_ABS_WEIGHT, EdgeSet, Infeasible,  # noqa: E402
                      WeightedBipartiteGraph, choose_strategy,
                      iter_min_weight_perfect_matchings, max_cardinality_matching, optimal_edges,
                      optimal_edges_general, optimum_matching, preallocate, solve_exact,
                      solve_via_rounding)
from bipmatch.cli import _json_lines  # noqa: E402

from conftest import (REDUCTIONS, brute_force_optimum,  # noqa: E402
                      brute_force_optimum_matchings, networkx_cardinality,
                      reduced_optimal_edges, reduced_optimum)
from reductions import first_doubling  # noqa: E402

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


# The weight families above, drawn from a seeded generator: graphs with
# sides up to 30 have too many edges to draw each weight through hypothesis.
RANDOM_WEIGHTS = {
    "ties": lambda rng: rng.randint(0, 2),
    "small": lambda rng: rng.randint(-50, 50),
    "huge": lambda rng: rng.choice([-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT, 1 - MAX_ABS_WEIGHT,
                                    MAX_ABS_WEIGHT - 1,
                                    rng.randint(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)]),
}


def rectangular_assignment(graph: WeightedBipartiteGraph) -> tuple[int, int]:
    """(cardinality, weight) of an optimum matching, from scipy's
    rectangular ``linear_sum_assignment``. Each edge earns a bonus larger
    than the weight of any matching, as in the benchmark's oracle, so a
    larger matching always costs less; a missing edge costs 0. Costs stay
    below 2**47 in magnitude and every sum below 2**53, so the float
    arithmetic is exact."""
    scipy_optimize = pytest.importorskip("scipy.optimize")
    np = pytest.importorskip("numpy")
    if not graph.edge_count:
        return 0, 0
    span = 2 * graph.max_abs_weight + 1
    bonus = span * (min(graph.n_left, graph.n_right) + 1)
    cost = np.zeros((graph.n_left, graph.n_right))
    for u, v, w in graph.edges:
        cost[u, v] = w - bonus
    rows, cols = scipy_optimize.linear_sum_assignment(cost)
    chosen = [e for e in map(graph.edge_index, rows.tolist(), cols.tolist()) if e is not None]
    return len(chosen), sum(map(graph.weight, chosen))


def covers_smaller_side(graph: WeightedBipartiteGraph) -> bool:
    return brute_force_optimum(graph)[0] == min(graph.n_left, graph.n_right)


def solvable_reductions(graph: WeightedBipartiteGraph, covered: bool):
    """(verdict, reduction) for each reduction of ``graph`` with a perfect
    matching: all three when the smaller side can be covered, else full
    doubling alone, after checking that ``solve_exact`` refuses the other
    two with ``Infeasible``."""
    for strategy, reduce in REDUCTIONS.items():
        transformed = reduce(graph)
        if covered or strategy == FULL_DOUBLING:
            yield strategy, transformed
        else:
            with pytest.raises(Infeasible):
                solve_exact(transformed.graph)


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_matching_every_strategy(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind]))
    expected = brute_force_optimum(graph)
    for strategy, transformed in solvable_reductions(graph, covers_smaller_side(graph)):
        m = reduced_optimum(transformed)
        assert m.graph is graph
        assert (m.cardinality, m.weight()) == expected, strategy
    m = optimum_matching(graph)
    assert m.graph is graph
    assert (m.cardinality, m.weight()) == expected


@KINDS
@RANDOM
@given(data=st.data())
def test_optimum_cardinality_matches_networkx(kind, data):
    # Sides up to 8, beyond the brute-force optima above. Coverage of the
    # smaller side decides which reductions have a perfect matching.
    graph = data.draw(graphs(WEIGHTS[kind], max_side=8))
    cardinality = networkx_cardinality(graph)
    covered = cardinality == min(graph.n_left, graph.n_right)
    assert optimum_matching(graph).cardinality == cardinality
    for strategy, transformed in solvable_reductions(graph, covered):
        assert reduced_optimum(transformed).cardinality == cardinality, strategy


@KINDS
@RANDOM
@given(n=st.integers(0, 30), s=st.integers(0, 30), cover=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_auto_matches_rectangular_assignment(kind, n, s, cover, seed):
    # Half the graphs hide a matching that covers the smaller side, so AUTO
    # solves them directly; the others are often split. Every graph is also
    # run with its sides exchanged.
    rng = random.Random(seed)
    cells = set()
    if cover:
        hidden = rng.sample(range(max(n, s)), min(n, s))
        cells = {(i, j) if n <= s else (j, i) for i, j in enumerate(hidden)}
    density = rng.random() ** 2
    cells |= {(u, v) for u in range(n) for v in range(s) if rng.random() < density}
    weight = RANDOM_WEIGHTS[kind]
    edges = [(u, v, weight(rng)) for u, v in rng.sample(sorted(cells), len(cells))]
    graph = WeightedBipartiteGraph(n, s, edges)
    expected = rectangular_assignment(graph)
    for g in (graph, WeightedBipartiteGraph(s, n, [(v, u, w) for u, v, w in edges])):
        m = optimum_matching(g)
        assert m.graph is g
        assert (m.cardinality, m.weight()) == expected
        oracle = reduced_optimal_edges(REDUCTIONS[choose_strategy(max_cardinality_matching(g))](g))
        assert optimal_edges_general(g) == oracle


def hall_violator(rng, n: int, s: int, weight) -> WeightedBipartiteGraph:
    """A graph with sides n, s >= 1 whose smaller side (the left one when
    the sides are equal) cannot be covered: a set D of a of its vertices
    has edges only into a set of a - 1 vertices of the other side. When
    a = 1, a vertex of D has no edges, and a piece of the split may have
    an empty side. Every other cell is an edge with one random density, at
    times 0 or 1, and the edges come in shuffled order."""
    small, large = min(n, s), max(n, s)
    a = rng.randint(1, small)
    deficient, reach = set(rng.sample(range(small), a)), set(rng.sample(range(large), a - 1))
    density = rng.choice([0.0, 1.0, rng.random(), rng.random() ** 2])
    cells = [(x, y) for x in range(small) for y in range(large)
             if (x not in deficient or y in reach) and rng.random() < density]
    rng.shuffle(cells)
    pairs = cells if n <= s else [(y, x) for x, y in cells]
    return WeightedBipartiteGraph(n, s, [(u, v, weight(rng)) for u, v in pairs])


def check_auto_on_hall_violator(graph: WeightedBipartiteGraph, expected) -> None:
    """AUTO on the graph and on its transposed copy, which violates Hall's
    condition as well, gives the expected (cardinality, weight), and the
    optimal edges those of the full doubling."""
    flipped = WeightedBipartiteGraph(graph.n_right, graph.n_left,
                                     [(v, u, w) for u, v, w in graph.edges])
    for g in (graph, flipped):
        assert choose_strategy(max_cardinality_matching(g)) == FULL_DOUBLING
        m = optimum_matching(g)
        assert m.graph is g
        assert (m.cardinality, m.weight()) == expected
        assert optimal_edges_general(g) == reduced_optimal_edges(first_doubling(g))


# 3 x 500 examples against brute force and 3 x 300 against scipy: AUTO's
# split runs on 2400 Hall violators, each in both orientations. Hypothesis
# draws a seed only, here and wherever a test makes many random calls:
# each is slow through ``st.randoms``.
@KINDS
@settings(deadline=None, max_examples=500)
@given(n=st.integers(1, 6), s=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_auto_on_hall_violators_matches_brute_force(kind, n, s, seed):
    graph = hall_violator(random.Random(seed), n, s, RANDOM_WEIGHTS[kind])
    optima = brute_force_optimum_matchings(graph)
    assert set(optimal_edges_general(graph).edge_indices) == set().union(*optima)
    check_auto_on_hall_violator(graph, (len(optima[0]), sum(map(graph.weight, optima[0]))))


@KINDS
@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 30), s=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_auto_on_hall_violators_matches_rectangular_assignment(kind, n, s, seed):
    graph = hall_violator(random.Random(seed), n, s, RANDOM_WEIGHTS[kind])
    check_auto_on_hall_violator(graph, rectangular_assignment(graph))


@KINDS
@RANDOM
@given(data=st.data())
def test_optimal_edges_are_union_of_optima(kind, data):
    graph = data.draw(graphs(WEIGHTS[kind]))
    union = set().union(*brute_force_optimum_matchings(graph))
    assert set(optimal_edges_general(graph).edge_indices) == union
    for strategy, transformed in solvable_reductions(graph, covers_smaller_side(graph)):
        assert set(reduced_optimal_edges(transformed).edge_indices) == union, strategy


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
@given(n=st.integers(5, 8), seed=st.integers(0, 2**32 - 1))
def test_preallocation_does_not_depend_on_certificate(n, seed):
    # Tie-heavy square graphs, about 60% of the cells edges and about 30% of
    # the edges preferred. The exact and the rounding prices often make
    # different tight subgraphs here, but one set of optimal edges, and
    # preallocate answers on that set. Sides start at 5: on smaller graphs,
    # solving on the tight subgraph instead rarely changes the tie-break.
    rng = random.Random(seed)
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
