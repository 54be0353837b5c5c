"""Property tests for both solvers: certificates check out in exact
integers and the optimum weight agrees with scipy's assignment solver."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")
scipy_optimize = pytest.importorskip("scipy.optimize")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (MAX_ABS_WEIGHT, WeightedBipartiteGraph,  # noqa: E402
                      check_complementary_slackness, check_eps_optimal,
                      solve_auction, solve_exact, solve_via_rounding)

WEIGHTS = {
    "ties": st.integers(0, 2),
    "small": st.integers(-50, 50),
    "huge": st.one_of(
        st.sampled_from([-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT,
                         1 - MAX_ABS_WEIGHT, MAX_ABS_WEIGHT - 1]),
        st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)),
}


@st.composite
def feasible_squares(draw, weights, max_n=6):
    """A square graph with a hidden perfect matching, extra edges and a
    shuffled edge order (the order decides ties)."""
    n = draw(st.integers(0, max_n))
    perm = draw(st.permutations(range(n)))
    cells = {(u, perm[u]) for u in range(n)}
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cells |= draw(st.sets(cell, max_size=n * n))
    order = draw(st.permutations(sorted(cells)))
    ws = draw(st.lists(weights, min_size=len(order), max_size=len(order)))
    return WeightedBipartiteGraph(n, n, [(u, v, w) for (u, v), w in zip(order, ws)])


def lsa_weight(graph: WeightedBipartiteGraph) -> int:
    """Optimum weight from scipy on the dense cost matrix (missing edges
    cost infinity). Every sum stays below 2**53, so the float arithmetic
    is exact."""
    n = graph.n_left
    if n == 0:
        return 0
    cost = np.full((n, n), np.inf)
    for u, v, w in graph.edges:
        cost[u, v] = w
    rows, cols = scipy_optimize.linear_sum_assignment(cost)
    return sum(graph.weight(graph.edge_index(u, v)) for u, v in zip(rows, cols))


def check_exact(graph: WeightedBipartiteGraph) -> None:
    r = solve_exact(graph)
    assert r.matching.is_perfect
    assert r.prices.den == 1
    assert check_complementary_slackness(graph, r.matching, r.prices)
    assert r.matching.weight() == lsa_weight(graph)
    assert r.stats.iterations == graph.n_left


def check_auction_and_rounding(graph: WeightedBipartiteGraph) -> None:
    n = graph.n_left
    approx = solve_auction(graph)
    assert approx.matching.is_perfect
    assert approx.prices.den == n + 1
    assert check_eps_optimal(graph, approx.matching, approx.prices, Fraction(1, n + 1))
    assert approx.matching.weight() == lsa_weight(graph)

    rounded = solve_via_rounding(graph)
    assert rounded.matching == approx.matching
    assert rounded.prices.is_integral
    assert check_complementary_slackness(graph, rounded.matching, rounded.prices)


SMALLEST = [
    WeightedBipartiteGraph(0, 0, []),
    WeightedBipartiteGraph(1, 1, [(0, 0, 0)]),
    WeightedBipartiteGraph(1, 1, [(0, 0, -MAX_ABS_WEIGHT)]),
    WeightedBipartiteGraph(1, 1, [(0, 0, MAX_ABS_WEIGHT)]),
]
KINDS = pytest.mark.parametrize("kind", sorted(WEIGHTS))
RANDOM = settings(deadline=None, max_examples=60)


@pytest.mark.parametrize("graph", SMALLEST, ids=["empty", "zero", "min", "max"])
def test_smallest_instances(graph):
    check_exact(graph)
    check_auction_and_rounding(graph)


@KINDS
@RANDOM
@given(data=st.data())
def test_exact(kind, data):
    check_exact(data.draw(feasible_squares(WEIGHTS[kind])))


@KINDS
@RANDOM
@given(data=st.data())
def test_auction_and_rounding(kind, data):
    check_auction_and_rounding(data.draw(feasible_squares(WEIGHTS[kind])))
