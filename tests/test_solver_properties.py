"""Property tests for both solvers: certificates check out in exact
integers and the optimum weight agrees with scipy's assignment solver.
The exact solver's warm start agrees with a cold start, scipy's, on
feasibility and optimum weight, and refuses a graph without a perfect
matching in the words of the one perfect-matching check."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
np = pytest.importorskip("numpy")
scipy_optimize = pytest.importorskip("scipy.optimize")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (MAX_ABS_WEIGHT, Infeasible, WeightedBipartiteGraph,  # noqa: E402
                      check_complementary_slackness, check_eps_optimal,
                      solve_auction, solve_exact, solve_via_rounding)
from bipmatch.matching import _perfect_matching  # noqa: E402

WEIGHTS = {
    "ties": st.integers(0, 2),
    "small": st.integers(-50, 50),
    "huge": st.one_of(
        st.sampled_from([-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT,
                         1 - MAX_ABS_WEIGHT, MAX_ABS_WEIGHT - 1]),
        st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)),
}


@st.composite
def squares(draw, weights, max_n=6, feasible=True):
    """A square graph with extra edges and a shuffled edge order (the order
    decides ties). It hides a perfect matching when ``feasible`` is set and
    otherwise need not have one."""
    n = draw(st.integers(0, max_n))
    cells = set()
    if feasible:
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
    """``solve_exact`` gives an integral certificate at scipy's weight,
    searching at most once per left vertex, or raises the Infeasible of
    ``_perfect_matching``."""
    try:
        _perfect_matching(graph)
    except Infeasible as checked:
        with pytest.raises(Infeasible) as refused:
            solve_exact(graph)
        assert str(refused.value) == str(checked)
        return
    r = solve_exact(graph)
    assert r.matching.is_perfect
    assert r.prices.den == 1
    assert check_complementary_slackness(graph, r.matching, r.prices)
    assert r.matching.weight() == lsa_weight(graph)
    assert r.stats.iterations <= graph.n_left


def check_warm_against_cold(graph: WeightedBipartiteGraph) -> None:
    """The warm start of ``solve_exact`` and a cold start -- scipy's
    shortest augmenting paths, which begin at zero potentials and an empty
    assignment -- both refuse the graph, or agree on the optimum weight."""
    try:
        cold = lsa_weight(graph)
    except ValueError:
        with pytest.raises(Infeasible):
            _perfect_matching(graph)
        check_exact(graph)
        return
    check_exact(graph)
    assert solve_exact(graph).matching.weight() == cold


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
# Infeasible squares without an isolated vertex, which the exact solver
# must refuse after its searches rather than up front.
SMALLEST_INFEASIBLE = [
    WeightedBipartiteGraph(3, 3, [(0, 0, MAX_ABS_WEIGHT), (1, 0, -MAX_ABS_WEIGHT),
                                  (2, 0, 0), (2, 1, 1), (2, 2, 2)]),
    WeightedBipartiteGraph(4, 4, [(u, v, (u + v) % 3) for u in range(3) for v in range(2)]
                           + [(3, v, 0) for v in range(4)]),
]
KINDS = pytest.mark.parametrize("kind", sorted(WEIGHTS))
RANDOM = settings(deadline=None, max_examples=60)


@pytest.mark.parametrize("graph", SMALLEST, ids=["empty", "zero", "min", "max"])
def test_smallest_instances(graph):
    check_exact(graph)
    check_auction_and_rounding(graph)


@pytest.mark.parametrize("graph", SMALLEST_INFEASIBLE, ids=["3x3", "4x4"])
def test_smallest_infeasible_instances(graph):
    with pytest.raises(Infeasible):
        _perfect_matching(graph)
    check_exact(graph)


@KINDS
@RANDOM
@given(data=st.data())
def test_exact(kind, data):
    check_exact(data.draw(squares(WEIGHTS[kind])))


@KINDS
@RANDOM
@given(data=st.data())
def test_auction_and_rounding(kind, data):
    check_auction_and_rounding(data.draw(squares(WEIGHTS[kind])))


@KINDS
@RANDOM
@given(data=st.data())
def test_warm_start_matches_cold_start(kind, data):
    feasible = data.draw(st.booleans())
    check_warm_against_cold(data.draw(squares(WEIGHTS[kind], feasible=feasible)))
