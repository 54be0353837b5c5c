"""Shared fixtures and brute-force oracles for the test suite."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

import bipmatch.enumeration
import bipmatch.matching
import bipmatch.solvers
import bipmatch.transforms
from bipmatch import (FULL_DOUBLING, HALF_DOUBLING, PADDING, DualPrices, EdgeSet, Matching,
                      WeightedBipartiteGraph, check_eps_optimal, max_cardinality_matching,
                      optimal_edges, solve_exact)

from reductions import (TransformedInstance, artificial_vertices, first_doubling,
                        restrict_back, second_doubling)

# Canonical 3x3 fixture used throughout: two optimal price systems with
# different tight subgraphs but the same (unique) optimal matching.
FIG1_EDGES = [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
FIG1_TEXT = """\
c canonical 3x3 fixture
p bip 3 3 6
e 1 1 1
e 1 2 1
e 2 2 1
e 2 3 2
e 3 2 2
e 3 3 1
"""
# Unique optimal matching {u0v0, u1v1, u2v2}, weight 3; the only other
# perfect matching is {u0v0, u1v2, u2v1}, weight 5.
M_STAR = (0, 2, 5)
M_OTHER = (0, 3, 4)


@pytest.fixture
def fig1():
    return WeightedBipartiteGraph(3, 3, FIG1_EDGES)


@pytest.fixture
def fig1_p1():
    return DualPrices([-2, 0, 1], [3, 1, 0])


@pytest.fixture
def fig1_p2():
    return DualPrices([0, 0, 1], [1, 1, 0])


@pytest.fixture
def hk_calls(monkeypatch):
    """Hopcroft-Karp runs made while the test runs, one list entry per run
    holding the graph it was given: the one in each start of
    ``solve_exact``; those through ``matching._perfect_matching`` (the
    auction's check before bidding, the exact solver's refusal, the
    allowed-edge filter and the tight-subgraph entry); the transforms'
    coverage checks; and ``iter_perfect_matchings``' root."""
    calls = []

    def counting(graph, *args, **kwargs):
        calls.append(graph)
        return max_cardinality_matching(graph, *args, **kwargs)

    for module in (bipmatch.matching, bipmatch.solvers, bipmatch.transforms,
                   bipmatch.enumeration):
        monkeypatch.setattr(module, "max_cardinality_matching", counting)
    return calls


# The paper's reductions to perfect matchings, by ``choose_strategy``'s verdict.
REDUCTIONS = {FULL_DOUBLING: first_doubling, HALF_DOUBLING: second_doubling,
              PADDING: artificial_vertices}


def reduced_optimum(transformed: TransformedInstance) -> Matching:
    """An optimum matching of the parent through the paper's pipeline:
    solve the balanced graph exactly and keep the parent's edges."""
    return restrict_back(transformed, solve_exact(transformed.graph).matching)


def reduced_optimal_edges(transformed: TransformedInstance) -> EdgeSet:
    """The edges of the parent in some optimum matching: the optimal edges
    of the balanced graph that came from the parent."""
    result = solve_exact(transformed.graph)
    lifted = optimal_edges(transformed.graph, result.prices, result.matching)
    return EdgeSet(transformed.parent, transformed.original_edge_indices(lifted.edge_indices))


def make_feasible_square(rng: random.Random, n_max: int = 7,
                         weights=(-9, 9)) -> WeightedBipartiteGraph:
    """Random square graph guaranteed feasible: a hidden permutation
    matching plus a random sprinkle of extra edges."""
    n = rng.randint(1, n_max)
    perm = list(range(n))
    rng.shuffle(perm)
    cells = {(u, perm[u]) for u in range(n)}
    rest = [(u, v) for u in range(n) for v in range(n) if (u, v) not in cells]
    cells.update(rng.sample(rest, rng.randint(0, len(rest))))
    return WeightedBipartiteGraph(
        n, n, [(u, v, rng.randint(*weights)) for (u, v) in sorted(cells)])


def make_any_graph(rng: random.Random, n_max: int = 5,
                   weights=(-9, 9)) -> WeightedBipartiteGraph:
    """Random graph of any shape: possibly unbalanced, possibly without
    any perfect matching, possibly edgeless."""
    n = rng.randint(0, n_max)
    s = rng.randint(0, n_max)
    if n < s:
        n, s = s, n
    cells = [(u, v) for u in range(n) for v in range(s)]
    chosen = rng.sample(cells, rng.randint(0, len(cells))) if cells else []
    return WeightedBipartiteGraph(
        n, s, [(u, v, rng.randint(*weights)) for (u, v) in sorted(chosen)])


def brute_force_optimum_matchings(graph: WeightedBipartiteGraph) -> list[frozenset]:
    """All matchings of maximum cardinality and, among those, minimum
    weight, as frozensets of edge indices. Exponential; sides <= 6 only."""
    assert max(graph.n_left, graph.n_right) <= 6
    results: dict[frozenset, None] = {}
    best = None

    def rec(u, used, chosen, weight):
        nonlocal best
        if u == graph.n_left:
            key = (-len(chosen), weight)
            if best is None or key < best:
                best = key
                results.clear()
                results[frozenset(chosen)] = None
            elif key == best:
                results[frozenset(chosen)] = None
            return
        rec(u + 1, used, chosen, weight)
        for e in graph.left_edges(u):
            v = graph.endpoints(e)[1]
            if not (used >> v) & 1:
                chosen.append(e)
                rec(u + 1, used | (1 << v), chosen, weight + graph.weight(e))
                chosen.pop()

    rec(0, 0, [], 0)
    return list(results)


# Largest side brute_force_min_weight_pms accepts: it walks all n! assignments.
ORACLE_MAX_SIDE = 8


def brute_force_min_weight_pms(graph: WeightedBipartiteGraph) -> list[Matching]:
    """Exhaustive oracle: all minimum-weight perfect matchings.

    Walks every assignment of left to right vertices, so it is held to
    sides of at most ORACLE_MAX_SIDE vertices. Returns an empty list when
    no perfect matching exists. Deterministic order (lexicographic in the
    right-vertex assignment).
    """
    n, s = graph.n_left, graph.n_right
    if max(n, s) > ORACLE_MAX_SIDE:
        raise ValueError(f"brute-force oracle is limited to sides <= {ORACLE_MAX_SIDE}")
    if n != s:
        return []
    best_weight = None
    best: list[list[int]] = []
    for perm in permutations(range(n)):
        edges = [graph.edge_index(u, v) for u, v in enumerate(perm)]
        if None in edges:
            continue
        total = sum(graph.weight(e) for e in edges)
        if best_weight is None or total < best_weight:
            best_weight = total
            best = [edges]
        elif total == best_weight:
            best.append(edges)
    return [Matching(graph, edges) for edges in best]


def brute_force_optimum(graph: WeightedBipartiteGraph) -> tuple[int, int]:
    """(cardinality, weight) of the optimum matchings of ``graph``."""
    sets = brute_force_optimum_matchings(graph)
    some = next(iter(sets))
    return len(some), sum(graph.weight(e) for e in some)


def networkx_cardinality(graph: WeightedBipartiteGraph, subset=None) -> int:
    """Size of a maximum matching of the edge subset (all edges for None),
    by networkx's Hopcroft-Karp."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    top = [("u", u) for u in range(graph.n_left)]
    g.add_nodes_from(top)
    g.add_nodes_from(("v", v) for v in range(graph.n_right))
    for e in range(graph.edge_count) if subset is None else subset:
        u, v = graph.endpoints(e)
        g.add_edge(("u", u), ("v", v))
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)) // 2


def perturbed_eps_pair(graph: WeightedBipartiteGraph, matching: Matching,
                       prices: DualPrices, deltas) -> DualPrices:
    """Shift each right price up by its delta and the matched left price
    down by the same amount: tightness on the matching is preserved and
    feasibility degrades by at most max(deltas)."""
    right = [prices.right_price(v) + d for v, d in enumerate(deltas)]
    left = list(prices.left_prices())
    for e in matching.edge_indices:
        u, v = graph.endpoints(e)
        left[u] -= deltas[v]
    return DualPrices.from_values(left, right)


def reference_select_shift(right_prices, n: int) -> int:
    """The shift rule on Fractions: t is ruled out by a price r when
    t == ceil((n+1) * (ceil(r) - r)) mod (n+1); the smallest survivor."""
    modulus = n + 1
    forbidden = set()
    for value in right_prices:
        r = Fraction(value)
        forbidden.add(math.ceil(modulus * (math.ceil(r) - r)) % modulus)
    for t in range(modulus):
        if t not in forbidden:
            return t
    raise ValueError(f"all {modulus} shift values are ruled out; "
                     f"more than {n} distinct price offsets supplied")


def reference_round_to_optimal(graph: WeightedBipartiteGraph, matching: Matching,
                               prices: DualPrices) -> DualPrices:
    """Price rounding on Fractions, the reference for the integer
    ``round_to_optimal``: the same checks and messages, then each right
    price floored after the shift t/(n+1) and each matched left price
    recomputed from its edge."""
    n = graph.n_left
    modulus = n + 1
    for f in prices.left_prices() + prices.right_prices():
        if modulus % f.denominator != 0:
            raise ValueError(
                f"price {f} has denominator {f.denominator}, which does not divide {modulus}")
    if not check_eps_optimal(graph, matching, prices, Fraction(1, modulus)):
        raise ValueError(f"pair is not epsilon-optimal at epsilon = 1/{modulus}")
    right_values = prices.right_prices()
    step = Fraction(reference_select_shift(right_values, n), modulus)
    new_right = [math.floor(r + step) for r in right_values]
    new_left = [0] * n
    for e in matching.edge_indices:
        u, v = graph.endpoints(e)
        new_left[u] = graph.weight(e) - new_right[v]
    return DualPrices(new_left, new_right, 1)
