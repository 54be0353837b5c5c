"""Edges occurring in some (optimal) perfect matching."""

import random

import pytest

from bipmatch import (DualPrices, Infeasible, WeightedBipartiteGraph, allowed_edges,
                      max_cardinality_matching, optimal_edges, solve_exact,
                      solve_via_rounding)

from conftest import brute_force_min_weight_pms, make_feasible_square


class TestAllowedEdges:
    def test_fig1(self, fig1):
        # u0v1 is in no perfect matching: only u0 can cover v0
        assert allowed_edges(fig1).edge_indices == (0, 2, 3, 4, 5)

    def test_disjoint_perfect_matching(self):
        g = WeightedBipartiteGraph(4, 4, [(u, u, 1) for u in range(4)])
        assert allowed_edges(g).edge_indices == (0, 1, 2, 3)

    def test_complete_two_by_two(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)])
        assert allowed_edges(g).edge_indices == (0, 1, 2, 3)

    def test_infeasible_raises(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(Infeasible):
            allowed_edges(g)

    @pytest.mark.parametrize("bad", [6, -2])
    def test_subset_index_out_of_range(self, fig1, bad):
        with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
            allowed_edges(fig1, [0, 2, 5, bad])

    def test_superset_of_any_maximum_matching(self):
        rng = random.Random(2718)
        for _ in range(100):
            g = make_feasible_square(rng, n_max=7)
            found = allowed_edges(g)
            witness = max_cardinality_matching(g)
            assert set(witness.edge_indices) <= set(found.edge_indices)

    def test_union_of_all_perfect_matchings(self):
        rng = random.Random(161803)
        for _ in range(150):
            g = make_feasible_square(rng, n_max=6)
            zero = WeightedBipartiteGraph(
                g.n_left, g.n_right, [(u, v, 0) for (u, v, _w) in g.edges])
            union = set()
            for m in brute_force_min_weight_pms(zero):
                union.update(m.edge_indices)
            assert set(allowed_edges(g).edge_indices) == union


class TestOptimalEdges:
    def test_fig1_p1(self, fig1, fig1_p1):
        assert optimal_edges(fig1, fig1_p1).edge_indices == (0, 2, 5)

    def test_fig1_p2_same_answer(self, fig1, fig1_p2):
        assert optimal_edges(fig1, fig1_p2).edge_indices == (0, 2, 5)

    def test_zero_weight_complete_graph(self):
        g = WeightedBipartiteGraph(3, 3, [(u, v, 0) for u in range(3) for v in range(3)])
        prices = DualPrices([0, 0, 0], [0, 0, 0])
        assert optimal_edges(g, prices).edge_indices == tuple(range(9))

    def test_feasible_but_suboptimal_prices_raise(self, fig1):
        # strictly slack everywhere: the tight subgraph is empty
        low = DualPrices([-10, -10, -10], [0, 0, 0])
        with pytest.raises(Infeasible, match="not optimal"):
            optimal_edges(fig1, low)

    def test_equals_union_of_optimal_matchings(self):
        rng = random.Random(42424)
        for _ in range(150):
            g = make_feasible_square(rng, n_max=7)
            prices = solve_exact(g).prices
            union = set()
            for m in brute_force_min_weight_pms(g):
                union.update(m.edge_indices)
            assert set(optimal_edges(g, prices).edge_indices) == union

    def test_price_system_independence(self):
        rng = random.Random(10101)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            pa = solve_exact(g).prices
            pb = solve_via_rounding(g).prices
            assert optimal_edges(g, pa) == optimal_edges(g, pb)

    def test_json(self, fig1, fig1_p1):
        assert optimal_edges(fig1, fig1_p1).to_json() == {
            "edges": [[1, 1], [2, 2], [3, 3]]}
