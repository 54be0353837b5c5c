"""Edges occurring in some (optimal) perfect matching."""

import random
import tracemalloc

import pytest

from bipmatch import (DualPrices, Infeasible, Matching, NotSquare, WeightedBipartiteGraph,
                      allowed_edges, max_cardinality_matching, optimal_edges, solve_exact,
                      solve_via_rounding)
from bipmatch.allowed import _scc_labels

from conftest import M_OTHER, M_STAR, brute_force_min_weight_pms, make_feasible_square


class TestAllowedEdges:
    def test_fig1(self, fig1):
        # u0v1 is in no perfect matching: only u0 can cover v0
        assert allowed_edges(fig1).edge_indices == (0, 2, 3, 4, 5)

    @pytest.mark.parametrize("matched", [M_STAR, M_OTHER])
    def test_scc_labels_per_edge(self, fig1, matched):
        # Edge 0 is matched on no cycle and edge 1 lies on none; the other
        # four form the one alternating cycle, whichever matching orients it.
        mate_left = Matching(fig1, matched)._mate_left
        labels = _scc_labels(fig1, range(6), mate_left)
        assert labels[:2] == [-1, -1]
        assert labels[2] >= 0 and set(labels[2:]) == {labels[2]}
        # A subset that is one perfect matching holds no cycle.
        assert _scc_labels(fig1, matched, mate_left) == [-1, -1, -1]

    def test_scc_labels_cost_the_subset(self):
        # A 3-edge subset of a graph with 2^16-vertex sides: the search
        # state is sized by the subset, not by a side.
        n = 1 << 16
        g = WeightedBipartiteGraph(n, n, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
        mate = {0: 0, 1: 3}
        tracemalloc.start()
        try:
            labels = _scc_labels(g, (0, 1, 3), mate)
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels == [-1, -1, -1]
        assert peak < 64 * 1024

    def test_scc_labels_path_through_hub(self):
        # Right vertex 2 is free and v0, matched to u0, is priced P too: the
        # even alternating path v0 u0 v1 u1 v2 swaps in edges 2 and 3. No
        # alternating cycle holds them, so only the hub H labels them, with
        # the cycle u0 -> u1 -> H -> u0.
        g = WeightedBipartiteGraph(2, 3, [(0, 0, 0), (1, 1, 0), (0, 1, 0), (1, 2, 0)])
        mate_left = Matching(g, (0, 1))._mate_left
        assert _scc_labels(g, range(4), mate_left) == [-1, -1, -1, -1]
        labels = _scc_labels(g, range(4), mate_left, hub=[0, 2])
        assert labels[2] >= 0 and labels[2:] == [labels[2]] * 2
        assert labels[:2] == [labels[2]] * 2  # u0 and u1 share H's component

    @pytest.mark.parametrize("hub, optimal", [([0, 1], True), ([1], False)])
    def test_scc_labels_hub_keeps_cheaper_vertices_covered(self, hub, optimal):
        # u0 is matched to v0 and has a tight edge to the free v1. Taking it
        # uncovers v0, which an optimum may do only when v0 is priced P,
        # that is, when v0 is in the hub.
        g = WeightedBipartiteGraph(1, 2, [(0, 0, 0), (0, 1, 0)])
        labels = _scc_labels(g, range(2), Matching(g, (0,))._mate_left, hub)
        assert (labels[1] >= 0) is optimal

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

    @pytest.mark.parametrize("n, s, uncovered", [(3, 2, "u3"), (2, 3, "v3")])
    def test_unequal_sides_raise(self, n, s, uncovered):
        # Hopcroft-Karp covers the smaller side, so only the larger one has
        # a vertex to name.
        g = WeightedBipartiteGraph(n, s, [(u, v, 0) for u in range(n) for v in range(s)])
        with pytest.raises(Infeasible, match=r"^no perfect matching: maximum cardinality "
                           f"is 2 of 3; vertex {uncovered} stays uncovered$"):
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

    @pytest.mark.parametrize("n, s", [(3, 2), (2, 3)])
    def test_unequal_sides_raise(self, n, s):
        g = WeightedBipartiteGraph(n, s, [(u, v, 0) for u in range(n) for v in range(s)])
        with pytest.raises(NotSquare, match=f"^perfect matching needs equal sides, "
                           f"got {n} and {s}$"):
            optimal_edges(g, DualPrices([0] * n, [0] * s))

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

    def test_given_matching(self, fig1, fig1_p1, fig1_p2, hk_calls):
        for prices in (fig1_p1, fig1_p2):
            edges = optimal_edges(fig1, prices, Matching(fig1, M_STAR))
            assert edges.edge_indices == (0, 2, 5)
        assert hk_calls == []

    @pytest.mark.parametrize("edges, message", [
        ([0, 2], "perfect matching"),
        # Edge 3 joins left 2 and right 3 with slack 2 under fig1_p1.
        (M_OTHER, r"matched edge \(2, 3\) is not tight"),
    ])
    def test_given_matching_rejected(self, fig1, fig1_p1, edges, message):
        with pytest.raises(ValueError, match=message):
            optimal_edges(fig1, fig1_p1, Matching(fig1, edges))

    def test_matching_of_another_graph_rejected(self, fig1, fig1_p1):
        other = WeightedBipartiteGraph(3, 3, fig1.edges)
        with pytest.raises(ValueError, match="perfect matching of the graph"):
            optimal_edges(fig1, fig1_p1, Matching(other, M_STAR))

    def test_json(self, fig1, fig1_p1):
        assert optimal_edges(fig1, fig1_p1).to_json() == {
            "edges": [[1, 1], [2, 2], [3, 3]]}
