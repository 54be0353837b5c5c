"""Tight subgraph construction and the brute-force oracle."""

import random

import pytest

from bipmatch import (DualPrices, InfeasibleDual, WeightedBipartiteGraph, build_gcs,
                      gcs_to_json, iter_perfect_matchings, solve_exact, solve_via_rounding)

from conftest import FIG1_EDGES, M_STAR, brute_force_min_weight_pms, make_feasible_square


class TestBuildGcs:
    def test_fig1_p1(self, fig1, fig1_p1):
        tight = build_gcs(fig1, fig1_p1)
        assert set(tight.pairs()) == {(0, 0), (1, 1), (2, 1), (2, 2)}

    def test_fig1_p2(self, fig1, fig1_p2):
        tight = build_gcs(fig1, fig1_p2)
        assert set(tight.pairs()) == {(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)}

    def test_all_zero_everything_tight(self):
        g = WeightedBipartiteGraph(3, 3, [(u, v, 0) for u in range(3) for v in range(3)])
        tight = build_gcs(g, DualPrices([0, 0, 0], [0, 0, 0]))
        assert tight.edge_indices == tuple(range(9))

    def test_infeasible_prices_rejected(self, fig1):
        with pytest.raises(InfeasibleDual):
            build_gcs(fig1, DualPrices([0, 0, 1], [2, 1, 0]))

    def test_infeasible_names_input_edge_and_slack(self):
        # Sides swapped: input edge (1, 2) is internal (u1, v0), the only
        # violated one.
        g = WeightedBipartiteGraph(2, 3, [(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 1),
                                          (1, 2, 5)])
        prices = DualPrices([0, 4, 0], [0, -3])
        with pytest.raises(InfeasibleDual,
                           match=r"^1 edge\(s\) violate dual feasibility, "
                                 r"first \(1, 2\) with slack -1$"):
            build_gcs(g, prices)

    def test_parent_edge_identity(self, fig1, fig1_p1):
        tight = build_gcs(fig1, fig1_p1)
        assert tight.edge_indices == (0, 2, 4, 5)
        assert tight.graph is fig1
        assert 4 in tight and 1 not in tight

    def test_fractional_prices(self, fig1):
        # feasible but non-optimal fractional system: only exact hits stay
        halves = DualPrices.from_values([-2, 0, 1], [3, 1, 0], den=2)
        assert build_gcs(fig1, halves).edge_indices == (0, 2, 4, 5)

    def test_json_shape(self, fig1, fig1_p1):
        blob = gcs_to_json(build_gcs(fig1, fig1_p1), fig1_p1)
        assert blob["edges"] == [[1, 1], [2, 2], [3, 2], [3, 3]]
        assert blob["dropped"] == [[1, 2, 2], [2, 3, 2]]

    def test_json_fractional_slacks(self):
        # Prices in halves: slacks print as reduced fractions, and as plain
        # integers where the fraction reduces to one. Sides swapped, so the
        # labels come back in the input orientation.
        g = WeightedBipartiteGraph(2, 3, [(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 1),
                                          (1, 2, 5)])
        prices = DualPrices([1, 1, 1], [1, 0], den=2)
        blob = gcs_to_json(build_gcs(g, prices), prices)
        assert blob["edges"] == [[1, 1]]
        assert blob["dropped"] == [[1, 2, 2], [2, 1, "3/2"], [2, 2, "1/2"], [2, 3, "9/2"]]


class TestBruteForce:
    def test_fig1_unique_optimum(self, fig1):
        sols = brute_force_min_weight_pms(fig1)
        assert [m.edge_indices for m in sols] == [M_STAR]

    def test_symmetric_two_by_two(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)])
        sols = brute_force_min_weight_pms(g)
        assert {m.edge_indices for m in sols} == {(0, 3), (1, 2)}

    def test_infeasible_graph_empty(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 1)])
        assert brute_force_min_weight_pms(g) == []

    def test_unbalanced_empty(self):
        g = WeightedBipartiteGraph(2, 1, [(0, 0, 1)])
        assert brute_force_min_weight_pms(g) == []

    def test_scale_guard(self):
        g = WeightedBipartiteGraph(9, 9, [])
        with pytest.raises(ValueError, match="limited"):
            brute_force_min_weight_pms(g)


class TestTheorem:
    def test_gcs_matchings_are_the_optimal_ones(self):
        # perfect matchings of the tight subgraph under optimal prices are
        # exactly the minimum-weight perfect matchings
        rng = random.Random(90210)
        for _ in range(150):
            g = make_feasible_square(rng, n_max=7)
            prices = solve_exact(g).prices
            tight = build_gcs(g, prices)
            via_gcs = {m.edge_indices
                       for m in iter_perfect_matchings(g, tight.edge_indices)}
            oracle = {m.edge_indices for m in brute_force_min_weight_pms(g)}
            assert via_gcs == oracle

    def test_different_certificates_same_matchings(self, fig1, fig1_p1, fig1_p2):
        set1 = {m.edge_indices
                for m in iter_perfect_matchings(fig1, build_gcs(fig1, fig1_p1).edge_indices)}
        set2 = {m.edge_indices
                for m in iter_perfect_matchings(fig1, build_gcs(fig1, fig1_p2).edge_indices)}
        assert set1 == set2 == {M_STAR}

    def test_independent_price_systems_agree(self):
        # the exact solver and the rounding pipeline produce different
        # prices; the matchings of their tight subgraphs must still agree
        rng = random.Random(515)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            pa = solve_exact(g).prices
            pb = solve_via_rounding(g).prices
            ma = {m.edge_indices
                  for m in iter_perfect_matchings(g, build_gcs(g, pa).edge_indices)}
            mb = {m.edge_indices
                  for m in iter_perfect_matchings(g, build_gcs(g, pb).edge_indices)}
            assert ma == mb


def test_fig1_edge_list_is_the_fixture(fig1):
    # guard against fixture drift: the tests above hard-code edge indices
    assert fig1.edges == tuple(FIG1_EDGES)
