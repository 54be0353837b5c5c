"""Preference-maximizing optimal matchings."""

import random

import pytest

from bipmatch import (DualPrices, EdgeSet, Infeasible, ParseError, WeightedBipartiteGraph,
                      parse_preferences, preallocate, solve_exact)

from conftest import M_STAR, brute_force_min_weight_pms, make_feasible_square


class TestParsePreferences:
    def test_basic(self, fig1):
        prefs = parse_preferences("c note\nf 2 3\nf 1 1\n", fig1)
        assert prefs.edge_indices == (0, 3)

    def test_unknown_edge(self, fig1):
        with pytest.raises(ParseError) as err:
            parse_preferences("f 1 3\n", fig1)
        assert err.value.line == 1

    def test_malformed(self, fig1):
        with pytest.raises(ParseError, match="malformed"):
            parse_preferences("f 1\n", fig1)


class TestPreallocate:
    def test_unsatisfiable_preference(self, fig1, fig1_p1):
        # the only optimal matching avoids u1v2 entirely
        m = preallocate(fig1, fig1_p1, EdgeSet(fig1, [3]))
        assert m.edge_indices == M_STAR
        assert len(set(m.edge_indices) & {3}) == 0

    def test_preference_breaks_tie(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)])
        prices = DualPrices([5, 5], [0, 0])
        m = preallocate(g, prices, EdgeSet(g, [1]))  # prefer u0v1
        assert set(m.edge_indices) == {1, 2}

    def test_empty_preferences(self, fig1, fig1_p1):
        m = preallocate(fig1, fig1_p1, EdgeSet(fig1, []))
        assert m.edge_indices == M_STAR

    def test_suboptimal_prices_raise(self, fig1):
        low = DualPrices([-10, -10, -10], [0, 0, 0])
        with pytest.raises(Infeasible):
            preallocate(fig1, low, EdgeSet(fig1, []))

    def test_wrong_graph_rejected(self, fig1, fig1_p1):
        other = WeightedBipartiteGraph(3, 3, list(fig1.edges))
        with pytest.raises(ValueError, match="different graph"):
            preallocate(fig1, fig1_p1, EdgeSet(other, []))

    def test_output_optimal_and_preference_maximal(self):
        rng = random.Random(31415)
        for _ in range(200):
            g = make_feasible_square(rng, n_max=6)
            prices = solve_exact(g).prices
            prefs = EdgeSet(
                g, rng.sample(range(g.edge_count), rng.randint(0, g.edge_count)))
            m = preallocate(g, prices, prefs)
            optima = brute_force_min_weight_pms(g)
            assert m.weight() == optima[0].weight()
            best = max(len(set(opt.edge_indices) & set(prefs)) for opt in optima)
            assert len(set(m.edge_indices) & set(prefs)) == best

    def test_preferred_outside_tight_subgraph_never_used(self):
        rng = random.Random(92653)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            prices = solve_exact(g).prices
            prefs = EdgeSet(g, range(g.edge_count))  # prefer everything
            m = preallocate(g, prices, prefs)
            union = set()
            for opt in brute_force_min_weight_pms(g):
                union.update(opt.edge_indices)
            assert set(m.edge_indices) <= union
