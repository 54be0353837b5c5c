"""Reductions from optimum matchings to perfect matchings."""

import random

import pytest

from bipmatch import (AUTO, FULL_DOUBLING, HALF_DOUBLING, PADDING, STRATEGIES,
                      CoverageRequired, Matching, WeightedBipartiteGraph,
                      artificial_vertices, choose_strategy, first_doubling,
                      max_cardinality_matching, optimal_edges,
                      optimal_edges_general, optimum_matching, restrict_back,
                      second_doubling, solve_exact)

from conftest import (brute_force_optimum, brute_force_optimum_matchings,
                      make_any_graph, make_feasible_square)

WIDE = [(0, 0, 5), (1, 0, 3)]  # two left vertices, one right vertex


def _links(t):
    """A doubling's link edges: all derived edges after the parent edges
    (0..m-1) and their mirrors (m..2m-1)."""
    return range(2 * t.parent.edge_count, t.graph.edge_count)


class TestFirstDoubling:
    def test_fig1_shape(self, fig1):
        t = first_doubling(fig1)
        assert t.graph.n_left == t.graph.n_right == 6
        assert t.graph.edge_count == 2 * 6 + 3 + 3
        link_weights = {t.graph.weight(e) for e in _links(t)}
        assert link_weights == {12}  # 2 * 3 * 2

    def test_single_edge(self):
        g = WeightedBipartiteGraph(1, 1, [(0, 0, 4)])
        t = first_doubling(g)
        assert t.graph.edge_count == 4
        links = [t.graph.weight(e) for e in _links(t)]
        assert links == [8, 8]  # 2 * 1 * 4

    def test_edgeless_unbalanced(self):
        g = WeightedBipartiteGraph(2, 1, [])
        t = first_doubling(g)
        assert t.graph.edge_count == 3  # links only
        pms = solve_exact(t.graph).matching
        assert restrict_back(t, pms).cardinality == 0

    def test_always_feasible(self):
        rng = random.Random(777)
        for _ in range(50):
            g = make_any_graph(rng)
            t = first_doubling(g)
            assert max_cardinality_matching(t.graph).is_perfect

    def test_link_weight_beyond_input_bound_solves(self):
        # Link weights 2*s*W may exceed MAX_ABS_WEIGHT; the doubled graph is
        # still solved exactly and agrees with padding.
        g = WeightedBipartiteGraph(3, 2, [(0, 0, 2**40), (1, 0, -2**40),
                                          (1, 1, 2**40), (2, 1, 7)])
        t = first_doubling(g)
        assert t.graph.max_abs_weight == 2 * 2 * 2**40
        doubled = optimum_matching(g, FULL_DOUBLING)
        padded = optimum_matching(g, PADDING)
        assert doubled.cardinality == padded.cardinality == 2
        assert doubled.weight() == padded.weight() == 7 - 2**40
        assert doubled.weight() == brute_force_optimum(g)[1]

    def test_mirror_weights(self, fig1):
        t = first_doubling(fig1)
        m = fig1.edge_count
        for e in range(m, 2 * m):
            assert t.graph.weight(e) == fig1.weight(e - m)


class TestSecondDoubling:
    def test_fig1_shape(self, fig1):
        t = second_doubling(fig1, 0)
        assert t.graph.n_left == t.graph.n_right == 6
        assert t.graph.edge_count == 2 * 6 + 3

    def test_k_weight(self, fig1):
        t = second_doubling(fig1, 7)
        ks = [t.graph.weight(e) for e in _links(t)]
        assert ks == [7, 7, 7]

    def test_isolated_right_vertex_gives_infeasible_transform(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2)])  # v1 isolated
        t = second_doubling(g)
        assert not max_cardinality_matching(t.graph).is_perfect

    def test_k_invariance_of_restriction(self, fig1):
        results = set()
        for k in (0, 7):
            t = second_doubling(fig1, k)
            m = restrict_back(t, solve_exact(t.graph).matching)
            results.add((m.cardinality, m.weight()))
        assert len(results) == 1


class TestArtificialVertices:
    def test_balanced_graph_unchanged(self, fig1):
        t = artificial_vertices(fig1)
        assert t.graph.edge_count == fig1.edge_count
        assert t.original_edge_indices(range(t.graph.edge_count)) == list(range(6))

    def test_wide_instance(self):
        g = WeightedBipartiteGraph(2, 1, WIDE)
        t = artificial_vertices(g, 0)
        assert t.graph.n_left == t.graph.n_right == 2
        assert t.graph.edge_count == 4  # m + n*(n-s) = 2 + 2
        n = solve_exact(t.graph).matching
        m = restrict_back(t, n)
        assert [g.endpoints(e) for e in m] == [(1, 0)]
        assert m.weight() == 3


class TestRightLarger:
    def test_every_transform_restricts_to_the_callers_graph(self):
        g = WeightedBipartiteGraph(1, 2, [(0, 0, 5), (0, 1, 3)])
        for t in (first_doubling(g), second_doubling(g), artificial_vertices(g)):
            m = restrict_back(t, solve_exact(t.graph).matching)
            assert m.graph is g
            assert [g.endpoints(e) for e in m] == [(0, 1)]

    def test_choose_strategy_ignores_orientation(self):
        rng = random.Random(2718)
        seen = set()
        for _ in range(120):
            g = make_any_graph(rng)
            mirror = WeightedBipartiteGraph(g.n_right, g.n_left,
                                            [(v, u, w) for u, v, w in g.edges])
            seen.add(choose_strategy(g))
            assert choose_strategy(mirror) == choose_strategy(g)
        assert seen == {FULL_DOUBLING, HALF_DOUBLING, PADDING}


class TestLayout:
    def test_derived_edge_layout(self):
        # Parent edges first in parent order, then (doublings) their mirrors
        # in the same order, then the links or the padding edges.
        rng = random.Random(3579)
        for _ in range(80):
            g = make_any_graph(rng)
            n, s, m = g.n_left, g.n_right, g.edge_count
            link_w = 2 * s * max(g.max_abs_weight, 1)
            mirrors = tuple((n + v, s + u, w) for u, v, w in g.edges)
            full, half, padded = first_doubling(g), second_doubling(g, 5), \
                artificial_vertices(g, 5)
            for t in (full, half, padded):
                assert t.graph.edges[:m] == g.edges
                assert t.original_edge_indices(range(t.graph.edge_count)) == list(range(m))
            for t in (full, half):
                assert t.graph.edges[m:2 * m] == mirrors
            assert full.graph.edges[2 * m:] == \
                tuple((u, s + u, link_w) for u in range(n)) \
                + tuple((n + v, v, link_w) for v in range(s))
            assert half.graph.edges[2 * m:] == tuple((u, s + u, 5) for u in range(n))
            assert padded.graph.edges[m:] == \
                tuple((u, v, 5) for u in range(n) for v in range(s, n))


class TestRestrictBack:
    def test_links_only_restricts_to_empty(self, fig1):
        t = first_doubling(fig1)
        n = Matching(t.graph, _links(t))
        assert n.is_perfect
        assert restrict_back(t, n).cardinality == 0

    def test_non_perfect_rejected(self, fig1):
        t = first_doubling(fig1)
        with pytest.raises(ValueError, match="perfect"):
            restrict_back(t, Matching(t.graph, []))

    def test_wrong_graph_rejected(self, fig1):
        t = first_doubling(fig1)
        with pytest.raises(ValueError, match="transformed"):
            restrict_back(t, Matching(fig1, []))

    def test_half_doubling_restriction_covers_right_side(self):
        rng = random.Random(888)
        covered = 0
        for _ in range(80):
            g = make_any_graph(rng)
            if max_cardinality_matching(g).cardinality != g.n_right:
                continue
            covered += 1
            t = second_doubling(g)
            m = restrict_back(t, solve_exact(t.graph).matching)
            assert m.cardinality == g.n_right
        assert covered > 10


class TestOptimumMatching:
    def test_wide_instance_every_strategy(self):
        g = WeightedBipartiteGraph(2, 1, WIDE)
        for strategy in (FULL_DOUBLING, HALF_DOUBLING, PADDING, AUTO):
            m = optimum_matching(g, strategy)
            assert m.cardinality == 1
            assert m.weight() == 3

    def test_balanced_equals_exact_solver(self):
        rng = random.Random(999)
        for _ in range(100):
            g = make_feasible_square(rng, n_max=6)
            w_star = solve_exact(g).matching.weight()
            for strategy in (FULL_DOUBLING, HALF_DOUBLING, PADDING):
                m = optimum_matching(g, strategy)
                assert m.cardinality == g.n_left
                assert m.weight() == w_star

    def test_coverage_required(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2)])  # v1 uncoverable
        for strategy in (HALF_DOUBLING, PADDING):
            with pytest.raises(CoverageRequired):
                optimum_matching(g, strategy)
        assert optimum_matching(g, FULL_DOUBLING).cardinality == 1

    def test_auto_falls_back_to_full_doubling(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2)])
        assert choose_strategy(g) == FULL_DOUBLING
        assert optimum_matching(g, AUTO).cardinality == 1

    def test_auto_pads_square_graphs_only(self):
        square = make_feasible_square(random.Random(31), n_max=6)
        tall = WeightedBipartiteGraph(9, 8, [(u, v, u + v) for u in range(9)
                                             for v in range(8) if v in (u, u - 1)])
        wide = WeightedBipartiteGraph(8, 9, [(v, u, w) for u, v, w in tall.edges])
        uncovered = WeightedBipartiteGraph(9, 8, tall.edges[:-2])
        assert max_cardinality_matching(tall).cardinality == 8
        assert max_cardinality_matching(uncovered).cardinality == 7
        assert choose_strategy(square) == PADDING
        assert choose_strategy(tall) == choose_strategy(wide) == HALF_DOUBLING
        assert choose_strategy(uncovered) == FULL_DOUBLING
        for g in (square, tall, wide, uncovered):
            chosen = optimum_matching(g, choose_strategy(g))
            assert optimum_matching(g, AUTO).edge_indices == chosen.edge_indices

    @pytest.mark.parametrize("strategy", STRATEGIES + (AUTO,))
    @pytest.mark.parametrize("k, error", [(1.5, TypeError), (True, TypeError),
                                          (2**41, ValueError)])
    def test_k_checked_whatever_the_strategy(self, strategy, k, error):
        coverable = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        uncoverable = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (2, 0, 3)])
        for g in (coverable, uncoverable):
            for run in (optimum_matching, optimal_edges_general):
                with pytest.raises(error):
                    run(g, strategy, k)

    @pytest.mark.parametrize("strategy, expected", [
        (AUTO, 1), (PADDING, 1), (HALF_DOUBLING, 1), (FULL_DOUBLING, 0)])
    def test_one_coverage_check_per_call(self, hk_calls, strategy, expected):
        # One Hopcroft-Karp run decides the strategy and coverage, and full
        # doubling needs none; the exact solver's start runs one more on
        # the feasible transformed graph, and no feasibility check.
        g = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        for run in (optimum_matching, optimal_edges_general):
            hk_calls.clear()
            run(g, strategy)
            assert len(hk_calls) == expected + 1

    def test_unknown_strategy(self, fig1):
        with pytest.raises(ValueError, match="unknown strategy"):
            optimum_matching(fig1, "telepathic")

    def test_full_doubling_matches_oracle(self):
        rng = random.Random(1234)
        for _ in range(150):
            g = make_any_graph(rng)
            m = optimum_matching(g, FULL_DOUBLING)
            assert (m.cardinality, m.weight()) == brute_force_optimum(g)

    def test_k_invariance(self):
        rng = random.Random(4321)
        checked = 0
        for _ in range(80):
            g = make_any_graph(rng)
            if max_cardinality_matching(g).cardinality != g.n_right:
                continue
            checked += 1
            for strategy in (HALF_DOUBLING, PADDING):
                outcomes = {(optimum_matching(g, strategy, k).cardinality,
                             optimum_matching(g, strategy, k).weight())
                            for k in (-3, 0, 7)}
                assert len(outcomes) == 1
        assert checked > 10

    def test_size_formulas(self):
        rng = random.Random(2468)
        for _ in range(60):
            g = make_any_graph(rng)
            n, s, m = g.n_left, g.n_right, g.edge_count
            assert first_doubling(g).graph.edge_count == 2 * m + n + s
            assert second_doubling(g).graph.edge_count == 2 * m + n
            assert artificial_vertices(g).graph.edge_count == m + n * (n - s)


class TestOptimalEdgesGeneral:
    def test_wide_unique_optimum(self):
        g = WeightedBipartiteGraph(2, 1, WIDE)
        assert [g.endpoints(e) for e in optimal_edges_general(g, AUTO)] == [(1, 0)]

    def test_wide_equal_weights(self):
        g = WeightedBipartiteGraph(2, 1, [(0, 0, 4), (1, 0, 4)])
        assert [g.endpoints(e) for e in optimal_edges_general(g, AUTO)] == [(0, 0), (1, 0)]

    def test_balanced_agrees_with_direct_computation(self):
        rng = random.Random(1357)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            direct = optimal_edges(g, solve_exact(g).prices)
            for strategy in (FULL_DOUBLING, HALF_DOUBLING, PADDING):
                assert optimal_edges_general(g, strategy).edge_indices == direct.edge_indices

    def test_union_of_optimum_matchings(self):
        rng = random.Random(8642)
        for _ in range(100):
            g = make_any_graph(rng)
            found = set(optimal_edges_general(g, FULL_DOUBLING).edge_indices)
            union = set()
            for edge_set in brute_force_optimum_matchings(g):
                union.update(edge_set)
            assert found == union
