"""Exhaustive, duplicate-free streaming of (optimal) perfect matchings."""

import random
from itertools import islice, permutations

import pytest

from bipmatch import (DualPrices, Infeasible, InfeasibleDual, Matching,
                      WeightedBipartiteGraph, iter_min_weight_perfect_matchings,
                      iter_perfect_matchings, solve_exact)

from conftest import M_OTHER, M_STAR, brute_force_min_weight_pms, make_feasible_square


class TestPerfectMatchings:
    def test_fig1_both(self, fig1):
        found = [m.edge_indices for m in iter_perfect_matchings(fig1)]
        assert sorted(found) == sorted([M_STAR, M_OTHER])

    def test_complete_3x3_has_six(self):
        g = WeightedBipartiteGraph(3, 3, [(u, v, 1) for u in range(3) for v in range(3)])
        found = list(iter_perfect_matchings(g))
        assert len(found) == 6
        assert len({m.edge_indices for m in found}) == 6

    def test_graph_equal_to_single_matching(self):
        g = WeightedBipartiteGraph(3, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 1)])
        assert [m.edge_indices for m in iter_perfect_matchings(g)] == [(0, 1, 2)]

    def test_infeasible_yields_nothing(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 1)])
        assert list(iter_perfect_matchings(g)) == []
        assert list(islice(iter_perfect_matchings(g), 5)) == []

    def test_unbalanced_yields_nothing(self):
        g = WeightedBipartiteGraph(2, 1, [(0, 0, 1), (1, 0, 1)])
        assert list(iter_perfect_matchings(g)) == []

    def test_empty_graph_has_one_empty_matching(self):
        g = WeightedBipartiteGraph(0, 0, [])
        assert [m.edge_indices for m in iter_perfect_matchings(g)] == [()]

    def test_one_hopcroft_karp_run_at_the_root(self, hk_calls):
        # K4,4: the root finds one perfect matching; every branch frame
        # below it gets its matchings by flipping alternating cycles.
        g = WeightedBipartiteGraph(4, 4, [(u, v, 1) for u in range(4) for v in range(4)])
        assert len(list(iter_perfect_matchings(g))) == 24
        assert len(hk_calls) == 1

    @pytest.mark.parametrize("bad", [6, -2])
    def test_subset_index_out_of_range(self, fig1, bad):
        with pytest.raises(ValueError, match=f"edge index {bad} out of range"):
            next(iter_perfect_matchings(fig1, [0, 2, 5, bad]))

    def test_deterministic_order(self, fig1):
        runs = [[m.edge_indices for m in iter_perfect_matchings(fig1)]
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestCollectedStream:
    """The whole stream is collected before any matching in it is read, so
    a matching that shared state with the search, or built its edge list
    wrongly, shows here: each must be the checked ``Matching`` of its
    edges in everything a caller can read, and the stream must hold every
    perfect matching once."""

    @staticmethod
    def tie_heavy(seed: int) -> WeightedBipartiteGraph:
        # A hidden perfect matching plus random cells, weights mostly 0,
        # edge lines shuffled so that edge order is not left-vertex order.
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        cells = {(u, perm[u]) for u in range(n)}
        cells |= {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(2 * n, n * n))}
        edges = [(u, v, rng.choice((0, 0, 0, 1, 2))) for u, v in sorted(cells)]
        rng.shuffle(edges)
        return WeightedBipartiteGraph(n, n, edges)

    @staticmethod
    def check(g: WeightedBipartiteGraph) -> None:
        n = g.n_left
        streamed = list(iter_perfect_matchings(g))
        # Each matching's first read is a different one of its readers.
        readers = [len, hash, Matching.weight, Matching.to_json,
                   lambda m: [e for e in range(g.edge_count) if e in m],
                   lambda m: m.edge_indices]
        for k, m in enumerate(streamed):
            ref = Matching(g, [m.left_edge(u) for u in range(n)])
            first = readers[k % len(readers)]
            assert first(m) == first(ref)
            assert m == Matching(g, m.edge_indices) == ref and ref == m
            assert hash(m) == hash(ref)
            assert m.weight() == ref.weight()
            assert m.to_json() == ref.to_json()
            assert len(m) == len(ref) == n
            assert [e for e in range(g.edge_count) if e in m] == list(ref.edge_indices)
        oracle = set()
        for perm in permutations(range(n)):
            edges = [g.edge_index(u, v) for u, v in enumerate(perm)]
            if None not in edges:
                oracle.add(Matching(g, edges))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == oracle

    def test_complete_4x4(self):
        self.check(WeightedBipartiteGraph(4, 4, [(u, v, (u * v) % 2)
                                                 for u in range(4) for v in range(4)]))

    @pytest.mark.parametrize("seed", range(30))
    def test_tie_heavy(self, seed):
        self.check(self.tie_heavy(seed))


class TestSink:
    """Capping the stream with itertools.islice."""

    def test_counts_and_callbacks(self, fig1):
        seen = list(islice(iter_perfect_matchings(fig1), None))
        assert len(seen) == 2

    def test_limit_short_circuits(self):
        g = WeightedBipartiteGraph(4, 4, [(u, v, 1) for u in range(4) for v in range(4)])
        for limit in (0, 1, 5, 24, 99):
            assert len(list(islice(iter_perfect_matchings(g), limit))) == min(limit, 24)

    def test_negative_limit_rejected(self, fig1):
        with pytest.raises(ValueError):
            islice(iter_perfect_matchings(fig1), -1)


class TestMinWeight:
    def test_fig1_p1_only_optimum(self, fig1, fig1_p1):
        found = list(iter_min_weight_perfect_matchings(fig1, fig1_p1))
        assert [m.edge_indices for m in found] == [M_STAR]

    def test_fig1_p2_extra_tight_edge_changes_nothing(self, fig1, fig1_p2):
        # the tight subgraph under the second system has an extra edge that
        # lies in none of its perfect matchings
        found = list(iter_min_weight_perfect_matchings(fig1, fig1_p2))
        assert [m.edge_indices for m in found] == [M_STAR]

    def test_symmetric_two_by_two(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 5), (0, 1, 5), (1, 0, 5), (1, 1, 5)])
        prices = DualPrices([5, 5], [0, 0])
        found = list(iter_min_weight_perfect_matchings(g, prices))
        assert {m.edge_indices for m in found} == {(0, 3), (1, 2)}
        assert all(m.weight() == 10 for m in found)

    def test_given_matching_runs_no_hopcroft_karp(self, fig1, fig1_p1, fig1_p2, hk_calls):
        for prices in (fig1_p1, fig1_p2):
            found = iter_min_weight_perfect_matchings(fig1, prices, Matching(fig1, M_STAR))
            assert [m.edge_indices for m in found] == [M_STAR]
        assert hk_calls == []

    @pytest.mark.parametrize("edges, message", [
        ([0, 2], "perfect matching of the graph"),
        # Edge 3 joins left 2 and right 3 with slack 2 under fig1_p1.
        (M_OTHER, r"matched edge \(2, 3\) is not tight"),
    ])
    def test_given_matching_rejected(self, fig1, fig1_p1, edges, message):
        with pytest.raises(ValueError, match=message):
            next(iter_min_weight_perfect_matchings(fig1, fig1_p1, Matching(fig1, edges)))

    def test_matching_of_another_graph_rejected(self, fig1, fig1_p1):
        other = WeightedBipartiteGraph(3, 3, fig1.edges)
        with pytest.raises(ValueError, match="perfect matching of the graph"):
            next(iter_min_weight_perfect_matchings(fig1, fig1_p1, Matching(other, M_STAR)))

    def test_infeasible_dual_raises(self, fig1):
        with pytest.raises(InfeasibleDual):
            list(iter_min_weight_perfect_matchings(fig1, DualPrices([0, 0, 1], [9, 1, 0])))

    def test_suboptimal_prices_raise(self, fig1):
        low = DualPrices([-10, -10, -10], [0, 0, 0])
        with pytest.raises(Infeasible):
            list(iter_min_weight_perfect_matchings(fig1, low))

    def test_matches_brute_force_each_exactly_once(self):
        rng = random.Random(13)
        for _ in range(150):
            g = make_feasible_square(rng, n_max=7)
            prices = solve_exact(g).prices
            emitted = [m.edge_indices
                       for m in iter_min_weight_perfect_matchings(g, prices)]
            oracle = {m.edge_indices for m in brute_force_min_weight_pms(g)}
            assert len(emitted) == len(set(emitted))
            assert set(emitted) == oracle

    def test_all_emitted_weights_equal_optimum(self):
        rng = random.Random(14)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            prices = solve_exact(g).prices
            weights = {m.weight()
                       for m in iter_min_weight_perfect_matchings(g, prices)}
            assert len(weights) == 1

    def test_sink_api_with_limit(self, fig1, fig1_p1):
        found = islice(iter_min_weight_perfect_matchings(fig1, fig1_p1), 10)
        assert len(list(found)) == 1
