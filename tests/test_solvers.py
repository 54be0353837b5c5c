"""Exact and auction solvers, and the rounding pipeline."""

import random
from fractions import Fraction
from heapq import heappush

import pytest

import bipmatch.solvers
from bipmatch import (MAX_ABS_WEIGHT, Infeasible, NotSquare, WeightedBipartiteGraph,
                      check_complementary_slackness, check_eps_optimal, dual_objective,
                      max_cardinality_matching, solve_auction, solve_exact,
                      solve_via_rounding)
from bipmatch.matching import _perfect_matching

from conftest import FIG1_EDGES, M_STAR, brute_force_min_weight_pms, make_feasible_square


class TestSolveExact:
    def test_fig1(self, fig1):
        r = solve_exact(fig1)
        assert r.matching.edge_indices == M_STAR
        assert r.matching.weight() == 3
        assert check_complementary_slackness(fig1, r.matching, r.prices)

    def test_single_negative_edge(self):
        g = WeightedBipartiteGraph(1, 1, [(0, 0, -7)])
        r = solve_exact(g)
        assert r.matching.edge_indices == (0,)
        assert r.matching.weight() == -7
        assert check_complementary_slackness(g, r.matching, r.prices)

    def test_isolated_vertex_infeasible(self):
        edges = [e for e in FIG1_EDGES if e != (0, 0, 1)]
        g = WeightedBipartiteGraph(3, 3, edges)
        with pytest.raises(Infeasible, match="v1 stay"):
            solve_exact(g)

    @pytest.mark.parametrize("n, edges, uncovered", [
        # Left vertex 3 has no edges, so its row has no minimum to start
        # from. Vertices are named by their 1-based input labels.
        (3, [(0, 0, 1), (0, 1, 2), (1, 1, 3), (1, 2, -4)], "2 of 3; vertices u3 and v3"),
        # Right vertex 3 has no edges.
        (3, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, -4), (2, 1, 5)],
         "2 of 3; vertices u3 and v3"),
        # Left vertices 1 and 2 see only right vertex 1, though no vertex
        # is isolated.
        (3, [(0, 0, 1), (1, 0, 2), (2, 0, 3), (2, 1, 4), (2, 2, 5)],
         "2 of 3; vertices u2 and v3"),
        (1, [], "0 of 1; vertices u1 and v1"),
    ])
    def test_infeasible_names_uncovered_vertices(self, hk_calls, n, edges, uncovered):
        g = WeightedBipartiteGraph(n, n, edges)
        with pytest.raises(Infeasible, match=f"maximum cardinality is {uncovered} stay"):
            solve_exact(g)
        # Up front for an isolated vertex, before the start runs. Otherwise
        # the start runs once and the refusal once, after a search failed.
        isolated = min(len({u for u, _v, _w in edges}), len({v for _u, v, _w in edges})) < n
        assert len(hk_calls) == (1 if isolated else 2)

    def test_isolated_vertex_refused_before_any_search(self, monkeypatch):
        # A 200x200 complete graph without right vertex 200: the O(m) test
        # for a vertex without edges answers before the first heap push,
        # where the 200th search used to prove it after 199 augmentations.
        pushes = []
        monkeypatch.setattr(bipmatch.solvers, "heappush",
                            lambda heap, item: pushes.append(item) or heappush(heap, item))
        g = WeightedBipartiteGraph(200, 200, [(u, v, (-1) ** (u * v) * MAX_ABS_WEIGHT)
                                              for u in range(200) for v in range(199)])
        with pytest.raises(Infeasible, match=r"^no perfect matching: maximum cardinality is "
                           r"199 of 200; vertices u200 and v200 stay uncovered$"):
            solve_exact(g)
        assert pushes == []

    def test_search_stops_at_nearest_free_vertex(self, monkeypatch):
        # Ten blocks of three: left a, b, c and right x, y, z, with weights
        # a-x = b-x = c-y = c-z = 0 and a-y = a-z = b-y = b-z = 1. Every
        # other pair weighs 1000 and each row lists it last. Both passes
        # leave the weight-0 edges tight, so the start matches x and one of
        # y, z, and one search per block remains, from a or b. That search
        # pushes its three block neighbours: y and z at distance 1, one of
        # them free, which bounds the search at 1, and x at 0. It skips the
        # 27 edges at 1000, and scanning x's mate or c at distance 0 or 1
        # pushes nothing new: 3 pushes per block, 30 in all, not 300.
        pushes = []
        monkeypatch.setattr(bipmatch.solvers, "heappush",
                            lambda heap, item: pushes.append(item) or heappush(heap, item))
        n = 30
        cheap = {(0, 0): 0, (1, 0): 0, (2, 1): 0, (2, 2): 0,
                 (0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): 1}

        def weight(u, v):
            return cheap.get((u % 3, v % 3), 1000) if u // 3 == v // 3 else 1000

        g = WeightedBipartiteGraph(n, n, [(u, v, weight(u, v)) for u in range(n)
                                          for v in sorted(range(n),
                                                          key=lambda v: weight(u, v) == 1000)])
        r = solve_exact(g)
        assert r.stats.iterations == n // 3
        assert len(pushes) == n
        assert r.matching.weight() == n // 3
        assert check_complementary_slackness(g, r.matching, r.prices)

    def test_infeasible_messages_match_auction(self):
        rng = random.Random(4242)
        infeasible = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            cells = [(u, v) for u in range(n) for v in range(n)]
            chosen = rng.sample(cells, rng.randint(0, len(cells) // 2))
            g = WeightedBipartiteGraph(n, n, [(u, v, rng.randint(-9, 9)) for u, v in chosen])
            if max_cardinality_matching(g).is_perfect:
                continue
            infeasible += 1
            with pytest.raises(Infeasible) as exact:
                solve_exact(g)
            with pytest.raises(Infeasible) as auction:
                solve_auction(g)
            assert str(exact.value) == str(auction.value)
        assert infeasible > 100

    def test_feasible_runs_no_hopcroft_karp(self, hk_calls, fig1):
        # The start's run on the tight edges is the only one: a feasible
        # graph needs no feasibility check.
        solve_exact(fig1)
        assert len(hk_calls) == 1

    def test_warm_start_fig1(self, hk_calls, fig1):
        # Row minimums (1, 1, 1) and column pass (0, 0, 0) leave the edges of
        # weight 1 tight; they hold the optimum, so no search runs.
        r = solve_exact(fig1)
        assert r.matching.edge_indices == M_STAR
        assert check_complementary_slackness(fig1, r.matching, r.prices)
        assert r.stats.iterations == 0
        assert len(hk_calls) == 1

    def test_warm_start_searches_from_free_vertices_only(self):
        # Weight 0 on left vertex 1's edges and on right vertex 1's, 1
        # elsewhere: both passes leave exactly those edges tight, which
        # match two pairs, so n - 2 searches remain.
        n = 6
        g = WeightedBipartiteGraph(n, n, [(u, v, 0 if 0 in (u, v) else 1)
                                          for u in range(n) for v in range(n)])
        r = solve_exact(g)
        assert r.stats.iterations == n - 2
        assert r.matching.weight() == n - 2
        assert check_complementary_slackness(g, r.matching, r.prices)

    def test_warm_start_refuses_in_the_same_words(self, hk_calls):
        # No isolated vertex, so the search loop runs: Hopcroft-Karp runs on
        # the tight edges and again to word the refusal, in the words of the
        # one perfect-matching check.
        g = WeightedBipartiteGraph(3, 3, [(0, 0, 5), (1, 0, -5), (2, 0, 0),
                                          (2, 1, 1), (2, 2, 2)])
        with pytest.raises(Infeasible) as refused:
            solve_exact(g)
        assert len(hk_calls) == 2
        with pytest.raises(Infeasible) as checked:
            _perfect_matching(g)
        assert str(refused.value) == str(checked.value)

    def test_not_square(self):
        g = WeightedBipartiteGraph(2, 1, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(NotSquare):
            solve_exact(g)

    def test_empty_square(self):
        g = WeightedBipartiteGraph(0, 0, [])
        r = solve_exact(g)
        assert r.matching.is_perfect
        assert check_complementary_slackness(g, r.matching, r.prices)

    def test_prices_always_integral(self):
        rng = random.Random(111)
        for _ in range(100):
            g = make_feasible_square(rng, n_max=7)
            assert solve_exact(g).prices.den == 1

    def test_optimal_on_random_instances(self):
        rng = random.Random(222)
        for _ in range(200):
            g = make_feasible_square(rng, n_max=7)
            r = solve_exact(g)
            w_star = brute_force_min_weight_pms(g)[0].weight()
            assert r.matching.weight() == w_star
            assert check_complementary_slackness(g, r.matching, r.prices)

    def test_large_weights(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 2**40), (0, 1, -2**40),
                                          (1, 0, 0), (1, 1, 2**40)])
        r = solve_exact(g)
        assert r.matching.weight() == -2**40
        assert check_complementary_slackness(g, r.matching, r.prices)


class TestSolveAuction:
    def test_fig1_quarter_eps(self, fig1):
        r = solve_auction(fig1, Fraction(1, 4))
        assert r.matching.weight() == 3
        assert check_eps_optimal(fig1, r.matching, r.prices, Fraction(1, 4))

    def test_single_edge_any_eps(self):
        g = WeightedBipartiteGraph(1, 1, [(0, 0, 9)])
        for eps in (Fraction(1, 2), 1, Fraction(1, 7)):
            r = solve_auction(g, eps)
            assert r.matching.edge_indices == (0,)
            assert check_eps_optimal(g, r.matching, r.prices, eps)

    def test_default_eps_denominator(self):
        rng = random.Random(333)
        for _ in range(50):
            g = make_feasible_square(rng, n_max=7)
            r = solve_auction(g)
            assert r.prices.den == g.n_left + 1
            assert check_eps_optimal(g, r.matching, r.prices,
                                     Fraction(1, g.n_left + 1))

    def test_agrees_with_exact_solver(self):
        rng = random.Random(444)
        for _ in range(200):
            g = make_feasible_square(rng, n_max=7)
            assert (solve_auction(g).matching.weight()
                    == solve_exact(g).matching.weight())

    def test_float_eps_rejected(self, fig1):
        with pytest.raises(TypeError):
            solve_auction(fig1, 0.25)

    def test_nonpositive_eps_rejected(self, fig1):
        with pytest.raises(ValueError):
            solve_auction(fig1, 0)

    @pytest.mark.parametrize("eps_final, error", [
        (0, ValueError), (-1, ValueError), (0.5, TypeError), ("x", TypeError),
        (True, TypeError)])
    @pytest.mark.parametrize("n", [0, 1])
    def test_eps_final_checked_on_every_graph(self, n, eps_final, error):
        g = WeightedBipartiteGraph(n, n, [(0, 0, 1)] if n else [])
        with pytest.raises(error, match="eps_final"):
            solve_auction(g, eps_final)

    def test_infeasible(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(Infeasible):
            solve_auction(g)

    def test_no_hopcroft_karp_at_minimum_degree_two(self, hk_calls, fig1):
        # Every left vertex of fig1 has two edges, and still the one
        # feasibility check runs before bidding, and no other.
        solve_auction(fig1)
        assert len(hk_calls) == 1

    def test_checks_feasibility_up_front(self, hk_calls):
        # Left vertex 1 has one edge, so a lone-option bid adds ``big`` to a
        # price: the check before bidding is the only one.
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2), (1, 1, 3)])
        assert solve_auction(g).matching.weight() == 4
        assert len(hk_calls) == 1

    @pytest.mark.parametrize("edges", [
        # A left vertex with one edge.
        [(0, 0, 1), (1, 0, 1)],
        # Left degrees two, right vertex 3 isolated.
        [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0)],
        # Left degrees two, no right vertex isolated, left vertices 2-4 see
        # only right vertices 1 and 2.
        [(0, 2, 0), (0, 3, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (2, 1, 0), (3, 0, 0),
         (3, 1, 0)],
        # A 200x200 complete graph without right vertex 200, at zero and at
        # +-2^40 weights.
        *[[(u, v, (-1) ** (u * v) * weight) for u in range(200) for v in range(199)]
          for weight in (0, MAX_ABS_WEIGHT)],
        # A 200x200 graph in which left vertices 1-3 see only right vertices
        # 1 and 2 and the rest see every right vertex, at zero and at +-2^40
        # weights: no vertex is isolated and every left degree is at least
        # two.
        *[[(u, v, (-1) ** (u * v) * weight) for u in range(200)
           for v in (range(2) if u < 3 else range(200))]
          for weight in (0, MAX_ABS_WEIGHT)],
    ])
    def test_infeasible_checks_once(self, hk_calls, edges):
        n = 1 + max(max(u, v) for u, v, _w in edges)
        g = WeightedBipartiteGraph(n, n, edges)
        with pytest.raises(Infeasible) as auction:
            solve_auction(g)
        assert len(hk_calls) == 1
        with pytest.raises(Infeasible) as exact:
            solve_exact(g)
        assert str(auction.value) == str(exact.value)

    @pytest.mark.parametrize("weight", [0, MAX_ABS_WEIGHT])
    @pytest.mark.parametrize("degree", [2, 10])
    def test_large_hall_violator(self, weight, degree):
        # 200 left vertices share right vertices 1..199, with weights of
        # either sign: right vertex 200 stays uncovered. Degree 2 is a
        # ring, degree 10 picks neighbours at random.
        n = 200
        rng = random.Random(degree)
        g = WeightedBipartiteGraph(n, n, [
            (u, v % (n - 1), rng.choice((-weight, weight))) for u in range(n)
            for v in ((u, u + 1) if degree == 2 else rng.sample(range(n - 1), degree))])
        with pytest.raises(Infeasible) as auction:
            solve_auction(g)
        with pytest.raises(Infeasible) as exact:
            solve_exact(g)
        assert str(auction.value) == str(exact.value)
        assert "v200 stay" in str(auction.value)

    def test_scaling_phases_recorded(self, fig1):
        r = solve_auction(fig1)
        assert r.stats.phases >= 1
        assert r.stats.iterations >= fig1.n_left

    @pytest.mark.parametrize("weights, phases", [
        # epsilon levels 1002, 250, 62, 15, 3, 1 in units of 1/501
        ((0, 1, 2, -2), 6),
        ((0,), 1),
    ])
    def test_scaling_schedule_divides_by_four(self, weights, phases):
        n = 500
        rng = random.Random(4)
        g = WeightedBipartiteGraph(n, n, [
            (u, (u + k) % n, rng.choice(weights)) for u in range(n) for k in (0, 1)])
        r = solve_auction(g)
        assert r.stats.phases == phases
        assert r.matching.weight() == solve_exact(g).matching.weight()


class TestSolveViaRounding:
    def test_fig1(self, fig1):
        r = solve_via_rounding(fig1)
        assert r.matching.weight() == 3
        assert r.prices.is_integral
        assert check_complementary_slackness(fig1, r.matching, r.prices)

    def test_single_edge(self):
        g = WeightedBipartiteGraph(1, 1, [(0, 0, 4)])
        r = solve_via_rounding(g)
        assert r.matching.edge_indices == (0,)
        assert check_complementary_slackness(g, r.matching, r.prices)

    def test_random_instances(self):
        rng = random.Random(555)
        for _ in range(200):
            g = make_feasible_square(rng, n_max=7)
            r = solve_via_rounding(g)
            assert check_complementary_slackness(g, r.matching, r.prices)
            w_star = brute_force_min_weight_pms(g)[0].weight()
            assert r.matching.weight() == w_star


class TestWeakDuality:
    def test_dual_objective_below_any_perfect_matching(self):
        rng = random.Random(666)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            exact = solve_exact(g)
            obj = dual_objective(exact.prices)
            zero = WeightedBipartiteGraph(
                g.n_left, g.n_right, [(u, v, 0) for (u, v, _w) in g.edges])
            for pm in brute_force_min_weight_pms(zero):
                weight = sum(g.weight(e) for e in pm.edge_indices)
                assert obj <= weight
