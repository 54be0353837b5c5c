"""Optimum matchings: the reductions to perfect matchings, and
``optimum_matching``'s direct run (AUTO)."""

import random
from pathlib import Path

import pytest

import bipmatch.transforms
from bipmatch import (FULL_DOUBLING, HALF_DOUBLING, PADDING, Infeasible, Matching,
                      WeightedBipartiteGraph, artificial_vertices, choose_strategy,
                      first_doubling, max_cardinality_matching, optimal_edges,
                      optimal_edges_general, optimum_matching, parse_instance,
                      restrict_back, second_doubling, solve_exact)
from bipmatch.transforms import _reached, _transposed

from conftest import (REDUCTIONS, brute_force_optimum, brute_force_optimum_matchings,
                      make_any_graph, make_feasible_square, reduced_optimal_edges,
                      reduced_optimum)

WIDE = [(0, 0, 5), (1, 0, 3)]  # two left vertices, one right vertex
GOLDEN = Path(__file__).parent / "golden"
TRANSFORMS = ("first_doubling", "second_doubling", "artificial_vertices")
# The two questions answered on the pieces of ``_pieces``.
BOTH_ROUTES = pytest.mark.parametrize("run", [optimum_matching, optimal_edges_general],
                                      ids=lambda run: run.__name__)


def _golden(name):
    return parse_instance((GOLDEN / f"{name}.bip").read_text())


def _forbid_transforms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("AUTO built a transformed graph")

    for name in TRANSFORMS:
        monkeypatch.setattr(bipmatch.transforms, name, refuse)


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
        doubled = reduced_optimum(t)
        padded = reduced_optimum(artificial_vertices(g))
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
            m = reduced_optimum(t)
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
            m = reduced_optimum(t)
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
            m = reduced_optimum(second_doubling(g))
            assert m.cardinality == g.n_right
        assert covered > 10


class TestOptimumMatching:
    def test_wide_instance_every_strategy(self):
        g = WeightedBipartiteGraph(2, 1, WIDE)
        for m in (*(reduced_optimum(reduce(g)) for reduce in REDUCTIONS.values()),
                  optimum_matching(g)):
            assert m.cardinality == 1
            assert m.weight() == 3

    def test_balanced_equals_exact_solver(self):
        rng = random.Random(999)
        for _ in range(100):
            g = make_feasible_square(rng, n_max=6)
            w_star = solve_exact(g).matching.weight()
            for reduce in REDUCTIONS.values():
                m = reduced_optimum(reduce(g))
                assert m.cardinality == g.n_left
                assert m.weight() == w_star

    def test_coverage_required(self):
        # Half doubling and padding need a matching covering the smaller
        # side: without one their balanced graph has no perfect matching.
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2)])  # v1 uncoverable
        for t in (second_doubling(g), artificial_vertices(g)):
            with pytest.raises(Infeasible):
                solve_exact(t.graph)
        assert reduced_optimum(first_doubling(g)).cardinality == 1
        assert optimum_matching(g).cardinality == 1

    def test_auto_falls_back_to_full_doubling(self):
        g = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 2)])
        assert choose_strategy(g) == FULL_DOUBLING
        assert optimum_matching(g).cardinality == 1

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
            chosen = reduced_optimum(REDUCTIONS[choose_strategy(g)](g))
            assert optimum_matching(g).edge_indices == chosen.edge_indices

    @pytest.mark.parametrize("strategy", [HALF_DOUBLING, PADDING])
    @pytest.mark.parametrize("k, error", [(1.5, TypeError), (True, TypeError),
                                          (2**41, ValueError)])
    def test_k_checked_whatever_the_strategy(self, strategy, k, error):
        coverable = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        uncoverable = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (2, 0, 3)])
        for g in (coverable, uncoverable):
            with pytest.raises(error):
                REDUCTIONS[strategy](g, k)

    @BOTH_ROUTES
    def test_one_coverage_check_per_call(self, run, hk_calls, monkeypatch):
        # One Hopcroft-Karp run decides coverage; the start of the exact
        # solver's loop runs one more, both on the wide copy of the graph,
        # and no feasibility check runs.
        g = WeightedBipartiteGraph(3, 2, [(0, 0, 1), (1, 1, 2), (2, 0, 3)])
        _forbid_transforms(monkeypatch)
        hk_calls.clear()
        run(g)
        assert len(hk_calls) == 2
        assert all(h.n_left <= h.n_right for h in hk_calls)

    def test_full_doubling_matches_oracle(self):
        rng = random.Random(1234)
        for _ in range(150):
            g = make_any_graph(rng)
            m = reduced_optimum(first_doubling(g))
            assert (m.cardinality, m.weight()) == brute_force_optimum(g)

    def test_k_invariance(self):
        rng = random.Random(4321)
        checked = 0
        for _ in range(80):
            g = make_any_graph(rng)
            if max_cardinality_matching(g).cardinality != g.n_right:
                continue
            checked += 1
            for reduce in (second_doubling, artificial_vertices):
                outcomes = {(m.cardinality, m.weight()) for m in
                            (reduced_optimum(reduce(g, k)) for k in (-3, 0, 7))}
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


class TestAutoSolvesDirectly:
    """AUTO transforms no graph: it solves a coverable graph with the exact
    solver's loop run from the smaller side, and any other graph with one
    such run on each of the two pieces of its split."""

    @pytest.mark.parametrize("name", ["wide", "near_square", "swapped"])
    def test_coverable_graph_is_not_transformed(self, name, hk_calls, monkeypatch):
        g = _golden(name)
        doubled = reduced_optimum(first_doubling(g))
        _forbid_transforms(monkeypatch)
        hk_calls.clear()
        m = optimum_matching(g)
        # The coverage check and the start of the solver's loop, both from
        # the smaller side.
        assert len(hk_calls) == 2
        assert all(h.n_left <= h.n_right for h in hk_calls)
        assert m.graph is g
        assert m.cardinality == min(g.n_left, g.n_right)
        assert (m.cardinality, m.weight()) == (doubled.cardinality, doubled.weight())

    @BOTH_ROUTES
    def test_uncoverable_graph_is_split_not_transformed(self, run, hk_calls, monkeypatch):
        g = _golden("uncovered")
        doubled = reduced_optimum(first_doubling(g))
        oracle = reduced_optimal_edges(first_doubling(g))
        _forbid_transforms(monkeypatch)
        hk_calls.clear()
        answer = run(g)
        # The coverage check, the split's maximum matching and the start of
        # the solver's loop on each piece, each from its smaller side.
        assert len(hk_calls) == 4
        assert all(h.n_left <= h.n_right for h in hk_calls)
        assert answer.graph is g
        if run is optimal_edges_general:
            assert answer == oracle
        else:
            assert answer.cardinality < min(g.n_left, g.n_right)
            assert (answer.cardinality, answer.weight()) == (doubled.cardinality,
                                                             doubled.weight())

    def test_square_graph_gets_solve_exact(self, monkeypatch):
        _forbid_transforms(monkeypatch)
        rng = random.Random(2323)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=7)
            assert optimum_matching(g) == solve_exact(g).matching


class TestSplit:
    """AUTO's split, checked against brute force on every graph with sides
    up to 4 drawn here: it holds for any graph, and AUTO uses it when the
    smaller side cannot be covered."""

    def test_pieces_cover_and_dropped_edges_lie_in_no_optimum(self):
        rng = random.Random(2424)
        split = several = 0
        for _ in range(400):
            g = make_any_graph(rng, n_max=4)
            for h in (g, WeightedBipartiteGraph(g.n_right, g.n_left,
                                                [(v, u, w) for u, v, w in g.edges])):
                split += choose_strategy(h) == FULL_DOUBLING
                several += self.check(h)
        assert split > 50
        assert several > 200

    @staticmethod
    def check(g) -> bool:
        """Check the split of g; whether g has several maximum matchings."""
        flags = _reached(g, max_cardinality_matching(g))
        # Every maximum matching gives the same split: the one Hopcroft-Karp
        # finds on the transposed copy, whose edge e is edge e of g, and
        # each one brute force lists.
        assert _reached(g, max_cardinality_matching(_transposed(g))) == flags
        maximum = brute_force_optimum_matchings(WeightedBipartiteGraph(
            g.n_left, g.n_right, [(u, v, 0) for u, v, _w in g.edges]))
        for matched in maximum:
            assert _reached(g, matched) == flags
        reached_left, reached_right = flags
        card = brute_force_optimum(g)[0]
        for reached in (True, False):
            lefts = [u for u in range(g.n_left) if reached_left[u] == reached]
            rights = [v for v in range(g.n_right) if reached_right[v] == reached]
            piece = [(lefts.index(u), rights.index(v), w) for u, v, w in g.edges
                     if reached_left[u] == reached_right[v] == reached]
            covered = brute_force_optimum(
                WeightedBipartiteGraph(len(lefts), len(rights), piece))[0]
            assert covered == len(rights if reached else lefts)
        # No edge leaves a reached left vertex for an unreached right one,
        # and an edge the other way lies in no maximum matching.
        dropped = {e for e, (u, v, _w) in enumerate(g.edges)
                   if reached_left[u] != reached_right[v]}
        assert all(reached_right[g.endpoints(e)[1]] for e in dropped)
        for e in dropped:
            u, v = g.endpoints(e)
            rest = WeightedBipartiteGraph(g.n_left, g.n_right, [
                (a, b, w) for a, b, w in g.edges if a != u and b != v])
            assert brute_force_optimum(rest)[0] + 1 < card
        return len(maximum) > 1


class TestOptimalEdgesGeneral:
    def test_wide_unique_optimum(self):
        g = WeightedBipartiteGraph(2, 1, WIDE)
        assert [g.endpoints(e) for e in optimal_edges_general(g)] == [(1, 0)]

    def test_wide_equal_weights(self):
        g = WeightedBipartiteGraph(2, 1, [(0, 0, 4), (1, 0, 4)])
        assert [g.endpoints(e) for e in optimal_edges_general(g)] == [(0, 0), (1, 0)]

    def test_balanced_agrees_with_direct_computation(self):
        rng = random.Random(1357)
        for _ in range(60):
            g = make_feasible_square(rng, n_max=6)
            direct = optimal_edges(g, solve_exact(g).prices)
            assert optimal_edges_general(g).edge_indices == direct.edge_indices
            for reduce in REDUCTIONS.values():
                assert reduced_optimal_edges(reduce(g)).edge_indices == direct.edge_indices

    def test_union_of_optimum_matchings(self):
        rng = random.Random(8642)
        for _ in range(100):
            g = make_any_graph(rng)
            union = set()
            for edge_set in brute_force_optimum_matchings(g):
                union.update(edge_set)
            assert set(reduced_optimal_edges(first_doubling(g)).edge_indices) == union
            assert set(optimal_edges_general(g).edge_indices) == union
