"""Price systems, optimality checkers, the rounding and its shift rule."""

import math
import random
from fractions import Fraction

import pytest

from bipmatch import (DualPrices, Matching, ParseError, WeightedBipartiteGraph,
                      check_complementary_slackness, check_dual_feasible,
                      check_eps_optimal, dual_objective, prices_from_json, prices_to_json,
                      round_to_optimal, solve_auction, solve_exact)

from conftest import (M_OTHER, M_STAR, brute_force_min_weight_pms, make_feasible_square,
                      perturbed_eps_pair, reference_round_to_optimal)


class TestDualPrices:
    def test_from_values_common_denominator(self):
        p = DualPrices.from_values([Fraction(1, 2), 1], [Fraction(1, 3)])
        assert p.den == 6
        assert p.left_num == (3, 6)
        assert p.right_num == (2,)
        assert not p.is_integral

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            DualPrices.from_values([0.5], [])

    def test_integral_detection(self):
        assert DualPrices([2, 4], [6], 2).is_integral
        assert not DualPrices([1], [], 2).is_integral

    def test_json_roundtrip(self, fig1, fig1_p1):
        blob = prices_to_json(fig1, fig1_p1)
        assert blob == {"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}
        assert prices_from_json(fig1, blob) == fig1_p1

    @pytest.mark.parametrize("blob", [
        {"den": True, "pi": [-2, 0, 1], "p": [3, 1, 0]},
        {"den": 1, "pi": [True, 0, 1], "p": [3, 1, 0]},
    ])
    def test_json_rejects_booleans(self, fig1, blob):
        with pytest.raises(ParseError):
            prices_from_json(fig1, blob)

    @pytest.mark.parametrize("call", [
        lambda g, m, p: DualPrices.from_values([True], [False]),
        lambda g, m, p: solve_auction(g, True),
        lambda g, m, p: check_eps_optimal(g, m, p, True),
    ], ids=["from_values", "solve_auction", "check_eps_optimal"])
    def test_bool_rational_rejected(self, fig1, fig1_p1, call):
        with pytest.raises(TypeError, match="got bool"):
            call(fig1, Matching(fig1, M_STAR), fig1_p1)

    @pytest.mark.parametrize("call, error, message", [
        (lambda g, p: DualPrices.from_values([Fraction(1, 3)], [0], den=2),
         ValueError, "price 1/3 not representable with denominator 2"),
        (lambda g, p: prices_from_json(g, {"den": 1, "pi": [0, 0]}),
         ParseError, "price JSON must contain 'den', 'pi', 'p': 'p'"),
        (lambda g, p: check_eps_optimal(g, Matching(WeightedBipartiteGraph(
            1, 1, [(0, 0, 0)]), [0]), p, 0),
         ValueError, "matching belongs to a different graph"),
    ], ids=["from_values", "prices_from_json", "check_eps_optimal"])
    def test_error_messages(self, fig1, fig1_p1, call, error, message):
        with pytest.raises(error) as err:
            call(fig1, fig1_p1)
        assert str(err.value) == message

    def test_bool_denominator_rejected(self):
        with pytest.raises(ValueError, match="denominator"):
            DualPrices([1], [2], True)

    def test_json_swapped_orientation(self):
        # The left side is the smaller one: "pi" has one entry.
        g = WeightedBipartiteGraph(1, 2, [(0, 0, 4), (0, 1, 6)])
        prices = DualPrices([3], [1, 2])
        blob = prices_to_json(g, prices)
        assert blob == {"den": 1, "pi": [3], "p": [1, 2]}
        assert prices_from_json(g, blob) == prices


class TestFeasibility:
    def test_fig1_p1_feasible(self, fig1, fig1_p1):
        assert check_dual_feasible(fig1, fig1_p1) == []

    def test_fig1_p2_feasible(self, fig1, fig1_p2):
        assert check_dual_feasible(fig1, fig1_p2) == []

    def test_raising_a_price_breaks_edge(self, fig1):
        bad = DualPrices([-2, 0, 1], [4, 1, 0])
        violations = check_dual_feasible(fig1, bad)
        assert [(v.edge, v.slack) for v in violations] == [(0, Fraction(-1))]

    def test_violations_exhaustive(self, fig1):
        sky_high = DualPrices([10, 10, 10], [10, 10, 10])
        assert len(check_dual_feasible(fig1, sky_high)) == fig1.edge_count

    def test_shape_mismatch(self, fig1):
        with pytest.raises(ValueError, match="shape"):
            check_dual_feasible(fig1, DualPrices([0], [0]))


class TestComplementarySlackness:
    def test_fig1_mstar_under_both_systems(self, fig1, fig1_p1, fig1_p2):
        m = Matching(fig1, M_STAR)
        assert check_complementary_slackness(fig1, m, fig1_p1)
        assert check_complementary_slackness(fig1, m, fig1_p2)

    def test_suboptimal_matching_rejected(self, fig1, fig1_p1):
        m = Matching(fig1, M_OTHER)
        assert not check_complementary_slackness(fig1, m, fig1_p1)

    def test_non_perfect_matching_raises(self, fig1, fig1_p1):
        with pytest.raises(ValueError, match="perfect"):
            check_complementary_slackness(fig1, Matching(fig1, [0]), fig1_p1)

    def test_strong_duality_when_cs_holds(self):
        rng = random.Random(321)
        for _ in range(100):
            g = make_feasible_square(rng, n_max=6)
            r = solve_exact(g)
            assert check_complementary_slackness(g, r.matching, r.prices)
            assert dual_objective(r.prices) == r.matching.weight()


class TestEpsOptimal:
    def test_zero_eps_equals_cs(self, fig1, fig1_p1):
        m = Matching(fig1, M_STAR)
        assert check_eps_optimal(fig1, m, fig1_p1, 0)

    def test_quarter_perturbation(self, fig1, fig1_p1):
        # push p(v1) up by 1/4 and pull its matched partner u1 down by 1/4:
        # matched edges stay tight, edge u2v1 overshoots by exactly 1/4
        m = Matching(fig1, M_STAR)
        pert = perturbed_eps_pair(fig1, m, fig1_p1, [0, Fraction(1, 4), 0])
        assert check_eps_optimal(fig1, m, pert, Fraction(1, 4))
        assert not check_eps_optimal(fig1, m, pert, 0)

    def test_tightness_on_matched_is_mandatory(self, fig1):
        # same perturbation but with u2 (matched to the untouched v2) also
        # pulled down: its matched edge is no longer tight, so the pair is
        # not eps-optimal for any eps
        m = Matching(fig1, M_STAR)
        broken = DualPrices.from_values(
            [-2, Fraction(-1, 4), Fraction(3, 4)], [3, Fraction(5, 4), 0])
        assert not check_eps_optimal(fig1, m, broken, Fraction(1, 4))
        assert not check_eps_optimal(fig1, m, broken, 10)

    def test_negative_eps_rejected(self, fig1, fig1_p1):
        with pytest.raises(ValueError):
            check_eps_optimal(fig1, Matching(fig1, M_STAR), fig1_p1, -1)

    def test_weight_bound_for_eps_optimal_pairs(self):
        # an eps-optimal matching is within n*eps of the optimum
        rng = random.Random(2024)
        for _ in range(120):
            g = make_feasible_square(rng, n_max=6)
            n = g.n_left
            eps = rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(1, n + 1)])
            r = solve_auction(g, eps)
            assert check_eps_optimal(g, r.matching, r.prices, eps)
            w_star = brute_force_min_weight_pms(g)[0].weight()
            assert r.matching.weight() <= w_star + n * eps


class TestDualObjective:
    def test_fig1_values(self, fig1_p1, fig1_p2):
        assert dual_objective(fig1_p1) == 3
        assert dual_objective(fig1_p2) == 3

    def test_zero_prices(self):
        assert dual_objective(DualPrices([0, 0], [0, 0])) == 0

    def test_fractional(self):
        p = DualPrices([1, 2], [3], 4)
        assert dual_objective(p) == Fraction(6, 4)


def _diagonal_pair(weights, right_prices):
    """An n x n graph whose only edges (u, u) carry ``weights``, its one
    perfect matching, and prices tight on it with ``right_prices``."""
    n = len(weights)
    graph = WeightedBipartiteGraph(n, n, [(u, u, w) for u, w in enumerate(weights)])
    left = [w - Fraction(r) for w, r in zip(weights, right_prices)]
    return graph, Matching(graph, range(n)), DualPrices.from_values(left, right_prices)


class TestRoundingShift:
    """The shift t/(n+1) that ``round_to_optimal`` adds before flooring the
    right prices: the smallest t in {0, ..., n} that no right price r rules
    out, r ruling out -floor((n+1) * r) mod (n+1)."""

    @pytest.mark.parametrize("right, rounded", [
        # Integral prices rule out t = 0 only; t = 1 of 4 floors to themselves.
        ([3, 0, 5], [3, 0, 5]),
        # 3 and 0 rule out 0, and 3/4 rules out 1: t = 2 of 4 lifts 3/4 to 1.
        ([3, Fraction(3, 4), 0], [3, 1, 0]),
        # 1/2 rules out 1: t = 0 of 2 floors it to 0.
        ([Fraction(1, 2)], [0]),
    ], ids=["all_integral", "mixed", "single_half"])
    def test_hand_made(self, right, rounded):
        graph, matching, prices = _diagonal_pair([7] * len(right), right)
        exact = round_to_optimal(graph, matching, prices)
        assert exact == DualPrices([7 - r for r in rounded], rounded)

    def test_existence_with_n_prices(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 9)
            right = [Fraction(rng.randint(-30, 30), n + 1) for _ in range(n)]
            graph, matching, prices = _diagonal_pair([rng.randint(-9, 9) for _ in range(n)],
                                                     right)
            exact = round_to_optimal(graph, matching, prices)
            assert exact == reference_round_to_optimal(graph, matching, prices)
            assert check_complementary_slackness(graph, matching, exact)
            assert all(abs(q - r) < 1 for q, r in zip(exact.right_prices(), right))


def floor_shift_equal(value, n: int, t: int) -> bool:
    """Whether floor(r + (t-1)/(n+1)) equals floor(r + t/(n+1))."""
    if not 0 <= t <= n:
        raise ValueError(f"t must lie in [0, {n}]")
    r = Fraction(value)
    step = Fraction(1, n + 1)
    return math.floor(r + (t - 1) * step) == math.floor(r + t * step)


class TestFloorShift:
    def test_examples(self):
        assert floor_shift_equal(Fraction(1, 2), 1, 0)
        assert not floor_shift_equal(Fraction(1, 2), 1, 1)

    def test_integral_base_inner_shifts(self):
        for n in range(1, 6):
            for t in range(1, n + 1):
                assert floor_shift_equal(7, n, t)
            assert not floor_shift_equal(7, n, 0)

    def test_out_of_range_t(self):
        with pytest.raises(ValueError):
            floor_shift_equal(0, 3, 4)

    def test_good_shifts_never_move_the_floor(self):
        # property: for prices with denominator n+1, every shift value not
        # ruled out by the selection rule keeps the floor unchanged, and
        # the ruled-out value always moves it
        rng = random.Random(31337)
        for _ in range(300):
            n = rng.randint(1, 10)
            r = Fraction(rng.randint(-50, 50), n + 1)
            ruled_out = math.ceil((n + 1) * (math.ceil(r) - r)) % (n + 1)
            for t in range(n + 1):
                if t == ruled_out:
                    assert not floor_shift_equal(r, n, t)
                else:
                    assert floor_shift_equal(r, n, t)


class TestRoundToOptimal:
    def test_integral_input_unchanged(self, fig1, fig1_p1):
        m = Matching(fig1, M_STAR)
        assert round_to_optimal(fig1, m, fig1_p1) == fig1_p1

    def test_perturbed_input_recovers_certificate(self, fig1, fig1_p1):
        m = Matching(fig1, M_STAR)
        pert = perturbed_eps_pair(fig1, m, fig1_p1, [0, Fraction(1, 4), 0])
        rounded = round_to_optimal(fig1, m, pert)
        assert rounded.is_integral
        assert check_complementary_slackness(fig1, m, rounded)

    def test_rejects_pairs_beyond_eps_bound(self, fig1, fig1_p1):
        m = Matching(fig1, M_STAR)
        pert = perturbed_eps_pair(fig1, m, fig1_p1, [0, Fraction(1, 2), 0])
        with pytest.raises(ValueError, match="not epsilon-optimal"):
            round_to_optimal(fig1, m, pert)

    def test_rejects_foreign_denominators(self, fig1):
        m = Matching(fig1, M_STAR)
        fine = DualPrices.from_values([-2, 0, 1], [3, 1, Fraction(1, 8)])
        with pytest.raises(ValueError, match="denominator"):
            round_to_optimal(fig1, m, fine)

    def test_auction_outputs_always_round_clean(self):
        rng = random.Random(606)
        for _ in range(150):
            g = make_feasible_square(rng, n_max=7)
            r = solve_auction(g)
            rounded = round_to_optimal(g, r.matching, r.prices)
            assert rounded.is_integral
            assert check_complementary_slackness(g, r.matching, rounded)
