"""Property tests for the per-edge slack: the three certificate checkers,
build_gcs and gcs_to_json agree with a plain Fraction reference
on random prices and weights up to 2^40 in size."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (MAX_ABS_WEIGHT, DualPrices,  # noqa: E402
                      InfeasibleDual, Matching, WeightedBipartiteGraph, build_gcs,
                      check_complementary_slackness, check_dual_feasible,
                      check_eps_optimal, gcs_to_json)
from bipmatch.prices import edge_slacks  # noqa: E402


@st.composite
def certificates(draw, max_n=5):
    """A square graph, a perfect matching of it, prices over a denominator
    in {1, 2, 3, 6, n+1}, and an epsilon. Most weights sit within one unit
    of their edge's price sum, so tight, fractional and violated slacks
    all occur; the rest are arbitrary in [-2^40, 2^40]."""
    n = draw(st.integers(0, max_n))
    den = draw(st.sampled_from([1, 2, 3, 6, n + 1]))
    perm = draw(st.permutations(range(n)))
    cells = {(u, perm[u]) for u in range(n)}
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cells |= draw(st.sets(cell, max_size=n * n))
    order = draw(st.permutations(sorted(cells)))
    # Price sums stay within 2^40 - 2 so weights near them are admissible.
    bound = (MAX_ABS_WEIGHT // 2 - 1) * den
    nums = st.integers(-bound, bound)
    left = draw(st.lists(nums, min_size=n, max_size=n))
    right = draw(st.lists(nums, min_size=n, max_size=n))
    for u in range(n):
        if draw(st.booleans()):  # make the matched price sum integral
            left[u] -= (left[u] + right[perm[u]]) % den
    edges = []
    for u, v in order:
        if draw(st.integers(0, 3)):
            w = (left[u] + right[v]) // den + draw(st.integers(-1, 1))
        else:
            w = draw(st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT))
        edges.append((u, v, w))
    graph = WeightedBipartiteGraph(n, n, edges)
    matching = Matching(graph, [order.index((u, perm[u])) for u in range(n)])
    eps = Fraction(draw(st.integers(0, 3)), draw(st.integers(1, n + 2)))
    return graph, matching, DualPrices(left, right, den), eps


def _json_slack(slack: Fraction):
    return slack.numerator if slack.denominator == 1 else str(slack)


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_slack_consumers_match_fraction_reference(case):
    graph, matching, prices, eps = case
    ref = [w - prices.left_price(u) - prices.right_price(v) for u, v, w in graph.edges]
    feasible = all(slack >= 0 for slack in ref)
    matched_tight = all(ref[e] == 0 for e in matching)
    tight = tuple(e for e, slack in enumerate(ref) if slack == 0)

    assert [Fraction(num, prices.den) for num in edge_slacks(graph, prices)] == ref
    assert check_dual_feasible(graph, prices) == [
        (e, slack) for e, slack in enumerate(ref) if slack < 0]
    assert check_complementary_slackness(graph, matching, prices) == (
        feasible and matched_tight)
    assert check_eps_optimal(graph, matching, prices, eps) == (
        all(slack >= -eps for slack in ref) and matched_tight)
    if not feasible:
        for build in (build_gcs, gcs_to_json):
            with pytest.raises(InfeasibleDual):
                build(graph, prices)
        return
    assert build_gcs(graph, prices).edge_indices == tight
    blob = gcs_to_json(graph, prices)
    assert blob["edges"] == sorted([*graph.original_pair(e)] for e in tight)
    assert blob["dropped"] == sorted(
        [*graph.original_pair(e), _json_slack(slack)]
        for e, slack in enumerate(ref) if slack != 0)
