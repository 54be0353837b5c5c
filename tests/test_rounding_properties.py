"""Property test for price rounding: ``round_to_optimal`` and
``select_shift``, which work on integer numerators, agree with the
Fraction reference in the test suite on every input, the rounded prices
and the error messages alike."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (MAX_ABS_WEIGHT, DualPrices, Matching,  # noqa: E402
                      WeightedBipartiteGraph, round_to_optimal, select_shift)

from conftest import reference_round_to_optimal, reference_select_shift  # noqa: E402


@st.composite
def rounding_cases(draw, max_n=6):
    """A square graph, a perfect matching of it, and prices on the
    1/(n+1) grid that are tight on the matching. Each other edge's weight
    sits at the ceiling of its price sum plus -1, 0 or 1, so its slack
    ranges over [-1, 2) and some pairs are epsilon-optimal at 1/(n+1) and
    some are not. The numerators are then put over a denominator that is
    a multiple of n+1 or, now and then, one that is not."""
    n = draw(st.integers(0, max_n))
    modulus = n + 1
    perm = draw(st.permutations(range(n)))
    cells = {(u, perm[u]) for u in range(n)}
    if n:
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        cells |= draw(st.sets(cell, max_size=n * n))
    order = draw(st.permutations(sorted(cells)))
    bound = MAX_ABS_WEIGHT // 4
    right = draw(st.lists(st.integers(-bound * modulus, bound * modulus),
                          min_size=n, max_size=n))
    matched = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    left = [matched[u] * modulus - right[perm[u]] for u in range(n)]
    edges = []
    for u, v in order:
        if v == perm[u]:
            w = matched[u]
        else:
            w = -(-(left[u] + right[v]) // modulus) + draw(st.integers(-1, 1))
        edges.append((u, v, w))
    graph = WeightedBipartiteGraph(n, n, edges)
    matching = Matching(graph, [order.index((u, perm[u])) for u in range(n)])
    den = draw(st.sampled_from([modulus, 2 * modulus, 3 * modulus, modulus + 1, 2]))
    scale = den // modulus if den % modulus == 0 else 1
    prices = DualPrices([x * scale for x in left], [x * scale for x in right], den)
    return graph, matching, prices


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400, deadline=None)
@given(rounding_cases())
def test_rounding_matches_fraction_reference(case):
    graph, matching, prices = case
    assert (_outcome(round_to_optimal, graph, matching, prices)
            == _outcome(reference_round_to_optimal, graph, matching, prices))
    n = graph.n_left
    assert (_outcome(select_shift, prices.right_prices(), n)
            == _outcome(reference_select_shift, prices.right_prices(), n))
