"""The graph's layout decision against the append-loop reference.

A graph whose left column is non-decreasing keeps each left vertex's
edges as one range; any other keeps a tuple per left vertex. Either way
its rows, ``left_edges`` and row minima equal those of the one-append-
per-edge adjacency below, on grouped and ungrouped graphs, graphs with
empty rows or no left vertex, their transposed copies and the pieces
``transforms._pieces`` splits them into.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import WeightedBipartiteGraph  # noqa: E402
from bipmatch.transforms import _pieces, _transposed  # noqa: E402


def reference_rows(graph):
    """Each left vertex's edge indices in input order, one append per edge."""
    rows = [[] for _ in range(graph.n_left)]
    for e, u in enumerate(graph._left_of):
        rows[u].append(e)
    return [tuple(row) for row in rows]


def assert_layout_matches_reference(graph):
    rows = reference_rows(graph)
    grouped = list(graph._left_of) == sorted(graph._left_of)
    assert bool(graph._row_starts) == grouped
    assert all(type(row) is (range if grouped else tuple) for row in graph._adj_left)
    assert list(map(tuple, graph._adj_left)) == rows
    assert [graph.left_edges(u) for u in range(graph.n_left)] == rows
    assert graph._row_minima() == [min((graph.weight(e) for e in row), default=None)
                                   for row in rows]


@st.composite
def graphs(draw):
    """Up to 12 x 12 vertices, so a column crosses several of the order
    check's chunks; the edges grouped by left vertex, grouped but for one
    swap of neighbouring edges (a descent anywhere), or in drawn order.
    Sides of 0 and vertices without edges come up often."""
    n, s = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(s - 1, 0))),
                          unique=True, max_size=n * s))
    order = draw(st.sampled_from(["grouped", "swap", "drawn"]))
    if order != "drawn":
        cells.sort()
    if order == "swap" and len(cells) > 1:
        k = draw(st.integers(0, len(cells) - 2))
        cells[k], cells[k + 1] = cells[k + 1], cells[k]
    weight = st.integers(-5, 5)
    return WeightedBipartiteGraph(n, s, [(u, v, draw(weight)) for u, v in cells])


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_layout_matches_reference(graph):
    assert_layout_matches_reference(graph)
    assert_layout_matches_reference(_transposed(graph))
    for piece, _parent in _pieces(graph):
        assert_layout_matches_reference(piece)


@pytest.mark.parametrize("left, grouped", [
    ((), True), ((0,), True), ((0, 0, 2, 2), True), ((1, 0), False),
    # A descent on either side of the first chunk boundary (edge 16).
    (tuple(range(16)) + (0,), False), (tuple(range(17)) + (0,), False),
    (tuple(range(15)) + (0,) + tuple(range(20, 40)), False),
    (tuple(sorted(list(range(40)) * 3)), True),
])
def test_layout_decision_on_chunk_boundaries(left, grouped):
    n = max(left, default=-1) + 1
    graph = WeightedBipartiteGraph._trusted(n, len(left), left, range(len(left)),
                                            [e % 7 for e in range(len(left))])
    assert bool(graph._row_starts) == grouped
    assert_layout_matches_reference(graph)
