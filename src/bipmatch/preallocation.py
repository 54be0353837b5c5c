"""Preference-constrained optimal matchings.

Among all minimum-weight perfect matchings, find one containing as many
edges as possible from a preferred subset. Because the minimum-weight
perfect matchings are exactly the perfect matchings of the tight
subgraph, it suffices to re-solve on that subgraph with 0/1 weights:
preferred edges cost 0, everything else costs 1. The preferred subset is
an ``EdgeSet`` of the instance's graph.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import EdgeSet, Matching, WeightedBipartiteGraph
from .prices import DualPrices
from .solvers import solve_exact
from .tight import build_gcs


def parse_preferences(text: str, graph: WeightedBipartiteGraph) -> EdgeSet:
    """Parse a preference file: lines "f <i> <j>" with 1-based labels,
    plus "c" comments. Unknown edges are an error."""
    indices = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        fields = stripped.split()
        if fields[0] != "f" or len(fields) != 3:
            raise ParseError(f"malformed preference line {stripped!r}", lineno)
        try:
            i, j = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"non-integer preference field in {stripped!r}", lineno)
        e = graph.original_edge_index(i, j)
        if e is None:
            raise ParseError(f"preference names unknown edge ({fields[1]}, {fields[2]})",
                             lineno)
        indices.append(e)
    return EdgeSet(graph, indices)


def preallocate(graph: WeightedBipartiteGraph, prices: DualPrices,
                prefs: EdgeSet) -> Matching:
    """A minimum-weight perfect matching maximizing the number of preferred
    edges it contains.

    Builds the tight subgraph under the (optimal) prices, reweights it
    with the 0/1 preference costs, and solves exactly. Preferred edges
    outside the tight subgraph can never appear: they are not in any
    optimal matching to begin with.

    Raises InfeasibleDual for infeasible prices and Infeasible when the
    tight subgraph has no perfect matching (prices not optimal).
    """
    if prefs.graph is not graph:
        raise ValueError("preference set belongs to a different graph")
    kept = build_gcs(graph, prices).edge_indices
    sub = WeightedBipartiteGraph._trusted(
        graph.n_left, graph.n_right, [graph._left_of[e] for e in kept],
        [graph._right_of[e] for e in kept], [0 if e in prefs else 1 for e in kept])
    result = solve_exact(sub)
    back = [kept[k] for k in result.matching.edge_indices]
    return Matching(graph, back)
