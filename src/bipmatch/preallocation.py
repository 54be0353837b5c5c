"""Preference-constrained optimal matchings.

Among all minimum-weight perfect matchings, find one containing as many
edges as possible from a preferred subset. Those matchings are exactly the
perfect matchings of the optimal edges (``allowed.optimal_edges``), which
depend on the instance alone, so it suffices to re-solve on that edge set
with 0/1 weights: preferred edges cost 0, everything else costs 1.
"""

from __future__ import annotations

from .errors import ParseError
from .graph import EdgeSet, Matching, WeightedBipartiteGraph
from .solvers import solve_exact


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


def preallocate(edges: EdgeSet, prefs: EdgeSet) -> Matching:
    """A perfect matching of the edge set ``edges`` holding as many edges of
    ``prefs`` as any perfect matching of it does.

    Given ``optimal_edges(graph, prices)``, this is a minimum-weight perfect
    matching with the most preferred edges; preferred edges outside
    ``edges`` are never used. Solves exactly on ``edges`` with the 0/1
    preference costs.

    Raises ValueError when ``prefs`` belongs to another graph, NotSquare
    for unequal sides and Infeasible when ``edges`` has no perfect matching.
    """
    graph = edges.graph
    if prefs.graph is not graph:
        raise ValueError("preference set belongs to a different graph")
    kept = edges.edge_indices
    preferred = set(prefs.edge_indices)
    sub = WeightedBipartiteGraph._trusted(
        graph.n_left, graph.n_right, [graph._left_of[e] for e in kept],
        [graph._right_of[e] for e in kept], [0 if e in preferred else 1 for e in kept])
    result = solve_exact(sub)
    back = [kept[k] for k in result.matching.edge_indices]
    return Matching(graph, back)
