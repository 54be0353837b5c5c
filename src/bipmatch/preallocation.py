"""Preference-constrained optimal matchings.

Among all minimum-weight perfect matchings, find one containing as many
edges as possible from a preferred subset. Because the minimum-weight
perfect matchings are exactly the perfect matchings of the tight
subgraph, it suffices to re-solve on that subgraph with 0/1 weights:
preferred edges cost 0, everything else costs 1.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ParseError
from .graph import Matching, WeightedBipartiteGraph
from .prices import DualPrices
from .solvers import solve_exact
from .tight import build_gcs


class PreferenceSet:
    """A subset of parent edges marked as preferred."""

    __slots__ = ("_graph", "_indices")

    def __init__(self, graph: WeightedBipartiteGraph, edge_indices: Iterable[int]):
        indices = frozenset(edge_indices)
        for e in indices:
            if not (0 <= e < graph.edge_count):
                raise ValueError(f"preferred edge index {e} out of range")
        self._graph = graph
        self._indices = indices

    @classmethod
    def from_pairs(cls, graph: WeightedBipartiteGraph,
                   pairs: Iterable[tuple[int, int]]) -> "PreferenceSet":
        """Build from 0-based internal (left, right) pairs; every pair must
        name an existing edge."""
        indices = []
        for u, v in pairs:
            e = graph.edge_index(u, v)
            if e is None:
                raise ValueError(f"preferred pair (u{u}, v{v}) is not an edge")
            indices.append(e)
        return cls(graph, indices)

    @property
    def graph(self) -> WeightedBipartiteGraph:
        return self._graph

    @property
    def indices(self) -> frozenset[int]:
        return self._indices

    def preference_weight(self, e: int) -> int:
        """0 on preferred edges, 1 elsewhere."""
        return 0 if e in self._indices else 1

    def __contains__(self, e: int) -> bool:
        return e in self._indices

    def __len__(self) -> int:
        return len(self._indices)


def parse_preferences(text: str, graph: WeightedBipartiteGraph) -> PreferenceSet:
    """Parse a preference file: lines "f <i> <j>" with 1-based original
    labels, plus "c" comments. Unknown edges are an error."""
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
    return PreferenceSet(graph, indices)


def preallocate(graph: WeightedBipartiteGraph, prices: DualPrices,
                prefs: PreferenceSet) -> Matching:
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
        [graph._right_of[e] for e in kept], [prefs.preference_weight(e) for e in kept])
    result = solve_exact(sub)
    back = [kept[k] for k in result.matching.edge_indices]
    return Matching(graph, back)
