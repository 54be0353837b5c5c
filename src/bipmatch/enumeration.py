"""Streaming enumeration of perfect matchings.

Branch and bound over edge subsets: take one perfect matching, pick a
matched edge lying on an alternating cycle, and split into the matchings
that contain it (endpoints removed) and those that avoid it (edge
removed). Edges in no perfect matching are trimmed before every split, so
no branch is ever dead and each perfect matching is produced exactly
once. Composed with the tight subgraph this streams the minimum-weight
perfect matchings.

Output order is deterministic for a fixed edge order; results stream
from a generator (cap it with itertools.islice) so exponentially many
matchings never need to be held at once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .allowed import _allowed_subset, _scc_labels
from .errors import Infeasible
from .graph import Matching, WeightedBipartiteGraph
from .matching import max_cardinality_matching
from .prices import DualPrices
from .tight import build_gcs


def iter_perfect_matchings(graph: WeightedBipartiteGraph,
                           edge_indices: Iterable[int] | None = None
                           ) -> Iterator[Matching]:
    """Yield every perfect matching of the graph (or of the subgraph given
    by ``edge_indices``) exactly once. Infeasible inputs yield nothing."""
    if graph.n_left != graph.n_right:
        return
    n = graph.n_left
    subset = tuple(range(graph.edge_count)) if edge_indices is None \
        else tuple(sorted(set(edge_indices)))

    # Frames: (remaining edge subset, edges already forced into the matching).
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(subset, ())]
    at_root = True
    while stack:
        edges, forced = stack.pop()
        need = n - len(forced)
        if need == 0:
            yield Matching(graph, forced)
            continue
        matching = max_cardinality_matching(graph, edges)
        if matching.cardinality < need:
            if at_root:
                return
            raise AssertionError("enumeration branch lost feasibility")
        at_root = False

        comp = _scc_labels(graph, edges, matching)
        pivot = None
        for e in matching.edge_indices:
            u, v = graph.endpoints(e)
            if comp[u] == comp[n + v]:
                pivot = e
                break
        if pivot is None:
            # No matched edge on an alternating cycle: unique perfect matching.
            yield Matching(graph, forced + matching.edge_indices)
            continue

        # Trim to edges in some perfect matching, then split on the pivot.
        allowed = _allowed_subset(graph, edges, matching, comp)
        pu, pv = graph.endpoints(pivot)
        without = tuple(e for e in allowed if e != pivot)
        with_pivot = tuple(
            e for e in allowed
            if e != pivot and graph.endpoints(e)[0] != pu and graph.endpoints(e)[1] != pv)
        stack.append((without, forced))
        stack.append((with_pivot, forced + (pivot,)))


def iter_min_weight_perfect_matchings(graph: WeightedBipartiteGraph,
                                      prices: DualPrices) -> Iterator[Matching]:
    """Yield every minimum-weight perfect matching, via the tight subgraph.

    Raises InfeasibleDual for infeasible prices and Infeasible when the
    tight subgraph has no perfect matching (prices feasible but not
    optimal).
    """
    tight = build_gcs(graph, prices)
    produced = False
    for matching in iter_perfect_matchings(graph, tight.edge_indices):
        produced = True
        yield matching
    if not produced:
        raise Infeasible(
            "tight subgraph has no perfect matching; either the instance is "
            "infeasible or the supplied prices are not optimal")
