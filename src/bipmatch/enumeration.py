"""Streaming enumeration of perfect matchings.

Branch and bound over edge subsets: take one perfect matching, pick a
matched edge lying on an alternating cycle, and split into the matchings
that contain it (endpoints removed) and those that avoid it (edge
removed). Edges in no perfect matching are trimmed before every split, so
no branch is ever dead and each perfect matching is produced exactly
once. Composed with the tight subgraph this streams the minimum-weight
perfect matchings.

Output order is a function of the edge order alone:

* Each branch frame holds an edge subset and the edges forced so far. It
  takes the Hopcroft-Karp matching ``max_cardinality_matching`` finds on
  its subset, which the edge order fixes.
* The pivot is the lowest-index edge of that matching that lies on an
  alternating cycle. A frame without one emits its matching plus the
  forced edges; a frame with nothing left to match emits the forced edges.
* The search is depth-first, and the "with pivot" branch is emitted first:
  every matching that contains the pivot comes before every matching that
  avoids it.

``tests/test_enumeration_order.py`` pins this order. Results stream from
a generator (cap it with itertools.islice), so exponentially many
matchings never need to be held at once. Each frame reads edge endpoints
from the graph's flat per-edge columns.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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
    by ``edge_indices``) exactly once. Infeasible inputs yield nothing.

    Raises ValueError, on the first ``next``, for an index in
    ``edge_indices`` outside the graph.
    """
    subset = graph._edge_subset(edge_indices)
    if graph.n_left != graph.n_right:
        return
    n = graph.n_left
    left_of, right_of = graph._left_of, graph._right_of

    def emit(mate_left: list[int | None], forced: tuple[int, ...]) -> Matching:
        for e in forced:
            mate_left[left_of[e]] = e
        return Matching._trusted(graph, mate_left)

    # Frames: (remaining edge subset, edges already forced into the matching).
    stack: list[tuple[Sequence[int], tuple[int, ...]]] = [(subset, ())]
    at_root = True
    while stack:
        edges, forced = stack.pop()
        need = n - len(forced)
        if need == 0:
            yield emit([None] * n, forced)
            continue
        matching = max_cardinality_matching(graph, edges)
        if matching.cardinality < need:
            if at_root:
                return
            raise AssertionError("enumeration branch lost feasibility")
        at_root = False

        mate_left = matching._mate_left
        comp = _scc_labels(graph, edges, mate_left)
        pivot = None
        for e in matching.edge_indices:
            if comp[left_of[e]] == comp[n + right_of[e]]:
                pivot = e
                break
        if pivot is None:
            # No matched edge on an alternating cycle: unique perfect matching.
            yield emit(list(mate_left), forced)
            continue

        # Trim to edges in some perfect matching, then split on the pivot.
        allowed = _allowed_subset(graph, edges, mate_left, comp)
        pu, pv = left_of[pivot], right_of[pivot]
        without = [e for e in allowed if e != pivot]
        with_pivot = [e for e in allowed if left_of[e] != pu and right_of[e] != pv]
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
