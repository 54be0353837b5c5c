"""Streaming enumeration of perfect matchings.

Branch and bound over edge subsets: take one perfect matching, pick a
matched edge lying on an alternating cycle, and split into the matchings
that contain it (endpoints removed) and those that avoid it (edge
removed). Edges in no perfect matching are trimmed before every split, so
no branch is ever dead and each perfect matching is produced exactly
once. Composed with the tight subgraph this streams the minimum-weight
perfect matchings.

Output order is a function of the edge order alone. It is defined as if
every branch frame worked on its whole remaining edge subset:

* A frame takes the Hopcroft-Karp matching ``max_cardinality_matching``
  finds on its subset, which the edge order fixes.
* The pivot is the lowest-index edge of that matching that lies on an
  alternating cycle. A frame without one emits its matching plus the
  edges forced so far.
* The search is depth-first, and the "with pivot" branch is emitted first:
  every matching that contains the pivot comes before every matching that
  avoids it.

Frames do not redo that work on the whole subset. A trimmed subset falls
apart into vertex-disjoint pieces: matched edges on no alternating cycle,
each alone at its endpoints, and the non-trivial strongly connected
components. A frame moves the former into its forced edges and keeps each
component as a *block*: its edges in increasing order, its number of left
vertices, and the lowest edge of the Hopcroft-Karp matching of exactly
those edges, or None until that is computed. A block is shared by every
frame below the one that made it, so it is filled in at most once.

* The *dirty* edges are the root subset, or the "with" or "without" child
  of the block the pivot split. Only they run Hopcroft-Karp and
  ``allowed._scc_labels``, and its per-edge labels trim them: an edge
  labelled -1 is forced when matched and dropped otherwise, and the edges
  of one label form a new block. A new block keeps this run's lowest
  matched edge only when the trim removed no edge.
* A *stale* block, one still holding None, runs Hopcroft-Karp only. A
  component is elementary (connected, every edge in some perfect
  matching), so no edge of it would be trimmed, and every matched edge of
  any perfect matching of it lies on an alternating cycle.
* The pivot is the lowest matched edge over all blocks. Only its block
  splits; every other block is handed on unchanged and never runs
  Hopcroft-Karp or Tarjan again.

This keeps the order above because Hopcroft-Karp on a vertex-disjoint
union returns the union of its results on the parts: the greedy first
pass, the breadth-first layers and the phase lengths are all per part
(``tests/test_matching_properties.py`` tests this). So a frame's matching
of its whole subset is its forced pieces plus each block's own matching,
the matched edges on cycles are exactly those of the blocks, and the
lowest of them is the pivot. A trimmed edge may have steered
Hopcroft-Karp's choices on what is left, which is why a trim leaves the
new blocks to be computed again below.

``tests/test_enumeration_order.py`` pins this order. Results stream from
a generator (cap it with itertools.islice), so exponentially many
matchings never need to be held at once.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .allowed import _scc_labels
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

    def emit(forced: tuple[int, ...]) -> Matching:
        mate_left: list[int | None] = [None] * n
        for e in forced:
            mate_left[left_of[e]] = e
        return Matching._trusted(graph, mate_left)

    # A block is [edges, number of left vertices, lowest matched edge or
    # None], as the module docstring describes. Frames: (forced edges,
    # blocks, dirty edges, left vertices the dirty edges must match).
    stack: list[tuple[tuple[int, ...], tuple[list, ...], Sequence[int], int]] = [
        ((), (), subset, n)]
    at_root = True
    while stack:
        forced, blocks, dirty, need = stack.pop()
        matching = max_cardinality_matching(graph, dirty)
        if matching.cardinality < need:
            if at_root:
                return
            raise AssertionError("enumeration branch lost feasibility")
        at_root = False

        # Trim the dirty edges: matched edges on no alternating cycle are
        # forced, each non-trivial component becomes a block, and the other
        # edges lie in no perfect matching.
        mate_left = matching._mate_left
        parts: dict[int, list] = {}
        kept: list[int] = []
        trimmed = False
        for e, label in zip(dirty, _scc_labels(graph, dirty, mate_left)):
            matched = mate_left[left_of[e]] == e
            if label >= 0:
                block = parts.get(label)
                if block is None:
                    block = parts[label] = [[], 0, None]
                block[0].append(e)
                if matched:
                    block[1] += 1
                    if block[2] is None:
                        block[2] = e
            elif matched:
                kept.append(e)
            else:
                trimmed = True
        forced += tuple(kept)

        for block in blocks:
            if block[2] is None:
                block[2] = max_cardinality_matching(graph, block[0]).edge_indices[0]
        blocks += tuple(parts.values())
        if not blocks:
            yield emit(forced)
            continue
        # The pivot is the lowest-index matched edge of any block; only its
        # block splits, so every other block is handed on unchanged.
        split = min(blocks, key=itemgetter(2))
        pivot = split[2]
        if trimmed:  # this run's choices may rest on a trimmed edge
            for block in parts.values():
                block[2] = None
        rest = tuple(block for block in blocks if block is not split)
        edges, size = split[0], split[1]
        pu, pv = left_of[pivot], right_of[pivot]
        stack.append((forced, rest, [e for e in edges if e != pivot], size))
        stack.append((forced + (pivot,), rest,
                      [e for e in edges if left_of[e] != pu and right_of[e] != pv], size - 1))


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
