"""Streaming enumeration of perfect matchings.

Branch and bound over edge subsets, after Fukuda & Matsui (1994) and Uno
(1997). Edges in no perfect matching are trimmed before every split, so no
branch is ever dead and each perfect matching is produced exactly once.
Composed with the tight subgraph this streams the minimum-weight perfect
matchings.

A trimmed subset falls apart into vertex-disjoint pieces: edges in every
perfect matching of it, which are *forced*, and its elementary
components, the *blocks*, in which every edge lies in some perfect
matching. ``allowed._scc_labels`` finds both from any one perfect matching.
A branch frame holds its blocks, each just its edges in increasing order,
and no matching. The stream keeps one mate array, indexed by left vertex,
that starts as the root's perfect matching; while a frame runs, the array
holds a perfect matching of the edges forced on its path and of its
blocks. A forced edge is a matched edge, so it is in the array already,
and a trim only groups the other edges by label. A frame with no block
emits a copy of the array. Otherwise, with M the array's matching on the
chosen block:

* The pivot is the lowest-index edge of any block.
* One breadth-first search inside that block finds an alternating cycle C
  through the pivot and writes M xor C into the array; of M and M xor C,
  one holds the pivot and the other does not.
* The "with pivot" child keeps the block's edges away from the pivot's
  endpoints; the "without pivot" child keeps every edge but the pivot.
  Each child is trimmed again when it is reached; every other block is
  handed on unchanged.
* The search is depth-first, and the "with pivot" child comes first:
  every matching that contains the pivot comes before every matching
  that avoids it.
* Only one child runs the search. When the pivot is unmatched, it runs at
  the branch, just before the "with pivot" child, which is reached next;
  when it is matched, the "without pivot" child runs it only once it is
  reached, so a frame that a capped stream never reaches costs nothing.
* Every vertex of a block has degree at least 2: a left vertex has its
  matched edge and an arc of some cycle, and a right vertex its matched
  edge and the arc into its mate. So a block with k left vertices and 2k
  edges has every degree exactly 2 and, being connected, is one
  alternating cycle, with exactly two perfect matchings: M and its other
  k edges. Each child writes one of them whole into the array, so such a
  block splits with no search and leaves nothing to trim.

The trimmed subset, its forced edges and its blocks do not depend on the
perfect matching used to find them, and neither does the pivot, so
siblings share the array. When the "without pivot" child is reached, the
"with pivot" subtree has left the array at its last output: on the
pivot's block a perfect matching that holds the pivot, and on every other
block a perfect matching of it. After a matched pivot, the child flips a
cycle through the pivot in it, as above; after an unmatched one, it writes
back M, saved at the branch as the block's k matched edges, and so spares
a search. No frame copies a matching, and the array needs no undo. The
output order is thus a function of the edge subset alone: the same for
any optimal price certificate and any perfect matching given at the root.
Hopcroft-Karp runs at most once, at the root, and not at all when the
caller supplies a perfect matching. ``tests/test_enumeration_order.py``
pins this order. Results stream from a generator (cap it with
itertools.islice), so exponentially many matchings never need to be held
at once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from .allowed import _scc_labels
from .graph import Matching, WeightedBipartiteGraph
from .matching import max_cardinality_matching
from .prices import DualPrices
from .tight import _tight_perfect_matching


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
    matching = max_cardinality_matching(graph, subset)
    if matching.is_perfect:
        yield from _branch(graph, subset, matching._mate_left)


def iter_min_weight_perfect_matchings(graph: WeightedBipartiteGraph, prices: DualPrices,
                                      matching: Matching | None = None
                                      ) -> Iterator[Matching]:
    """Yield every minimum-weight perfect matching, via the tight subgraph.

    ``matching``, when given, is a perfect matching whose edges are all
    tight under ``prices``, such as the one a solver returns with them; it
    spares the one Hopcroft-Karp run. The stream is the same whichever
    optimal prices and matching are given. Raises ValueError for a matching
    of another graph, one that is not perfect, or one with an edge that is
    not tight.

    Raises NotSquare for unequal sides, InfeasibleDual for infeasible
    prices and Infeasible when the tight subgraph has no perfect matching
    (prices feasible but not optimal).
    """
    tight, matching = _tight_perfect_matching(graph, prices, matching)
    yield from _branch(graph, tight.edge_indices, matching._mate_left)


def _branch(graph: WeightedBipartiteGraph, subset: Sequence[int],
            mate_left: Sequence[int | None]) -> Iterator[Matching]:
    """The depth-first search of the module docstring over the perfect
    matchings of ``subset``, given one of them as the matched edge at each
    left vertex."""
    left_of, right_of = graph._left_of, graph._right_of
    # The mate array of the module docstring: while a frame runs, a perfect
    # matching of the edges forced on its path and of its blocks.
    mate = list(mate_left)
    # A frame is (blocks, edges to trim, edges to write, flip); a block is
    # its edges in increasing order. A frame whose flip is a pivot is a
    # "without pivot" child still holding its parent block's edges: it
    # flips the cycle through the pivot and drops the pivot when popped.
    stack: list[tuple[tuple[list[int], ...], Sequence[int], Sequence[int], int | None]] = [
        ((), subset, (), None)]
    while stack:
        blocks, edges, write, flip = stack.pop()
        for e in write:
            mate[left_of[e]] = e
        if flip is not None:
            _flip_cycle(graph, edges, flip, mate)
            edges = edges[1:]
        if edges:
            # Trim: the edges of one component form a block. The matched
            # edges on no alternating cycle are forced, and already in the
            # array; the other edges lie in no perfect matching.
            parts: defaultdict[int, list[int]] = defaultdict(list)
            for e, label in zip(edges, _scc_labels(graph, edges, mate)):
                if label >= 0:
                    parts[label].append(e)
            blocks += tuple(parts.values())
        if not blocks:
            yield Matching._trusted(graph, mate)
            continue

        block = min(blocks)  # disjoint sorted lists: the lowest first edge
        rest = tuple(b for b in blocks if b is not block)
        pivot = block[0]
        u, v = left_of[pivot], right_of[pivot]
        matched = [e for e in block if mate[left_of[e]] == e]
        if len(block) == 2 * len(matched):
            # One alternating cycle, as every vertex of a block has degree
            # at least 2: its two perfect matchings are M and its other
            # edges, and each child writes one whole, with nothing to trim.
            other = [e for e in block if mate[left_of[e]] != e]
            with_pivot, without = (matched, other) if mate[u] == pivot else (other, matched)
            stack.append((rest, (), without, None))
            stack.append((rest, (), with_pivot, None))
            continue
        away = [e for e in block if left_of[e] != u and right_of[e] != v]
        if mate[u] == pivot:
            # The "with pivot" child takes the array as it is; its sibling
            # flips the last matching that child's subtree leaves.
            stack.append((rest, block, (), pivot))
        else:
            # Flip for the "with pivot" child, popped next; its sibling
            # writes M back.
            stack.append((rest, block[1:], matched, None))
            _flip_cycle(graph, block, pivot, mate)
        stack.append((rest, away, (), None))


def _flip_cycle(graph: WeightedBipartiteGraph, block: Sequence[int],
                pivot: int, mate: list[int | None]) -> None:
    """Write M xor C into ``mate``, for the perfect matching M that ``mate``
    holds on an elementary component, given as its edges ``block``, and an
    alternating cycle C through its edge ``pivot``.

    As in ``_scc_labels``, an unmatched edge (x, y) is the arc from left
    vertex x to the mate of y, so C is a cycle of arcs through the pivot's
    left endpoint u. A matched pivot is the edge into u; an unmatched one
    is the first arc out of u. A breadth-first search from u (or from the
    head of the pivot's arc) stops when it reaches u, and each left vertex
    on the cycle found takes its arc's edge as its new mate. In an
    elementary component every edge lies on such a cycle.
    """
    left_of, right_of = graph._left_of, graph._right_of
    partner: dict[int, int] = {}  # left mate of each right vertex
    arcs: dict[int, list[int]] = {}
    for e in block:
        x = left_of[e]
        if mate[x] == e:
            partner[right_of[e]] = x
        else:
            arcs.setdefault(x, []).append(e)
    u = left_of[pivot]
    if mate[u] == pivot:
        reach: dict[int, int] = {}  # left vertex -> edge of the arc into it
        queue = [u]
    else:
        w = partner[right_of[pivot]]
        reach = {w: pivot}
        queue = [w]
    for x in queue:  # the queue grows while it is read
        for e in arcs.get(x, ()):
            y = partner[right_of[e]]
            if y not in reach:
                reach[y] = e
                queue.append(y)
        if u in reach:
            break
    x = u
    while True:
        e = reach[x]
        x = left_of[e]
        mate[x] = e
        if x == u:
            return
