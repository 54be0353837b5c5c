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
A branch frame holds the edges it forces and its blocks, each block with
its edges in increasing order and a perfect matching M of it. The edges
forced on the current path live in one mate array per stream, indexed by
left vertex, which a frame writes its edges into when it is reached. A
frame with no block emits a copy of that array. Otherwise:

* The pivot is the lowest-index edge of any block.
* One breadth-first search inside that block finds an alternating cycle C
  through the pivot; of M and M xor C, one holds the pivot and the other
  does not.
* The "with pivot" child keeps the block's edges away from the pivot's
  endpoints, with the matching that holds the pivot; the "without pivot"
  child keeps every edge but the pivot, with the other matching. Each
  child is trimmed again when it is reached; every other block is handed
  on unchanged.
* The search is depth-first, and the "with pivot" child comes first:
  every matching that contains the pivot comes before every matching
  that avoids it.
* Only the child whose matching is M xor C needs the search. When the
  pivot is unmatched that is the "with pivot" child, reached next; when
  it is matched, the "without pivot" child runs the search only once it
  is reached, so a frame that a capped stream never reaches costs
  nothing.
* Every vertex of a block has degree at least 2: a left vertex has its
  matched edge and an arc of some cycle, and a right vertex its matched
  edge and the arc into its mate. So a block with k left vertices and 2k
  edges has every degree exactly 2 and, being connected, is one
  alternating cycle, with exactly two perfect matchings: M and its other
  k edges. Its two children are those two matchings, forced whole, so
  such a block splits with no search and leaves nothing to trim.

The mate array needs no undo. A frame's forced edges and blocks cover
disjoint sets of vertices, so each left vertex is forced exactly once on
any path from the root to a frame with no block, and no frame below the
one that forces it writes to it. Every entry left by an earlier branch is
thus written over before the next emit, and the array then holds exactly
the forced edges of the path, one per left vertex.

The trimmed subset, its forced edges and its blocks do not depend on the
perfect matching used to find them, and neither does the pivot, so the
output order is a function of the edge subset alone: the same for any
optimal price certificate and any perfect matching given at the root.
Hopcroft-Karp runs at most once, at the root, and not at all when the
caller supplies a perfect matching. ``tests/test_enumeration_order.py``
pins this order. Results stream from a generator (cap it with
itertools.islice), so exponentially many matchings never need to be held
at once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

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
    # The mate array of the module docstring: the edge forced at each left
    # vertex on the path to the frame being run. A frame writes into it
    # the edges it forces and those its trim forces.
    chosen: list[int | None] = [None] * graph.n_left
    # A frame is (edges it forces, blocks, edges to trim, their perfect
    # matching, flip); a block is (edges, its perfect matching by left
    # vertex). A frame whose flip is a pivot is a "without pivot" child
    # still holding its parent block's edges and matching: it flips the
    # cycle through the pivot and drops the pivot when it is popped.
    stack: list[tuple[tuple[int, ...], tuple, Sequence[int],
                      Sequence[int | None] | Mapping[int, int], int | None]] = [
        ((), (), subset, mate_left, None)]
    while stack:
        added, blocks, edges, mate, flip = stack.pop()
        for e in added:
            chosen[left_of[e]] = e
        if flip is not None:
            mate = _flip_cycle(graph, edges, mate, flip)
            edges = edges[1:]
        if edges:
            # Trim: matched edges on no alternating cycle are forced, the
            # edges of one component form a block, and the other edges lie
            # in no perfect matching.
            parts: dict[int, tuple[list[int], dict[int, int]]] = {}
            for e, label in zip(edges, _scc_labels(graph, edges, mate)):
                u = left_of[e]
                if label >= 0:
                    part = parts.get(label)
                    if part is None:
                        part = parts[label] = ([], {})
                    part[0].append(e)
                    if mate[u] == e:
                        part[1][u] = e
                elif mate[u] == e:
                    chosen[u] = e
            blocks += tuple(parts.values())
        if not blocks:
            yield Matching._trusted(graph, chosen)
            continue

        block = min(blocks, key=lambda b: b[0][0])
        rest = tuple(b for b in blocks if b is not block)
        edges, mate = block
        pivot = edges[0]
        u, v = left_of[pivot], right_of[pivot]
        if len(edges) == 2 * len(mate):
            # One alternating cycle, as every vertex of a block has degree
            # at least 2: its two perfect matchings are M and its other
            # edges, and each child takes one whole, with nothing to trim.
            matched = tuple(mate.values())
            other = tuple(e for e in edges if mate[left_of[e]] != e)
            with_pivot, without = (matched, other) if mate[u] == pivot else (other, matched)
            stack.append((without, rest, (), mate, None))
            stack.append((with_pivot, rest, (), mate, None))
            continue
        away = [e for e in edges if left_of[e] != u and right_of[e] != v]
        if mate[u] == pivot:
            stack.append(((), rest, edges, mate, pivot))
            stack.append(((pivot,), rest, away, mate, None))
        else:
            stack.append(((), rest, edges[1:], mate, None))
            stack.append(((pivot,), rest, away,
                          _flip_cycle(graph, edges, mate, pivot), None))


def _flip_cycle(graph: WeightedBipartiteGraph, edges: Sequence[int],
                mate: Mapping[int, int], pivot: int) -> dict[int, int]:
    """M xor C, for the perfect matching ``mate`` of an elementary component
    and an alternating cycle C through its edge ``pivot``.

    As in ``_scc_labels``, an unmatched edge (x, y) is the arc from left
    vertex x to the mate of y, so C is a cycle of arcs through the pivot's
    left endpoint u. A matched pivot is the edge into u; an unmatched one
    is the first arc out of u. A breadth-first search from u (or from the
    head of the pivot's arc) stops when it reaches u, and each left vertex
    on the cycle found takes its arc's edge as its new mate. In an
    elementary component every edge lies on such a cycle.
    """
    left_of, right_of = graph._left_of, graph._right_of
    partner = {right_of[e]: x for x, e in mate.items()}
    arcs: dict[int, list[int]] = {}
    for e in edges:
        x = left_of[e]
        if mate[x] != e:
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
    flipped = dict(mate)
    x = u
    while True:
        e = reach[x]
        x = left_of[e]
        flipped[x] = e
        if x == u:
            return flipped
