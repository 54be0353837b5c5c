"""Optimum matchings and optimal edges of any graph, and the reductions.

An optimum matching is a maximum-cardinality matching of minimum weight.
``optimum_matching`` builds no transformed graph, and it runs every
search from the smaller side, so its work depends on that side (Ramshaw
and Tarjan, 2012): it reads the graph through its wide copy, the graph
itself or its transposed copy, in which edge e is still edge e. The
coverage check, a maximum-matching run, runs on that copy. On a graph
whose smaller side can be covered, the exact solver's shortest-path loop
runs on it too, with every free vertex of the larger side at one shared,
largest price. On a square graph that run is ``solve_exact``.

A graph whose smaller side cannot be covered is split in two (Dulmage
and Mendelsohn, 1958). The vertices X that alternating paths reach from
the left vertices a maximum matching leaves free induce a graph whose
right side can be covered, the other vertices one whose left side can,
and no edge between the two lies in a maximum matching. X is the same
for every maximum matching, so the wide copy's serves. The same loop
runs once on each piece, from its coverable side, and the two matchings
are joined. ``optimal_edges_general`` labels the same pieces.

The paper reduces the question to a perfect matching problem on a
balanced graph, solved there; only the edges that came from the original
graph are kept. The three reductions are its constructions:

* full doubling: mirror the whole graph, join every vertex to its mirror
  copy with heavy link edges (weight 2*s*W). Works unconditionally.
* half doubling: the same without the right-side links (link weight is a
  free constant k). Needs a matching covering the smaller side.
* padding: add artificial right vertices joined to every left vertex at
  constant cost k. Also needs a matching covering the smaller side; it
  adds n*(n-s) edges, and nothing on a square graph.

For a reduction t, ``restrict_back(t, solve_exact(t.graph).matching)``
is an optimum of the parent. Without that coverage, half doubling and
padding give a graph with no perfect matching: ``solve_exact`` raises
``Infeasible``.

No function here runs a reduction: they are the tests' oracle. They read
a graph with its larger side on the left (``_tall``), so n >= s and
"right side" means the smaller side; the parent of a transformed
instance is still the caller's graph.

Every derived graph lists the parent's m edges first, in parent order:
derived edge e < m is parent edge e, and the later ones (mirror copies,
links, padding) have no parent counterpart. Nothing else records origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count
from typing import Iterable, Sequence

from .allowed import _cycle_or_matched
from .graph import EdgeSet, Matching, WeightedBipartiteGraph, _check_weight
from .matching import max_cardinality_matching
from .solvers import _cover_left
from .tight import build_gcs

FULL_DOUBLING = "doubling"
HALF_DOUBLING = "half-doubling"
PADDING = "artificial"
AUTO = "auto"


@dataclass(frozen=True)
class TransformedInstance:
    """A balanced graph derived from ``parent``.

    Derived edges 0..m-1 are the parent's m edges in parent order, read
    with the larger side on the left (``_tall``); every later edge is new.
    """

    parent: WeightedBipartiteGraph
    graph: WeightedBipartiteGraph

    def original_edge_indices(self, edges) -> list[int]:
        """The parent edges among the given derived edge indices."""
        m = self.parent.edge_count
        return [e for e in edges if e < m]


def _transposed(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    """A copy of the graph with the sides exchanged, in which edge e is
    still edge e."""
    return WeightedBipartiteGraph._trusted(graph.n_right, graph.n_left,
                                           graph._right_of, graph._left_of, graph._weight_of)


def _tall(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    """The graph with its larger side on the left: the graph itself or its
    transposed copy."""
    return graph if graph.n_left >= graph.n_right else _transposed(graph)


def _mirrored(graph: WeightedBipartiteGraph,
              link_w: int) -> tuple[list[int], list[int], list[int]]:
    """The (left, right, weight) edge columns shared by both doublings:
    the original edges (0..m-1), their mirror copies (m..2m-1, mirror e
    weighing what edge e-m weighs), and a left link of weight link_w from
    each left vertex to its copy.

    Left side: original left vertices, then mirrored right copies.
    Right side: original right vertices, then mirrored left copies.
    """
    n, s = graph.n_left, graph.n_right
    left_of, right_of, weight_of = graph._left_of, graph._right_of, graph._weight_of
    left = [*left_of, *[n + v for v in right_of], *range(n)]
    right = [*right_of, *[s + u for u in left_of], *range(s, s + n)]
    weight = [*weight_of, *weight_of, *[link_w] * n]
    return left, right, weight


def first_doubling(graph: WeightedBipartiteGraph) -> TransformedInstance:
    """Mirror the graph and link each vertex to its copy with weight 2*s*W.

    The transformed graph is balanced with sides n+s and always has a
    perfect matching (the link edges alone form one), so it works even
    when the input has no matching covering the right side. The link
    weight may exceed MAX_ABS_WEIGHT; the solvers work in Python ints.

    When every weight is zero the link weight is clamped to 2*s*1: with
    zero-cost links the reduction loses its cardinality pressure (skipping
    a vertex pair would be free) and could return a non-maximum matching.
    """
    tall = _tall(graph)
    n, s = tall.n_left, tall.n_right
    link_w = 2 * s * max(graph.max_abs_weight, 1)
    left, right, weight = _mirrored(tall, link_w)
    left.extend(range(n, n + s))
    right.extend(range(s))
    weight.extend([link_w] * s)
    doubled = WeightedBipartiteGraph._trusted(n + s, n + s, left, right, weight)
    return TransformedInstance(graph, doubled)


def second_doubling(graph: WeightedBipartiteGraph, k: int = 0) -> TransformedInstance:
    """The doubling without right-side links; left links weigh k.

    The transformed graph has a perfect matching exactly when the input
    has a matching covering its right side.
    """
    _check_weight(k)
    tall = _tall(graph)
    n, s = tall.n_left, tall.n_right
    halved = WeightedBipartiteGraph._trusted(n + s, n + s, *_mirrored(tall, k))
    return TransformedInstance(graph, halved)


def artificial_vertices(graph: WeightedBipartiteGraph, k: int = 0) -> TransformedInstance:
    """Balance the graph by padding the right side with n-s artificial
    vertices joined to every left vertex at weight k."""
    _check_weight(k)
    tall = _tall(graph)
    n, s = tall.n_left, tall.n_right
    left = [*tall._left_of, *[u for u in range(n) for _v in range(s, n)]]
    right = [*tall._right_of, *[v for _u in range(n) for v in range(s, n)]]
    weight = [*tall._weight_of, *[k] * (n * (n - s))]
    padded = WeightedBipartiteGraph._trusted(n, n, left, right, weight)
    return TransformedInstance(graph, padded)


def restrict_back(transformed: TransformedInstance, matching: Matching) -> Matching:
    """Keep exactly the parent edges of a perfect matching of the
    transformed graph, as a matching of the parent."""
    if matching.graph is not transformed.graph:
        raise ValueError("matching does not belong to the transformed graph")
    if not matching.is_perfect:
        raise ValueError("restriction needs a perfect matching of the transformed graph")
    return Matching(transformed.parent,
                    transformed.original_edge_indices(matching.edge_indices))


def choose_strategy(graph: WeightedBipartiteGraph) -> str:
    """Pick a reduction: full doubling when the smaller side cannot be
    covered, padding on a square graph, which it leaves as it is, and half
    doubling on every other graph.

    ``_pieces`` reads the answer only as a coverage verdict: it splits a
    graph when full doubling is picked and keeps every other graph whole,
    and no function here transforms a graph."""
    if max_cardinality_matching(graph).cardinality < min(graph.n_left, graph.n_right):
        return FULL_DOUBLING
    return PADDING if graph.n_left == graph.n_right else HALF_DOUBLING


def _reached(graph: WeightedBipartiteGraph,
             matched: Iterable[int]) -> tuple[list[bool], list[bool]]:
    """Flags for the left and for the right vertices that alternating paths
    reach from the left vertices the maximum matching ``matched`` (edge
    indices) leaves free.

    Every reached right vertex is matched, or its path would augment, and
    its mate is reached too; no edge leaves a reached left vertex for an
    unreached right one. So the matching covers the right side of the
    reached piece and the left side of the other. The unreached left and
    the reached right vertices form a vertex cover as large as the
    matching (Konig's theorem), so a maximum matching puts one cover vertex on each
    edge, and an edge that joins two cover vertices, the only kind that
    joins the pieces, lies in none.

    The flags are the same for every maximum matching (Dulmage and
    Mendelsohn, 1958), so ``optimum_matching`` passes the one it finds on
    its wide copy, in which edge e is edge e of the graph."""
    left_of, right_of, adj_left = graph._left_of, graph._right_of, graph._adj_left
    mate_of_right: list[int] = [-1] * graph.n_right
    reached_left = [True] * graph.n_left
    for e in matched:
        mate_of_right[right_of[e]] = left_of[e]
        reached_left[left_of[e]] = False
    reached_right = [False] * graph.n_right
    queue = [u for u, free in enumerate(reached_left) if free]
    for u in queue:  # the loop also visits the mates appended below
        for e in adj_left[u]:
            v = right_of[e]
            if not reached_right[v]:
                reached_right[v] = True
                w = mate_of_right[v]
                reached_left[w] = True
                queue.append(w)
    return reached_left, reached_right


def _pieces(graph: WeightedBipartiteGraph) -> list[tuple[WeightedBipartiteGraph, Sequence[int]]]:
    """The pieces whose optima joined are the graph's, each with its
    coverable side on the left, and the parent edge of each of its edges.
    A coverable graph is one piece, its wide copy, in which edge e is still
    edge e. Any other gives the two pieces of ``_reached``, each a compact
    copy, its vertices renumbered in index order and its edges in parent
    order, transposed for the reached piece."""
    wide = graph if graph.n_left <= graph.n_right else _transposed(graph)
    if choose_strategy(wide) != FULL_DOUBLING:  # the one coverage check
        return [(wide, range(graph.edge_count))]
    reached_left, reached_right = _reached(graph, max_cardinality_matching(wide))
    left_of, right_of, weight_of = graph._left_of, graph._right_of, graph._weight_of
    pieces = []
    for reached in (True, False):
        # The new number of each vertex of the piece; the last entry counts them.
        left_id = list(accumulate((flag == reached for flag in reached_left), initial=0))
        right_id = list(accumulate((flag == reached for flag in reached_right), initial=0))
        edges = [e for e, u, v in zip(count(), left_of, right_of)
                 if reached_left[u] == reached_right[v] == reached]
        left = [left_id[left_of[e]] for e in edges]
        right = [right_id[right_of[e]] for e in edges]
        weight = [weight_of[e] for e in edges]
        n_left, n_right = left_id[-1], right_id[-1]
        piece = (WeightedBipartiteGraph._trusted(n_right, n_left, right, left, weight) if reached
                 else WeightedBipartiteGraph._trusted(n_left, n_right, left, right, weight))
        pieces.append((piece, edges))
    return pieces


def optimum_matching(graph: WeightedBipartiteGraph) -> Matching:
    """A maximum-cardinality matching of minimum weight.

    It builds no transformed graph, and every maximum-matching run inside
    it goes from the smaller side: it reads the graph through its wide
    copy, the graph itself or, when the left side is the larger, its
    transposed copy. A graph whose smaller side can be covered it solves
    with one run of the exact solver's loop on that copy; on a square
    graph that run is ``solve_exact``. Any other graph it splits, with
    one more maximum-cardinality matching run, into two pieces that can
    be covered, one from each side, and it joins one such run on each
    (see the module docstring and ``_pieces``).
    """
    return Matching(graph, [parent[e] for piece, parent in _pieces(graph)
                            for e in _cover_left(piece).matching.edge_indices])


def optimal_edges_general(graph: WeightedBipartiteGraph) -> EdgeSet:
    """All edges occurring in some optimum matching, joined over the pieces
    ``optimum_matching`` solves. A piece's optima are the matchings of
    tight edges that cover its left side and every right vertex priced
    below P, the price of its free right vertices (Ramshaw and Tarjan,
    2012), so its optimal edges are labelled with the vertices priced P as
    the hub (see ``allowed``)."""
    edges: list[int] = []
    for piece, parent in _pieces(graph):
        result = _cover_left(piece)
        right = result.prices.right_num
        top = max(right, default=0)
        hub = [v for v, price in enumerate(right) if price == top]
        tight = build_gcs(piece, result.prices).edge_indices
        edges += [parent[e] for e in _cycle_or_matched(piece, tight, result.matching, hub)]
    return EdgeSet(graph, edges)
