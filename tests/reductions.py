"""The paper's reductions of an optimum matching to a perfect matching: the
tests' oracle for ``optimum_matching`` and ``optimal_edges_general``,
which answer every shape with no transformed graph.

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

The reductions read a graph with its larger side on the left (``_tall``),
so n >= s and "right side" means the smaller side; the parent of a
transformed instance is still the caller's graph.

Every derived graph lists the parent's m edges first, in parent order:
derived edge e < m is parent edge e, and the later ones (mirror copies,
links, padding) have no parent counterpart. Nothing else records origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from bipmatch import Matching, WeightedBipartiteGraph
from bipmatch.graph import _check_weight
from bipmatch.transforms import _transposed


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
