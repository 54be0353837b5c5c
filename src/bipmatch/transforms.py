"""Reductions from optimum matchings to minimum-weight perfect matchings.

An optimum matching is a maximum-cardinality matching of minimum weight.
On unbalanced or infeasible graphs it is found by transforming the
instance into a balanced one that always (or conditionally) has a perfect
matching, solving there, and keeping only the edges that came from the
original graph:

* full doubling: mirror the whole graph, join every vertex to its mirror
  copy with heavy link edges (weight 2*s*W). Works unconditionally.
* half doubling: the same without the right-side links (link weight is a
  free constant k). Needs a matching covering the smaller side.
* padding: add artificial right vertices joined to every left vertex at
  constant cost k. Also needs a matching covering the smaller side; it
  adds n*(n-s) edges, and nothing on a square graph.

The reductions read a graph with its larger side on the left (``_tall``),
so n >= s and "right side" means the smaller side; the parent of a
transformed instance is still the caller's graph.

Every derived graph lists the parent's m edges first, in parent order:
derived edge e < m is parent edge e, and the later ones (mirror copies,
links, padding) have no parent counterpart. Nothing else records origin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allowed import optimal_edges
from .errors import CoverageRequired
from .graph import EdgeSet, Matching, WeightedBipartiteGraph, _check_weight
from .matching import max_cardinality_matching
from .solvers import SolveResult, solve_exact

FULL_DOUBLING = "doubling"
HALF_DOUBLING = "half-doubling"
PADDING = "artificial"
AUTO = "auto"

STRATEGIES = (FULL_DOUBLING, HALF_DOUBLING, PADDING)


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
    """The graph with its larger side on the left: the graph itself, or a
    copy with the sides exchanged in which edge e is still edge e."""
    if graph.n_left >= graph.n_right:
        return graph
    return WeightedBipartiteGraph._trusted(graph.n_right, graph.n_left,
                                           graph._right_of, graph._left_of, graph._weight_of)


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


def _covers_smaller_side(graph: WeightedBipartiteGraph) -> bool:
    return max_cardinality_matching(graph).cardinality == min(graph.n_left, graph.n_right)


def choose_strategy(graph: WeightedBipartiteGraph) -> str:
    """Pick a transformation: full doubling when the smaller side cannot be
    covered, padding on a square graph, which it leaves as it is, and half
    doubling on every other graph."""
    if not _covers_smaller_side(graph):
        return FULL_DOUBLING
    return PADDING if graph.n_left == graph.n_right else HALF_DOUBLING


def _solve_transformed(graph: WeightedBipartiteGraph, strategy: str,
                       k: int) -> tuple[TransformedInstance, SolveResult]:
    """Check k, resolve AUTO, check that the strategy applies to the graph
    with at most one maximum-cardinality matching run, transform, and solve
    the balanced instance exactly."""
    _check_weight(k)
    if strategy == AUTO:
        # Picks a strategy that needs coverage only when coverage holds.
        strategy = choose_strategy(graph)
    elif strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of "
                         f"{STRATEGIES + (AUTO,)}")
    elif strategy != FULL_DOUBLING and not _covers_smaller_side(graph):
        side = "right" if graph.n_left >= graph.n_right else "left"
        raise CoverageRequired(
            f"strategy {strategy!r} needs a matching covering the {side} side; "
            f"use {FULL_DOUBLING!r} for this instance")
    if strategy == FULL_DOUBLING:
        transformed = first_doubling(graph)
    elif strategy == HALF_DOUBLING:
        transformed = second_doubling(graph, k)
    else:
        transformed = artificial_vertices(graph, k)
    return transformed, solve_exact(transformed.graph)


def optimum_matching(graph: WeightedBipartiteGraph, strategy: str = AUTO,
                     k: int = 0) -> Matching:
    """A maximum-cardinality matching of minimum weight.

    Pipeline: transform, solve the balanced instance exactly, keep the
    original edges. Half doubling and padding require a matching covering
    the smaller side (CoverageRequired otherwise); full doubling works on
    any graph.
    """
    transformed, result = _solve_transformed(graph, strategy, k)
    return restrict_back(transformed, result.matching)


def optimal_edges_general(graph: WeightedBipartiteGraph, strategy: str = AUTO,
                          k: int = 0) -> EdgeSet:
    """All edges occurring in some optimum matching: the optimal edges of
    the transformed instance, intersected with the original edges."""
    transformed, result = _solve_transformed(graph, strategy, k)
    lifted = optimal_edges(transformed.graph, result.prices, result.matching)
    return EdgeSet(graph, transformed.original_edge_indices(lifted.edge_indices))
