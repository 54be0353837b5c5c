"""The tight subgraph: edges whose price sum meets the weight exactly.

Under optimal prices the perfect matchings of this subgraph are precisely
the minimum-weight perfect matchings of the parent instance, which is what
lets every weighted question downstream (all-optimal-edges, enumeration,
preferences) be answered on an unweighted subgraph. The subgraph is an
``EdgeSet`` of the parent graph, so anything computed on it is reported
in the parent's terms. ``_tight_perfect_matching`` builds it together
with one perfect matching of it, which is all that the optimal edges and
the enumeration need.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Infeasible, InfeasibleDual
from .graph import EdgeSet, Matching, WeightedBipartiteGraph
from .matching import _perfect_matching, _require_square
from .prices import DualPrices, dual_violations, edge_slacks


def build_gcs(graph: WeightedBipartiteGraph, prices: DualPrices) -> EdgeSet:
    """Collect the tight edges in a single pass over the edge slacks.

    Raises InfeasibleDual if any edge's price sum exceeds its weight:
    with an infeasible system, "tight" would not mean anything. The
    message is ``dual_violations``' verdict, which names the first such
    edge by its input labels and slack.
    """
    return EdgeSet(graph, _tight_edges(graph, prices, edge_slacks(graph, prices)))


def _tight_edges(graph: WeightedBipartiteGraph, prices: DualPrices,
                 slacks: list[int]) -> list[int]:
    """The edges of zero slack; InfeasibleDual if any slack is negative."""
    bad, verdict = dual_violations(graph, slacks, prices.den)
    if bad:
        raise InfeasibleDual(verdict)
    return [e for e, slack in enumerate(slacks) if slack == 0]


def _tight_perfect_matching(graph: WeightedBipartiteGraph, prices: DualPrices,
                            matching: Matching | None = None) -> tuple[EdgeSet, Matching]:
    """The tight subgraph under ``prices`` and a perfect matching inside
    it: the one entry of the questions asked of that subgraph.

    ``matching``, when given, is that matching, as a solver returns it with
    its prices; ValueError unless it is a perfect matching of ``graph``
    whose edges are all tight. Without one, Hopcroft-Karp runs once on the
    tight subgraph. Raises NotSquare for unequal sides, InfeasibleDual for
    infeasible prices, and Infeasible when the tight subgraph has no perfect
    matching: the prices are then feasible but not optimal, as no prices
    are for an infeasible instance.
    """
    _require_square(graph)
    tight = build_gcs(graph, prices)
    if matching is None:
        try:
            return tight, _perfect_matching(graph, tight.edge_indices)
        except Infeasible as exc:
            raise Infeasible("tight subgraph has no perfect matching; the supplied "
                             "prices are not optimal for this instance") from exc
    if matching.graph is not graph or not matching.is_perfect:
        raise ValueError("a certificate matching must be a perfect matching of the graph")
    tight_edges = set(tight.edge_indices)
    loose = next((e for e in matching if e not in tight_edges), None)
    if loose is not None:
        raise ValueError(f"matched edge {graph.original_pair(loose)} is not tight")
    return tight, matching


def gcs_to_json(graph: WeightedBipartiteGraph, prices: DualPrices) -> dict:
    """The ``gcs`` verb's payload, from one scan of the edge slacks: the
    sorted 1-based input pairs of the tight edges under "edges", and every
    other edge as [i, j, slack] under "dropped", the slack an integer or a
    reduced-fraction string. Raises InfeasibleDual as ``build_gcs`` does."""
    slacks = edge_slacks(graph, prices)
    tight = _tight_edges(graph, prices, slacks)
    dropped = []
    for e, num in enumerate(slacks):
        if num:
            slack = Fraction(num, prices.den)
            i, j = graph.original_pair(e)
            dropped.append([i, j, slack.numerator if slack.denominator == 1 else str(slack)])
    dropped.sort(key=lambda item: (item[0], item[1]))
    return {"edges": graph.original_pairs(tight), "dropped": dropped}
