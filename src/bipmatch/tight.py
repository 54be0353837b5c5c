"""The tight subgraph: edges whose price sum meets the weight exactly.

Under optimal prices the perfect matchings of this subgraph are precisely
the minimum-weight perfect matchings of the parent instance, which is what
lets every weighted question downstream (all-optimal-edges, enumeration,
preferences) be answered on an unweighted subgraph. The subgraph is an
``EdgeSet`` of the parent graph, so anything computed on it is reported
in the parent's terms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleDual
from .graph import EdgeSet, Matching, WeightedBipartiteGraph
from .prices import DualPrices, edge_slacks, edge_with_slack


def build_gcs(graph: WeightedBipartiteGraph, prices: DualPrices) -> EdgeSet:
    """Collect the tight edges in a single pass over the edge slacks.

    Raises InfeasibleDual if any edge's price sum exceeds its weight:
    with an infeasible system, "tight" would not mean anything. The
    message names the first such edge by its input labels and slack.
    """
    return EdgeSet(graph, _tight_edges(graph, prices, edge_slacks(graph, prices)))


def _check_tight_matching(graph: WeightedBipartiteGraph, tight: EdgeSet,
                          matching: Matching) -> None:
    """Raise ValueError unless ``matching`` is a perfect matching of
    ``graph`` inside the tight subgraph ``tight``, as the matching a solver
    returns with its prices is."""
    if matching.graph is not graph or not matching.is_perfect:
        raise ValueError("a certificate matching must be a perfect matching of the graph")
    loose = next((e for e in matching if e not in tight), None)
    if loose is not None:
        raise ValueError(f"matched edge {graph.original_pair(loose)} is not tight")


def _tight_edges(graph: WeightedBipartiteGraph, prices: DualPrices,
                 slacks: list[int]) -> list[int]:
    """The edges of zero slack; InfeasibleDual if any slack is negative."""
    bad = [e for e, slack in enumerate(slacks) if slack < 0]
    if bad:
        first = edge_with_slack(graph, bad[0], slacks[bad[0]], prices.den)
        raise InfeasibleDual(f"{len(bad)} edge(s) violate dual feasibility, first {first}")
    return [e for e, slack in enumerate(slacks) if slack == 0]


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
