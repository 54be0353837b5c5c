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
from .graph import EdgeSet, WeightedBipartiteGraph
from .prices import DualPrices, edge_slacks, edge_with_slack


def build_gcs(graph: WeightedBipartiteGraph, prices: DualPrices) -> EdgeSet:
    """Collect the tight edges in a single pass over the edge slacks.

    Raises InfeasibleDual if any edge's price sum exceeds its weight:
    with an infeasible system, "tight" would not mean anything. The
    message names the first such edge by its input labels and slack.
    """
    slacks = edge_slacks(graph, prices)
    bad = [e for e, slack in enumerate(slacks) if slack < 0]
    if bad:
        first = edge_with_slack(graph, bad[0], slacks[bad[0]], prices.den)
        raise InfeasibleDual(f"{len(bad)} edge(s) violate dual feasibility, first {first}")
    return EdgeSet(graph, [e for e, slack in enumerate(slacks) if slack == 0])


def gcs_to_json(tight: EdgeSet, prices: DualPrices) -> dict:
    """The ``gcs`` verb's payload: the sorted 1-based input pairs of the
    tight edges under "edges", and every other edge as [i, j, slack] under
    "dropped", the slack an integer or a reduced-fraction string."""
    graph = tight.graph
    dropped = []
    for e, num in enumerate(edge_slacks(graph, prices)):
        if e in tight:
            continue
        slack = Fraction(num, prices.den)
        i, j = graph.original_pair(e)
        dropped.append([i, j, slack.numerator if slack.denominator == 1 else str(slack)])
    dropped.sort(key=lambda item: (item[0], item[1]))
    return {"edges": graph.original_pairs(tight.edge_indices), "dropped": dropped}
