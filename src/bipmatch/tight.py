"""The tight subgraph: edges whose price sum meets the weight exactly.

Under optimal prices the perfect matchings of this subgraph are precisely
the minimum-weight perfect matchings of the parent instance, which is what
lets every weighted question downstream (all-optimal-edges, enumeration,
preferences) be answered on an unweighted subgraph.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InfeasibleDual
from .graph import WeightedBipartiteGraph
from .prices import DualPrices, edge_slacks


class TightSubgraph:
    """The subset of parent edges that are exactly tight under a price
    system. Edges are kept as parent indices so anything computed here can
    be reported in the parent's terms."""

    __slots__ = ("_parent", "_prices", "_edge_indices", "_edge_set")

    def __init__(self, parent: WeightedBipartiteGraph, prices: DualPrices,
                 edge_indices: tuple[int, ...]):
        self._parent = parent
        self._prices = prices
        self._edge_indices = edge_indices
        self._edge_set = frozenset(edge_indices)

    @property
    def parent(self) -> WeightedBipartiteGraph:
        return self._parent

    @property
    def prices(self) -> DualPrices:
        return self._prices

    @property
    def edge_indices(self) -> tuple[int, ...]:
        return self._edge_indices

    @property
    def edge_count(self) -> int:
        return len(self._edge_indices)

    def __contains__(self, e: int) -> bool:
        return e in self._edge_set

    def __iter__(self):
        return iter(self._edge_indices)

    def pairs(self) -> list[tuple[int, int]]:
        """Tight edges as internal (left, right) index pairs."""
        return [self._parent.endpoints(e) for e in self._edge_indices]

    def to_json(self) -> dict:
        g = self._parent
        den = self._prices.den
        kept = sorted(g.original_pair(e) for e in self._edge_set)
        dropped = []
        for e, num in enumerate(edge_slacks(g, self._prices)):
            if e in self._edge_set:
                continue
            slack = Fraction(num, den)
            i, j = g.original_pair(e)
            entry = slack.numerator if slack.denominator == 1 else str(slack)
            dropped.append([i, j, entry])
        dropped.sort(key=lambda item: (item[0], item[1]))
        return {"edges": [[i, j] for i, j in kept], "dropped": dropped}


def build_gcs(graph: WeightedBipartiteGraph, prices: DualPrices) -> TightSubgraph:
    """Collect the tight edges in a single pass over the edge slacks.

    Raises InfeasibleDual if any edge's price sum exceeds its weight:
    with an infeasible system, "tight" would not mean anything.
    """
    slacks = edge_slacks(graph, prices)
    bad = [e for e, slack in enumerate(slacks) if slack < 0]
    if bad:
        u, v = graph.endpoints(bad[0])
        raise InfeasibleDual(
            f"{len(bad)} edge(s) violate dual feasibility, first at (u{u}, v{v})")
    return TightSubgraph(graph, prices,
                         tuple([e for e, slack in enumerate(slacks) if slack == 0]))
