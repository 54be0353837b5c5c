"""Edges that occur in some perfect matching.

The filter orients the graph by one perfect matching (matched edges point
right-to-left, the rest left-to-right): an edge then lies in some perfect
matching exactly when it is matched or when its endpoints share a strongly
connected component, i.e. it sits on an alternating cycle. Composed with
the tight subgraph this yields the union of all minimum-weight perfect
matchings.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import Infeasible
from .graph import WeightedBipartiteGraph
from .matching import max_cardinality_matching
from .prices import DualPrices
from .tight import build_gcs


class EdgeSet:
    """A sorted, deduplicated set of parent edge indices."""

    __slots__ = ("_graph", "_indices", "_index_set")

    def __init__(self, graph: WeightedBipartiteGraph, indices: Iterable[int]):
        self._graph = graph
        self._indices = graph._edge_subset(indices)
        self._index_set = frozenset(self._indices)

    @property
    def graph(self) -> WeightedBipartiteGraph:
        return self._graph

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    def pairs(self) -> list[tuple[int, int]]:
        return [self._graph.endpoints(e) for e in self._indices]

    def __contains__(self, e: int) -> bool:
        return e in self._index_set

    def __iter__(self):
        return iter(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self._graph is other._graph and self._indices == other._indices

    def __repr__(self) -> str:
        return f"EdgeSet({self._indices})"

    def to_json(self) -> dict:
        pairs = sorted(self._graph.original_pair(e) for e in self._indices)
        return {"edges": [[i, j] for i, j in pairs]}


def _scc_labels(graph: WeightedBipartiteGraph, edge_indices: Sequence[int],
                mate_left: Sequence[int | None]) -> list[int]:
    """Strongly connected components of the matching-oriented graph.

    ``mate_left`` is a matching of the subset, given as the matched edge at
    each left vertex (None where unmatched). Vertex ids: left u -> u, right
    v -> n_left + v. Matched edges are oriented right-to-left, unmatched
    left-to-right. Two vertices get the same label exactly when they share
    a component.

    A matched right vertex has one way out, to its mate, so the search runs
    on the left vertices alone: the unmatched edge (u, v) becomes the arc
    from u to the mate of v. A matched right vertex shares its mate's
    component when that component holds more than one left vertex (its
    matched edge then lies on a cycle); every other right vertex is a
    component of its own. Iterative Tarjan, so arbitrarily deep graphs
    cannot overflow the call stack.

    Only left vertices with an edge in the subset are visited, in index
    order; every other left vertex keeps the label -1, so the labels
    describe the subset's vertices only (which is all the callers read).

    The graph must have no parallel edges: an unmatched copy of the matched
    edge (u, v) would become the self-loop u -> u, which this reduction
    does not count as a cycle, so that copy would be dropped.
    """
    n = graph.n_left
    left_of, right_of = graph._left_of, graph._right_of
    # Arcs out of each left vertex with an edge in the subset, in index order.
    lefts = sorted(set(map(left_of.__getitem__, edge_indices)))
    succ: dict[int, list[int]] = {u: [] for u in lefts}
    partner = [-1] * graph.n_right  # left mate of each right vertex
    for u in succ:
        e = mate_left[u]
        if e is not None:
            partner[right_of[e]] = u
    for e in edge_indices:
        u = left_of[e]
        if mate_left[u] != e:
            w = partner[right_of[e]]
            if w >= 0:
                succ[u].append(w)

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    on_cycle: list[bool] = []  # per component: more than one left vertex
    stack: list[int] = []
    counter = 0

    for root in succ:
        if index[root] != -1:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if index[child] == -1:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(succ[child])))
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index[node]:
                    label = len(on_cycle)
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = label
                    on_cycle.append(member != node)
                    while member != node:
                        member = stack.pop()
                        on_stack[member] = False
                        comp[member] = label

    n_comps = len(on_cycle)
    comp.extend(range(n_comps, n_comps + graph.n_right))
    for u in succ:
        e = mate_left[u]
        if e is not None and on_cycle[comp[u]]:
            comp[n + right_of[e]] = comp[u]
    return comp


def allowed_edges(graph: WeightedBipartiteGraph,
                  edge_indices: Iterable[int] | None = None) -> EdgeSet:
    """All edges that belong to at least one perfect matching.

    Raises Infeasible when the graph (or the given edge subset) admits no
    perfect matching, and ValueError for an index in ``edge_indices``
    outside the graph.
    """
    subset = graph._edge_subset(edge_indices)
    matching = max_cardinality_matching(graph, subset)
    if not (matching.cardinality == graph.n_left == graph.n_right):
        raise Infeasible(
            f"no perfect matching: maximum cardinality is {matching.cardinality} "
            f"on sides of size {graph.n_left} and {graph.n_right}")
    mate_left = matching._mate_left
    comp = _scc_labels(graph, subset, mate_left)
    n = graph.n_left
    left_of, right_of = graph._left_of, graph._right_of
    return EdgeSet(graph, [e for e in subset if mate_left[left_of[e]] == e
                           or comp[left_of[e]] == comp[n + right_of[e]]])


def optimal_edges(graph: WeightedBipartiteGraph, prices: DualPrices) -> EdgeSet:
    """All edges in some minimum-weight perfect matching, computed as the
    allowed edges of the tight subgraph under optimal prices.

    Raises InfeasibleDual for infeasible prices, and Infeasible when the
    tight subgraph has no perfect matching (the prices are then feasible
    but not optimal).
    """
    tight = build_gcs(graph, prices)
    try:
        return allowed_edges(graph, tight.edge_indices)
    except Infeasible:
        raise Infeasible(
            "tight subgraph has no perfect matching; the supplied prices are "
            "not optimal for this instance")
