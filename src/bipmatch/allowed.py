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
from .graph import Matching, WeightedBipartiteGraph
from .matching import max_cardinality_matching
from .prices import DualPrices
from .tight import build_gcs


class EdgeSet:
    """A sorted, deduplicated set of parent edge indices."""

    __slots__ = ("_graph", "_indices", "_index_set")

    def __init__(self, graph: WeightedBipartiteGraph, indices: Iterable[int]):
        self._graph = graph
        self._indices = tuple(sorted(set(indices)))
        self._index_set = frozenset(self._indices)
        for e in self._indices:
            if not (0 <= e < graph.edge_count):
                raise ValueError(f"edge index {e} out of range")

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
                matching: Matching) -> list[int]:
    """Strongly connected components of the matching-oriented graph.

    Vertex ids: left u -> u, right v -> n_left + v. Matched edges are
    oriented right-to-left, unmatched left-to-right. Iterative Tarjan, so
    arbitrarily deep graphs cannot overflow the call stack.
    """
    n = graph.n_left
    total = n + graph.n_right
    succ: list[list[int]] = [[] for _ in range(total)]
    for e in edge_indices:
        u, v = graph.endpoints(e)
        if matching.left_edge(u) == e:
            succ[n + v].append(u)
        else:
            succ[u].append(n + v)

    index = [-1] * total
    lowlink = [0] * total
    on_stack = [False] * total
    comp = [-1] * total
    stack: list[int] = []
    counter = 0
    n_comps = 0

    for root in range(total):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = succ[node]
            for k in range(pos, len(children)):
                child = children[k]
                if index[child] == -1:
                    work.append((node, k + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child] and index[child] < lowlink[node]:
                    lowlink[node] = index[child]
            if advanced:
                continue
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = n_comps
                    if member == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return comp


def _allowed_subset(graph: WeightedBipartiteGraph, edge_indices: Sequence[int],
                    matching: Matching, comp: list[int]) -> list[int]:
    """Edges of the subset lying in some perfect matching, given one and
    the component labels ``_scc_labels`` computed for it."""
    n = graph.n_left
    keep = []
    for e in edge_indices:
        u, v = graph.endpoints(e)
        if matching.left_edge(u) == e or comp[u] == comp[n + v]:
            keep.append(e)
    return keep


def allowed_edges(graph: WeightedBipartiteGraph,
                  edge_indices: Iterable[int] | None = None) -> EdgeSet:
    """All edges that belong to at least one perfect matching.

    Raises Infeasible when the graph (or the given edge subset) admits no
    perfect matching.
    """
    subset = tuple(range(graph.edge_count)) if edge_indices is None \
        else tuple(sorted(set(edge_indices)))
    matching = max_cardinality_matching(graph, subset)
    if not (matching.cardinality == graph.n_left == graph.n_right):
        raise Infeasible(
            f"no perfect matching: maximum cardinality is {matching.cardinality} "
            f"on sides of size {graph.n_left} and {graph.n_right}")
    comp = _scc_labels(graph, subset, matching)
    return EdgeSet(graph, _allowed_subset(graph, subset, matching, comp))


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
