"""Maximum-cardinality bipartite matching (Hopcroft-Karp).

The solver works on a whole graph or on a subset of its edges; the latter
is how tight subgraphs and enumeration branches reuse it without copying
the graph. On a subset it visits only the left vertices that have an edge
in the subset, so its loops cost the subset's size rather than the
graph's; a left vertex without one would never be matched anyway, so the
result is the same. Results are deterministic for a fixed edge order:
breadth-first layers scan left vertices in index order and adjacency
lists in input order.

The first phase runs as one greedy pass: each left vertex, in index order,
takes the first free right vertex in its adjacency order. This is exactly
what the layered search does while every vertex is free (all shortest
augmenting paths are single edges), so the result is the same matching.
Edge endpoints are read from the graph's flat per-edge columns.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graph import Matching, WeightedBipartiteGraph

_INF = -1  # sentinel distance; real layer depths are >= 0


def max_cardinality_matching(graph: WeightedBipartiteGraph,
                             edge_indices: Iterable[int] | None = None) -> Matching:
    """Find a maximum-cardinality matching, optionally restricted to a
    subset of edge indices. The returned matching always refers to edges of
    the parent graph.

    Raises ValueError for an index in ``edge_indices`` outside the graph.
    """
    n_left = graph.n_left
    left_of, right_of = graph._left_of, graph._right_of
    if edge_indices is None:
        adjacency = graph._adj_left
        lefts: Sequence[int] = range(n_left)
    else:
        adjacency = {}  # left vertex -> its edges in the subset, in edge order
        for e in graph._edge_subset(edge_indices):
            u = left_of[e]
            if u in adjacency:
                adjacency[u].append(e)
            else:
                adjacency[u] = [e]
        lefts = sorted(adjacency)

    mate_left: list[int | None] = [None] * n_left      # matched edge at u
    mate_right: list[int | None] = [None] * graph.n_right
    dist = [_INF] * n_left

    # Phase one, as the greedy pass the module docstring describes.
    for u in lefts:
        for e in adjacency[u]:
            v = right_of[e]
            if mate_right[v] is None:
                mate_left[u] = e
                mate_right[v] = e
                break

    def bfs() -> int:
        # Layer the graph from free left vertices; returns the length (in
        # left-layers) at which the nearest free right vertex sits, or _INF.
        queue: deque[int] = deque()
        for u in lefts:
            if mate_left[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = _INF
        while queue:
            u = queue.popleft()
            if found != _INF and dist[u] >= found:
                continue
            for e in adjacency[u]:
                match = mate_right[right_of[e]]
                if match is None:
                    if found == _INF:
                        found = dist[u] + 1
                else:
                    w = left_of[match]
                    if dist[w] == _INF:
                        dist[w] = dist[u] + 1
                        queue.append(w)
        return found

    def dfs(root: int, cap: int) -> bool:
        # Iterative alternating-path search along BFS layers; only accepts
        # augmenting paths of the phase's shortest length ``cap``.
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[tuple[int, int]] = []  # (u, edge chosen at u)
        while stack:
            u, start = stack.pop()
            advanced = False
            adj_u = adjacency[u]
            for pos in range(start, len(adj_u)):
                e = adj_u[pos]
                match = mate_right[right_of[e]]
                if match is None:
                    if dist[u] + 1 != cap:
                        continue
                    path.append((u, e))
                    for pu, pe in path:
                        mate_left[pu] = pe
                        mate_right[right_of[pe]] = pe
                    return True
                w = left_of[match]
                if dist[w] == dist[u] + 1:
                    stack.append((u, pos + 1))
                    stack.append((w, 0))
                    path.append((u, e))
                    advanced = True
                    break
            if not advanced:
                dist[u] = _INF
                if path:
                    path.pop()
        return False

    while True:
        cap = bfs()
        if cap == _INF:
            break
        for u in lefts:
            if mate_left[u] is None:
                dfs(u, cap)

    return Matching._trusted(graph, mate_left)
