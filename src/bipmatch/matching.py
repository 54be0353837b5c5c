"""Maximum-cardinality bipartite matching (Hopcroft-Karp).

The solver works on a whole graph or on a subset of its edges; the latter
is how tight subgraphs and the enumeration's root reuse it without
copying the graph. On a subset it visits only the left vertices that have an edge
in the subset, so its loops cost the subset's size rather than the
graph's; a left vertex without one would never be matched anyway, so the
result is the same. Results are deterministic for a fixed edge order:
breadth-first layers scan left vertices in index order and adjacency
lists in input order.

The first phase runs as one greedy pass: each left vertex, in index order,
takes the first free right vertex in its adjacency order. This is exactly
what the layered search does while every vertex is free (all shortest
augmenting paths are single edges), so the result is the same matching.
Each later phase starts from the list of left vertices still free, in
index order, and resets only the layers its own search set, so a phase
costs what it visits rather than the number of left vertices. Edge
endpoints are read from the graph's flat per-edge columns, and a subset
is taken in increasing index order (``_edge_subset`` sorts it).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import Infeasible, NotSquare
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
    dist = [_INF] * n_left  # BFS layer of each left vertex in this phase

    # Phase one, as the greedy pass the module docstring describes.
    for u in lefts:
        for e in adjacency[u]:
            v = right_of[e]
            if mate_right[v] is None:
                mate_left[u] = e
                mate_right[v] = e
                break
    free = [u for u in lefts if mate_left[u] is None]

    while free:
        # Layer the graph from the free left vertices. ``cap`` is the
        # length (in left layers) of the shortest augmenting paths.
        queue = list(free)
        for u in queue:
            dist[u] = 0
        cap = _INF
        for u in queue:  # the loop also visits the vertices appended below
            du = dist[u]
            if cap != _INF and du >= cap:
                continue
            for e in adjacency[u]:
                match = mate_right[right_of[e]]
                if match is None:
                    if cap == _INF:
                        cap = du + 1
                else:
                    w = left_of[match]
                    if dist[w] == _INF:
                        dist[w] = du + 1
                        queue.append(w)
        if cap == _INF:
            break

        # From each free vertex, an iterative search along the layers for
        # an augmenting path of length ``cap``; a dead end leaves its
        # layer, so no later search of this phase enters it again.
        for root in free:
            stack = [(root, 0)]
            path: list[tuple[int, int]] = []  # (u, edge chosen at u)
            while stack:
                u, start = stack.pop()
                adj_u = adjacency[u]
                next_layer = dist[u] + 1
                for pos in range(start, len(adj_u)):
                    e = adj_u[pos]
                    match = mate_right[right_of[e]]
                    if match is None:
                        if next_layer != cap:
                            continue
                        path.append((u, e))
                        for pu, pe in path:
                            mate_left[pu] = pe
                            mate_right[right_of[pe]] = pe
                        stack.clear()
                        break
                    w = left_of[match]
                    if dist[w] == next_layer:
                        stack.append((u, pos + 1))
                        stack.append((w, 0))
                        path.append((u, e))
                        break
                else:
                    dist[u] = _INF
                    if path:
                        path.pop()
        for u in queue:
            dist[u] = _INF
        free = [u for u in free if mate_left[u] is None]

    return Matching._trusted(graph, mate_left)


def _require_square(graph: WeightedBipartiteGraph) -> None:
    """Raise NotSquare, naming both side sizes, when they differ."""
    if graph.n_left != graph.n_right:
        raise NotSquare(f"perfect matching needs equal sides, got "
                        f"{graph.n_left} and {graph.n_right}")


def _perfect_matching(graph: WeightedBipartiteGraph,
                      edge_indices: Iterable[int] | None = None) -> Matching:
    """A perfect matching of the graph, or of the subset ``edge_indices``,
    from one Hopcroft-Karp run: the solvers, the allowed-edge filter and the
    tight-subgraph entry all raise through it.

    Raises Infeasible when there is none, naming the first uncovered vertex
    of each side that has one: u<i> is left vertex i and v<j> right vertex
    j, by their 1-based input labels. On unequal sides the smaller side may
    be covered, and only the other is named.
    """
    mcm = max_cardinality_matching(graph, edge_indices)
    if mcm.is_perfect:
        return mcm
    covered = set(map(graph._right_of.__getitem__, mcm))
    free = [f"u{u + 1}" for u in range(graph.n_left) if mcm.left_edge(u) is None][:1]
    free += [f"v{v + 1}" for v in range(graph.n_right) if v not in covered][:1]
    named = (f"vertices {free[0]} and {free[1]} stay" if len(free) == 2
             else f"vertex {free[0]} stays")
    raise Infeasible(f"no perfect matching: maximum cardinality is {mcm.cardinality} of "
                     f"{max(graph.n_left, graph.n_right)}; {named} uncovered")
