"""Edges that occur in some perfect matching.

The filter orients the graph by one perfect matching (matched edges point
right-to-left, the rest left-to-right): an edge then lies in some perfect
matching exactly when it is matched or when it sits on an alternating
cycle, i.e. its endpoints share a strongly connected component.
``_scc_labels`` is the one place that decides which edges do; the
enumeration reads the same labels. Composed with the tight subgraph this
yields the union of all minimum-weight perfect matchings. Both results
are ``EdgeSet``s of the parent graph. Given the perfect matching a solver
returns with its prices, ``optimal_edges`` skips the matching search and
costs one pass over the tight subgraph, linear in its edge count.

With a hub, the same labels serve a wide graph's certificate whose free
right vertices share the largest right price P (Ramshaw and Tarjan,
2012): one node H stands for them all, so an alternating path from a
matched right vertex priced P to a free one is a cycle through H.
``transforms.optimal_edges_general`` labels its pieces so.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .graph import EdgeSet, Matching, WeightedBipartiteGraph
from .matching import _perfect_matching
from .prices import DualPrices
from .tight import _tight_perfect_matching


def _scc_labels(graph: WeightedBipartiteGraph, edge_indices: Sequence[int],
                mate_left: Sequence[int | None] | Mapping[int, int],
                hub: Sequence[int] = ()) -> list[int]:
    """Alternating-cycle labels of the edges of a subset: one label per
    edge, in the order of ``edge_indices``.

    ``mate_left`` is a matching of the subset, given as the matched edge at
    each left vertex (None where unmatched); only the left vertices of the
    subset are read, so a dict of those will do. Matched edges are oriented
    right-to-left, unmatched left-to-right. An edge on an alternating cycle
    gets the label (>= 0) of the strongly connected component holding that
    cycle, so two edges share a label exactly when they share a component;
    an edge on no alternating cycle gets -1.

    A matched right vertex has one way out, to its mate, so the search runs
    on the left vertices alone: the unmatched edge (u, v) becomes the arc
    from u to the mate of v. The matched edge at u lies on a cycle when
    u's component holds more than one node, and the unmatched edge
    (u, v) when u and the mate of v share a component. Iterative Tarjan,
    so arbitrarily deep graphs cannot overflow the call stack. Only left
    vertices with an edge in the subset are visited, in index order.

    ``hub`` lists the right vertices priced P, the largest right price,
    which every free right vertex has. One more node H then stands for the
    free ones: the unmatched edge (u, v) to a free v is the arc u -> H, and
    H has an arc to the mate of each matched hub vertex. With no hub, an
    edge to a free right vertex gets -1.

    The graph must have no parallel edges: an unmatched copy of the matched
    edge (u, v) would become the self-loop u -> u, which this reduction
    does not count as a cycle, so that copy would be dropped.
    """
    left_of, right_of = graph._left_of, graph._right_of
    # The subset's left vertices in index order, numbered from 0. The
    # search state is kept by that number, so a call costs the size of its
    # subset, not of the graph.
    lefts = sorted(set(map(left_of.__getitem__, edge_indices)))
    number = {u: i for i, u in enumerate(lefts)}
    partner: dict[int, int] = {}  # number of the left mate of each right vertex
    for i, u in enumerate(lefts):
        e = mate_left[u]
        if e is not None:
            partner[right_of[e]] = i
    # Arcs out of each numbered left vertex, in edge order, and per edge the
    # numbers of its left vertex and of the mate of its right vertex (for a
    # free one, H after the left vertices, or -1). With no parallel edges,
    # the two are equal exactly on a matched edge, which adds no arc.
    free = len(lefts) if hub else -1
    succ: list[list[int]] = [[] for _ in lefts]
    ends = []
    for e in edge_indices:
        i = number[left_of[e]]
        w = partner.get(right_of[e], free)
        if w >= 0 and w != i:
            succ[i].append(w)
        ends.append((i, w))
    if hub:
        succ.append([partner[v] for v in hub if v in partner])
    n = len(succ)  # nodes: the left vertices, then H if there is a hub

    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    comp = [-1] * n  # component of each node; -1 for a lone node
    cycles = 0  # components of more than one node so far
    stack: list[int] = []
    counter = 0

    for root in range(n):
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
                    member = stack.pop()
                    on_stack[member] = False
                    if member != node:
                        comp[member] = cycles
                        while member != node:
                            member = stack.pop()
                            on_stack[member] = False
                            comp[member] = cycles
                        cycles += 1

    return [comp[i] if w >= 0 and comp[w] == comp[i] else -1 for i, w in ends]


def _cycle_or_matched(graph: WeightedBipartiteGraph, subset: tuple[int, ...],
                      matching: Matching, hub: Sequence[int] = ()) -> EdgeSet:
    """The edges of ``subset`` that lie in some perfect matching of it,
    given one perfect matching of it: the matched edges and those on an
    alternating cycle, or with a ``hub`` on a cycle through H."""
    mate_left, left_of = matching._mate_left, graph._left_of
    labels = _scc_labels(graph, subset, mate_left, hub)
    return EdgeSet(graph, [e for e, label in zip(subset, labels)
                           if label >= 0 or mate_left[left_of[e]] == e])


def allowed_edges(graph: WeightedBipartiteGraph,
                  edge_indices: Iterable[int] | None = None) -> EdgeSet:
    """All edges that belong to at least one perfect matching.

    Raises Infeasible when the graph (or the given edge subset) admits no
    perfect matching, and ValueError for an index in ``edge_indices``
    outside the graph.
    """
    subset = graph._edge_subset(edge_indices)
    return _cycle_or_matched(graph, subset, _perfect_matching(graph, subset))


def optimal_edges(graph: WeightedBipartiteGraph, prices: DualPrices,
                  matching: Matching | None = None) -> EdgeSet:
    """All edges in some minimum-weight perfect matching, computed as the
    allowed edges of the tight subgraph under optimal prices.

    ``matching``, when given, is a perfect matching whose edges are all
    tight under ``prices``, such as the one a solver returns with them.
    The answer is then one strongly-connected-components pass over the
    tight subgraph, with no Hopcroft-Karp run; it does not depend on which
    such matching is given. Raises ValueError for a matching of another
    graph, one that is not perfect, or one with an edge that is not tight.

    Raises NotSquare for unequal sides, InfeasibleDual for infeasible
    prices, and Infeasible when the tight subgraph has no perfect matching
    (the prices are then feasible but not optimal).
    """
    tight, matching = _tight_perfect_matching(graph, prices, matching)
    return _cycle_or_matched(graph, tight.edge_indices, matching)
