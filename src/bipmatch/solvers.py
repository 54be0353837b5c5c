"""Minimum-weight perfect matching solvers with dual certificates.

Two independent routes to an optimal primal-dual pair:

* ``solve_exact`` -- successive shortest augmenting paths with integer
  vertex potentials (Dijkstra on reduced costs). Emits integral optimal
  prices directly. Its loop also runs on a wide graph (n_left <=
  n_right), where it finds a minimum-weight matching that covers the
  left side: ``transforms.optimum_matching`` solves a coverable
  unbalanced graph that way, without a transformed graph.
* ``solve_auction`` -- an epsilon-scaling auction run on integer-rescaled
  weights, with epsilon divided by 4 per phase: about
  log4(W*(n+1)) + 1 phases at the default epsilon, for W the largest
  |weight|. Emits a perfect matching with fractional prices that violate
  dual feasibility by at most a chosen epsilon and are exactly tight on
  the matching.
* ``solve_via_rounding`` -- the auction at epsilon = 1/(n+1) followed by
  the price-rounding step, which restores an exact optimality certificate
  without touching the matching.

``solve_exact`` starts warm (Jonker and Volgenant, 1987). The row
minimums become the left potentials, and each right potential rises to the
least reduced cost into its vertex, so every reduced cost is non-negative
and every right vertex has a tight edge. One Hopcroft-Karp run matches the
tight edges, and the search loop runs only from the left vertices that run
leaves free. Every matched edge is then tight and every reduced cost
non-negative, which is all the search loop relies on. A wide graph skips
the column pass and starts every right potential at 0. A matching that
covers the left side is optimal when, beyond those two conditions, every
free right vertex has the largest right price (Ramshaw and Tarjan, 2012).
The column pass would give the free right vertices unequal prices, and
the loop never moves the price of a free vertex apart from the others.

``solve_exact`` begins with one O(m) pass that looks for a vertex without
edges and, on finding one, lets Hopcroft-Karp word the Infeasible message
before any search. Past that pass, it is its own feasibility check: when a
perfect matching exists, an augmenting path starts at every free left
vertex, so a search that empties its heap proves there is none. On an
infeasible instance the auction's prices would rise forever, so
``solve_auction`` runs Hopcroft-Karp once, before its first bid.

Cost of the exact solver: each search costs time proportional to what it
touched -- the vertices it reached, the edges it scanned and its heap
operations -- because the potential update and the reset of the search
state visit the reached vertices only. The heap holds right vertices
alone, each entry one int, distance * n_right + vertex; each left vertex
a search reaches is scanned once, when its mate settles. A search skips
each relaxation beyond its bound, the least distance of a free right
vertex it has reached (Jonker and Volgenant, 1987): it ends at a free
vertex no farther than the bound, so a skipped entry could neither pop
nor move a potential, and every output and count is as without it. One
O(n) pass at the end turns the stored potentials into prices. Both
solvers read the graph's own edge columns.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import count

from .graph import Matching, WeightedBipartiteGraph
from .matching import _perfect_matching, _require_square, max_cardinality_matching
from .prices import DualPrices, RationalLike, _as_fraction, prices_to_json, round_to_optimal


@dataclass
class SolveStats:
    """Coarse work counters: scaling phases and primitive iterations
    (augmenting path searches for the exact solver, bids for the auction).
    The exact solver searches once per left vertex its start's
    Hopcroft-Karp run leaves free."""

    phases: int = 0
    iterations: int = 0


@dataclass
class SolveResult:
    matching: Matching
    prices: DualPrices
    stats: SolveStats

    def to_json(self) -> dict:
        return {
            "matching": self.matching.to_json(),
            "prices": prices_to_json(self.matching.graph, self.prices),
        }


def solve_exact(graph: WeightedBipartiteGraph) -> SolveResult:
    """Minimum-weight perfect matching with integral optimal prices.

    Successive shortest paths: potentials keep every reduced cost
    non-negative, each Dijkstra pass augments the matching by one edge and
    shifts the potentials so the new matched edges are exactly tight. The
    returned pair always satisfies the complementary-slackness checker.

    The start (after Jonker and Volgenant, 1987) takes the row minimums as
    left potentials, raises each right potential to the least reduced cost
    into it and takes a maximum matching of the edges then tight, from one
    Hopcroft-Karp run. The searches run only from the left vertices that
    run leaves free, in index order.

    Raises NotSquare for unequal sides and Infeasible when no perfect
    matching exists.
    """
    _require_square(graph)
    return _cover_left(graph)


def _cover_left(graph: WeightedBipartiteGraph) -> SolveResult:
    """``solve_exact`` without its side check, on any graph with n_left <=
    n_right: a minimum-weight matching that covers the left side, with
    integral optimal prices. A wide graph skips the column pass (see the
    module docstring). Raises Infeasible when no matching covers the left
    side."""
    n, n_right = graph.n_left, graph.n_right
    square = n == n_right
    adj_left = graph._adj_left
    left_of, right_of, wt = graph._left_of, graph._right_of, graph._weight_of
    # A left vertex without edges has no row minimum, and on a square graph
    # a right vertex without edges has no column minimum: one O(m) pass
    # finds either and lets Hopcroft-Karp word the refusal before the start.
    if n and (min(map(len, adj_left)) == 0 or square and len(set(right_of)) < n):
        _perfect_matching(graph)
    stats = SolveStats(phases=0, iterations=0)

    # Potentials are kept as base values plus one shared offset:
    #     left potential of u  = left_base[u] - offset
    #     right potential of v = right_base[v] + offset
    # The offset cancels in every reduced cost w - left - right, so the
    # search reads the bases alone, and a pass that shifts every vertex by
    # the target distance only has to adjust the bases of the vertices its
    # search reached at a smaller distance. No free right vertex is nearer
    # than the target, so none is adjusted: on a wide graph all of them
    # keep right base 0, the largest.
    # Row pass: left potentials at the row minimums absorb negative
    # weights. Column pass, on a square graph only: every right potential
    # rises to the least reduced cost into its vertex (finite: no vertex is
    # isolated), so each right vertex gains a tight edge. On a wide graph
    # it would leave the free right vertices at unequal prices. Every
    # reduced cost stays non-negative, and a maximum matching of the tight
    # edges is tight, as the loop below requires of its matching.
    left_base = [min(map(wt.__getitem__, adj)) for adj in adj_left]
    reduced = [w - left_base[u] for w, u in zip(wt, left_of)]
    right_base = [0] * n_right
    if square:
        right_base = [math.inf] * n
        for r, v in zip(reduced, right_of):
            if r < right_base[v]:
                right_base[v] = r
    offset = 0
    tight = [e for e, r, v in zip(count(), reduced, right_of) if r == right_base[v]]
    mate_left = list(max_cardinality_matching(graph, tight)._mate_left)
    mate_right: list[int | None] = [None] * n_right
    for e in mate_left:
        if e is not None:
            mate_right[right_of[e]] = e

    # Search state, allocated once. Each pass resets exactly the entries it
    # touched; reach_edge needs no reset, since an augmenting path only
    # follows right vertices its own search reached.
    dist_right: list[int | None] = [None] * n_right
    reach_edge: list[int] = [-1] * n_right  # edge that reached each right vertex

    for source in [u for u in range(n) if mate_left[u] is None]:
        reached_left = [(source, 0)]  # (left vertex, distance) per scan
        touched_right: list[int] = []
        # Entries are d * n_right + v: both are non-negative ints, so the
        # heap pops in (distance, vertex) order.
        heap: list[int] = []
        bound = math.inf  # least distance of a free right vertex reached
        u, d = source, 0
        while True:
            # Scan u at distance d. Reduced costs are non-negative, so no
            # edge lowers the distance of a settled right vertex; the
            # matched edge, tight and back to the vertex that reached u,
            # fails the same test. An entry beyond the bound would pop after
            # the search ends and move no potential: skip it, keep ties.
            base = d - left_base[u]
            for e in adj_left[u]:
                v = right_of[e]
                nd = base + wt[e] - right_base[v]
                if nd > bound:
                    continue
                dv = dist_right[v]
                if dv is None:
                    touched_right.append(v)
                elif nd >= dv:
                    continue
                dist_right[v] = nd
                reach_edge[v] = e
                heappush(heap, nd * n_right + v)
                if mate_right[v] is None:
                    bound = nd
            while heap:  # settle the nearest right vertex; skip stale entries
                d, v = divmod(heappop(heap), n_right)
                if d == dist_right[v]:
                    break
            else:
                # No augmenting path from this source: nothing covers the
                # left side.
                _perfect_matching(graph)
                raise AssertionError("augmenting path search exhausted a feasible graph")
            m = mate_right[v]
            if m is None:
                break
            # The matched edge is tight, so v's mate is at distance d, and it
            # is scanned at once: a heap that also held left vertices, ahead
            # of right ones at equal distance, would pop it next, since every
            # other entry is at least (d, right vertex).
            u = left_of[m]
            reached_left.append((u, d))
        target, target_dist = v, d

        # Shift potentials so all residual costs stay non-negative and the
        # augmenting path becomes tight end to end: every left potential
        # drops by min(dist, target_dist) and every right one rises by it.
        # The offset applies target_dist to all; reached vertices closer
        # than the target take back the difference. Then reset the search
        # state this pass touched.
        offset += target_dist
        for u, du in reached_left:
            if du < target_dist:
                left_base[u] += target_dist - du
        for v in touched_right:
            dv = dist_right[v]
            if dv < target_dist:
                right_base[v] -= target_dist - dv
            dist_right[v] = None

        # Flip matched/unmatched along the augmenting path.
        v = target
        while v != -1:
            e = reach_edge[v]
            u = left_of[e]
            old = mate_left[u]
            mate_left[u] = e
            mate_right[v] = e
            v = right_of[old] if old is not None else -1
        stats.iterations += 1

    matched_edges = [e for e in mate_left if e is not None]
    prices = DualPrices([b - offset for b in left_base],
                        [b + offset for b in right_base], 1)
    return SolveResult(Matching(graph, matched_edges), prices, stats)


def solve_auction(graph: WeightedBipartiteGraph,
                  eps_final: RationalLike | None = None) -> SolveResult:
    """Epsilon-scaling auction for the assignment problem.

    Runs bidding phases with epsilon divided by 4 per phase, from the
    largest absolute weight W down to ``eps_final`` (default 1/(n+1), which
    forces an optimal matching on integer weights): about
    log4(W*(n+1)) + 1 phases at the default epsilon. All arithmetic is on
    integer-rescaled weights; the returned prices are exact rationals,
    tight on every matched edge and infeasible by at most eps_final
    elsewhere, so the pair passes the epsilon-optimality checker at
    eps_final. With the default epsilon the price denominator is exactly
    n+1, ready for the rounding step.

    Larger eps_final values are accepted (the matching may then be
    suboptimal by up to n*eps_final); floats are rejected.

    Hopcroft-Karp runs once, before the first bid: on an instance without
    a perfect matching every bid raises a price and the bidding would
    never end.
    Raises NotSquare for unequal sides and Infeasible when no perfect
    matching exists.
    """
    _require_square(graph)
    n = graph.n_left
    stats = SolveStats()
    _perfect_matching(graph)

    if eps_final is None:
        eps = Fraction(1, n + 1)
    else:
        eps = _as_fraction(eps_final, "eps_final")
        if eps <= 0:
            raise ValueError("eps_final must be positive")
    scale = math.lcm(n + 1, eps.denominator)
    eps_scaled = int(eps * scale)

    left_edges = graph.left_edges
    right_of, wt = graph._right_of, graph._weight_of
    # Benefits: auction maximizes, we minimize.
    benefit = [-w * scale for w in wt]
    big = 2 * scale * max(graph.max_abs_weight, 1) * (n + 1)

    price = [0] * n  # auction price per right vertex, scaled integers

    level = graph.max_abs_weight * scale
    levels = []
    while level > eps_scaled:
        levels.append(level)
        level = max(level // 4, eps_scaled)
    levels.append(eps_scaled)

    for eps_now in levels:
        stats.phases += 1
        owner: list[int | None] = [None] * n
        assigned: list[int | None] = [None] * n  # edge index per left vertex
        free: deque[int] = deque(range(n))
        while free:
            u = free.popleft()
            best_e = -1
            best_val: int | None = None
            second_val: int | None = None
            for e in left_edges(u):
                val = benefit[e] - price[right_of[e]]
                if best_val is None or val > best_val:
                    second_val = best_val
                    best_val = val
                    best_e = e
                elif second_val is None or val > second_val:
                    second_val = val
            if second_val is None:
                second_val = best_val - big  # lone option: bid high to lock it
            v = right_of[best_e]
            price[v] += best_val - second_val + eps_now
            previous = owner[v]
            if previous is not None:
                assigned[previous] = None
                free.append(previous)
            owner[v] = u
            assigned[u] = best_e
            stats.iterations += 1

    right_num = [-q for q in price]
    left_num = [0] * n
    for u in range(n):
        e = assigned[u]
        left_num[u] = wt[e] * scale - right_num[right_of[e]]
    matching = Matching(graph, [e for e in assigned if e is not None])
    return SolveResult(matching, DualPrices(left_num, right_num, scale), stats)


def solve_via_rounding(graph: WeightedBipartiteGraph) -> SolveResult:
    """Auction at epsilon = 1/(n+1) followed by price rounding: an optimal
    matching with an exact integral certificate."""
    approx = solve_auction(graph)
    exact_prices = round_to_optimal(graph, approx.matching, approx.prices)
    return SolveResult(approx.matching, exact_prices, approx.stats)
