"""Minimum-weight perfect matching solvers with dual certificates.

Two independent routes to an optimal primal-dual pair:

* ``solve_exact`` -- successive shortest augmenting paths with integer
  vertex potentials (Dijkstra on reduced costs). Emits integral optimal
  prices directly.
* ``solve_auction`` -- an epsilon-scaling auction run on integer-rescaled
  weights. Emits a perfect matching with fractional prices that violate
  dual feasibility by at most a chosen epsilon and are exactly tight on
  the matching.
* ``solve_via_rounding`` -- the auction at epsilon = 1/(n+1) followed by
  the price-rounding step, which restores an exact optimality certificate
  without touching the matching.

``solve_exact`` is its own feasibility check: a search that empties its
heap proves there is no perfect matching. ``solve_auction`` checks up
front, since on an infeasible instance its prices would rise forever.

Cost of the exact solver: each of the n searches costs time proportional
to what it touched -- the vertices it reached, the edges it scanned and
its heap operations -- because the potential update and the reset of the
search state visit the reached vertices only. One O(n) pass at the end
turns the stored potentials into prices. Both solvers read edge endpoints
and weights from flat per-edge lists built once per call.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .errors import Infeasible, NotSquare
from .graph import Matching, WeightedBipartiteGraph
from .matching import max_cardinality_matching
from .prices import DualPrices, RationalLike, _as_fraction, prices_to_json, round_to_optimal


@dataclass
class SolveStats:
    """Coarse work counters: scaling phases and primitive iterations
    (augmentations for the exact solver, bids for the auction)."""

    phases: int = 0
    iterations: int = 0

    def to_json(self) -> dict:
        return {"phases": self.phases, "iterations": self.iterations}


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


def _require_square(graph: WeightedBipartiteGraph) -> None:
    if graph.n_left != graph.n_right:
        n, s = graph.original_sizes()
        raise NotSquare(f"perfect matching needs equal sides, got {n} and {s}")


def _require_feasible(graph: WeightedBipartiteGraph) -> None:
    """Raise Infeasible, naming uncovered vertices, if no perfect matching
    exists. The graph is square, so its sides are never swapped and the
    0-based names u<i> and v<j> follow the input's orientation."""
    mcm = max_cardinality_matching(graph)
    if mcm.cardinality < graph.n_left:
        free_left = next(u for u in range(graph.n_left) if mcm.left_edge(u) is None)
        covered = {graph.endpoints(e)[1] for e in mcm}
        free_right = next(v for v in range(graph.n_right) if v not in covered)
        raise Infeasible(
            f"no perfect matching: maximum cardinality is {mcm.cardinality} of "
            f"{graph.n_left}; vertices u{free_left} and v{free_right} stay uncovered")


def solve_exact(graph: WeightedBipartiteGraph) -> SolveResult:
    """Minimum-weight perfect matching with integral optimal prices.

    Successive shortest paths: potentials keep every reduced cost
    non-negative, each Dijkstra pass augments the matching by one edge and
    shifts the potentials so the new matched edges are exactly tight. The
    returned pair always satisfies the complementary-slackness checker.

    Raises NotSquare for unequal sides and Infeasible when no perfect
    matching exists.
    """
    _require_square(graph)
    n = graph.n_left
    stats = SolveStats(phases=0, iterations=0)
    if n == 0:
        return SolveResult(Matching(graph, []), DualPrices([], [], 1), stats)

    left_edges = graph.left_edges
    left_of, right_of, wt = graph._left_of, graph._right_of, graph._weight_of

    # Potentials are kept as base values plus one shared offset:
    #     left potential of u  = left_base[u] - offset
    #     right potential of v = right_base[v] + offset
    # The offset cancels in every reduced cost w - left - right, so the
    # search reads the bases alone, and a pass that shifts every vertex by
    # the target distance only has to adjust the bases of the vertices its
    # search reached at a smaller distance.
    # Initial feasible potentials: row minimums absorb negative weights. A
    # left vertex without edges gets 0; its own search proves infeasibility.
    left_base = [min((wt[e] for e in left_edges(u)), default=0) for u in range(n)]
    right_base = [0] * n
    offset = 0
    mate_left: list[int | None] = [None] * n
    mate_right: list[int | None] = [None] * n

    # Search state, allocated once. Each pass resets exactly the entries it
    # touched; reach_edge needs no reset, since an augmenting path only
    # follows right vertices its own search reached.
    dist_left: list[int | None] = [None] * n
    dist_right: list[int | None] = [None] * n
    reach_edge: list[int] = [-1] * n  # edge that settled each right vertex
    done_left = [False] * n
    done_right = [False] * n

    for source in range(n):
        dist_left[source] = 0
        touched_left = [source]
        touched_right: list[int] = []
        heap: list[tuple[int, int, int, int]] = [(0, 0, 0, source)]
        target = -1
        target_dist = 0

        while heap:
            d, side, _tie, x = heappop(heap)
            if side == 0:
                if done_left[x] or d > dist_left[x]:  # stale entry
                    continue
                done_left[x] = True
                base = d - left_base[x]
                matched = mate_left[x]
                for e in left_edges(x):
                    if e == matched:
                        continue
                    v = right_of[e]
                    if done_right[v]:
                        continue
                    nd = base + wt[e] - right_base[v]
                    dv = dist_right[v]
                    if dv is None:
                        touched_right.append(v)
                    elif nd >= dv:
                        continue
                    dist_right[v] = nd
                    reach_edge[v] = e
                    heappush(heap, (nd, 1, v, v))
            else:
                if done_right[x] or d > dist_right[x]:
                    continue
                done_right[x] = True
                m = mate_right[x]
                if m is None:
                    target = x
                    target_dist = d
                    break
                u = left_of[m]
                # Matched edges are tight, so the step costs nothing.
                du = dist_left[u]
                if du is None:
                    touched_left.append(u)
                elif d >= du:
                    continue
                dist_left[u] = d
                heappush(heap, (d, 0, u, u))
        else:
            # No augmenting path from this source: no perfect matching.
            _require_feasible(graph)
            raise AssertionError("augmenting path search exhausted a feasible graph")

        # Shift potentials so all residual costs stay non-negative and the
        # augmenting path becomes tight end to end: every left potential
        # drops by min(dist, target_dist) and every right one rises by it.
        # The offset applies target_dist to all; reached vertices closer
        # than the target take back the difference. Then reset the search
        # state this pass touched.
        offset += target_dist
        for u in touched_left:
            du = dist_left[u]
            if du < target_dist:
                left_base[u] += target_dist - du
            dist_left[u] = None
            done_left[u] = False
        for v in touched_right:
            dv = dist_right[v]
            if dv < target_dist:
                right_base[v] -= target_dist - dv
            dist_right[v] = None
            done_right[v] = False

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

    Runs bidding phases with epsilon halving from the largest absolute
    weight down to ``eps_final`` (default 1/(n+1), which forces an optimal
    matching on integer weights). All arithmetic is on integer-rescaled
    weights; the returned prices are exact rationals, tight on every
    matched edge and infeasible by at most eps_final elsewhere, so the
    pair passes the epsilon-optimality checker at eps_final. With the
    default epsilon the price denominator is exactly n+1, ready for the
    rounding step.

    Larger eps_final values are accepted (the matching may then be
    suboptimal by up to n*eps_final); floats are rejected.
    """
    _require_square(graph)
    _require_feasible(graph)
    n = graph.n_left
    stats = SolveStats()
    if n == 0:
        return SolveResult(Matching(graph, []), DualPrices([], [], n + 1), stats)

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
    owner: list[int | None] = [None] * n
    assigned: list[int | None] = [None] * n  # edge index per left vertex

    level = graph.max_abs_weight * scale
    levels = []
    while level > eps_scaled:
        levels.append(level)
        level = max(level // 2, eps_scaled)
    levels.append(eps_scaled)

    for eps_now in levels:
        stats.phases += 1
        owner = [None] * n
        assigned = [None] * n
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
