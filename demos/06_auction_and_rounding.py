"""From approximate prices to an exact certificate, without re-solving.

Scaling solvers finish with prices that are tight on the matching but may
overshoot other edges by a small epsilon. If epsilon is at most 1/(n+1),
the matching is already optimal, and a single linear-time pass fixes the
prices: shift every task price by a carefully chosen multiple of 1/(n+1),
floor, and recompute the worker prices from their matched edges.
"""

import math
import random
from fractions import Fraction

from bipmatch import (WeightedBipartiteGraph, check_complementary_slackness,
                      check_eps_optimal, round_to_optimal, solve_auction)

rng = random.Random(11)
n = 6
graph = WeightedBipartiteGraph(
    n, n, [(u, v, rng.randint(-9, 9)) for u in range(n) for v in range(n)])

# The auction divides epsilon by 4 phase by phase, down to 1/(n+1).
approx = solve_auction(graph)
eps = Fraction(1, n + 1)
print("auction phases:", approx.stats.phases, " bids:", approx.stats.iterations)
print("matching cost:", approx.matching.weight())
print("prices are eps-optimal:",
      check_eps_optimal(graph, approx.matching, approx.prices, eps))
print("right prices:", approx.prices.right_prices())

# The shift is chosen so no price sits where flooring could go wrong: a
# right price r rules out t = -floor((n+1) * r) mod (n+1), and the
# rounding takes the smallest t in {0, ..., n} that no price rules out.
ruled_out = {-math.floor((n + 1) * r) % (n + 1) for r in approx.prices.right_prices()}
t = min(set(range(n + 1)) - ruled_out)
print("selected shift t =", t, "of", n + 1, "candidates")

exact = round_to_optimal(graph, approx.matching, approx.prices)
print("rounded right prices:", exact.right_prices())
print("exact certificate:",
      check_complementary_slackness(graph, approx.matching, exact))

# The matching never changes; only the prices are repaired.
