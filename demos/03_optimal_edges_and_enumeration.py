"""Which edges can appear in an optimal assignment, and all the ways.

Once optimal prices are known, two unweighted passes over the tight
subgraph answer both questions: a strongly-connected-components sweep
finds every edge lying in some minimum-weight perfect matching, and a
branch-and-split walk streams the matchings themselves, one at a time,
without ever materializing the whole (possibly exponential) family.
"""

from itertools import islice

from bipmatch import (WeightedBipartiteGraph, iter_min_weight_perfect_matchings,
                      optimal_edges, solve_exact)

# A 4x4 instance with four optimal assignments (two interchangeable
# blocks) plus one expensive edge no optimum ever uses.
graph = WeightedBipartiteGraph(4, 4, [
    (0, 0, 2), (0, 1, 2), (0, 3, 9),
    (1, 0, 2), (1, 1, 2),
    (2, 2, 1), (2, 3, 1),
    (3, 2, 1), (3, 3, 1),
])

prices = solve_exact(graph).prices

# Every edge that some optimal assignment uses. An edge outside this set
# can be deleted without changing the optimum.
usable = optimal_edges(graph, prices)
print("edges in some optimal assignment:")
for e in usable:
    u, v = graph.endpoints(e)
    print(f"  (u{u}, v{v}) weight {graph.weight(e)}")

# Stream the optimal assignments, capped with islice.
print("first three optimal assignments:")
for m in islice(iter_min_weight_perfect_matchings(graph, prices), 3):
    print(" ", sorted(graph.endpoints(e) for e in m))

# Or consume the whole stream.
total = sum(1 for _ in iter_min_weight_perfect_matchings(graph, prices))
print("total optimal assignments:", total)
