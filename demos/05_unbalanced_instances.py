"""Optimum matchings when a perfect matching is impossible.

With more workers than tasks (or missing skills) the target becomes the
optimum matching: match as many pairs as possible, and among those pick
the cheapest. Three reductions turn this into a plain minimum-weight
perfect matching problem on a modified graph:

* "doubling" mirrors the graph with heavy link edges; works always.
* "half-doubling" drops half the links; needs every task coverable.
* "artificial" pads the task side with dummy tasks; same requirement;
  use it only for a gap of a few vertices.
"""

from bipmatch import (FULL_DOUBLING, HALF_DOUBLING, PADDING,
                      WeightedBipartiteGraph, choose_strategy, first_doubling,
                      optimum_matching)

# Five workers, three tasks.
graph = WeightedBipartiteGraph(5, 3, [
    (0, 0, 4), (0, 1, 2),
    (1, 0, 3),
    (2, 1, 6), (2, 2, 1),
    (3, 2, 5),
    (4, 0, 2), (4, 2, 7),
])

for strategy in (FULL_DOUBLING, HALF_DOUBLING, PADDING):
    m = optimum_matching(graph, strategy)
    print(f"{strategy:14} -> pairs {sorted(graph.endpoints(e) for e in m)}, "
          f"cardinality {m.cardinality}, cost {m.weight()}")

# The free constant on link/dummy edges shifts every candidate by the
# same amount, so the answer does not depend on it.
for k in (-3, 0, 7):
    m = optimum_matching(graph, PADDING, k)
    print(f"padding with k={k:+d} -> cost {m.weight()}")

print("auto-selected strategy:", choose_strategy(graph))

# A look inside the full doubling: the mirrored instance is balanced and
# always has a perfect matching made of link edges alone.
doubled = first_doubling(graph)
print("doubled instance:", doubled.graph.n_left, "x", doubled.graph.n_right,
      "vertices,", doubled.graph.edge_count, "edges")

# A worker no task can use is simply left out.
lonely = WeightedBipartiteGraph(2, 1, [(0, 0, 5)])
m = optimum_matching(lonely, FULL_DOUBLING)
print("isolated worker stays unmatched:", sorted(lonely.endpoints(e) for e in m))
