"""Optimum matchings when a perfect matching is impossible.

With more workers than tasks (or missing skills) the target becomes the
optimum matching: match as many pairs as possible, and among those pick
the cheapest. ``optimum_matching`` answers any graph directly, from the
task side, and ``optimal_edges_general`` finds every edge of some
optimum from the same run. The paper's constructions, which turn the
problem into a perfect matching problem on a modified graph (full
doubling, half doubling and padding), live in ``tests/reductions.py``,
where they check these answers.
"""

from bipmatch import WeightedBipartiteGraph, optimal_edges_general, optimum_matching

# Five workers, three tasks.
graph = WeightedBipartiteGraph(5, 3, [
    (0, 0, 4), (0, 1, 2),
    (1, 0, 3),
    (2, 1, 6), (2, 2, 1),
    (3, 2, 5),
    (4, 0, 2), (4, 2, 7),
])

m = optimum_matching(graph)
print(f"{'optimum':14} -> pairs {sorted(graph.endpoints(e) for e in m)}, "
      f"cardinality {m.cardinality}, cost {m.weight()}")

# The edges in some optimum. When worker 1 does task 0 for 2, as worker 4
# does, both of their edges to it are optimal.
tied = WeightedBipartiteGraph(5, 3, [*graph.edges[:2], (1, 0, 2), *graph.edges[3:]])
for g in (graph, tied):
    print("optimal edges  ->", sorted(g.endpoints(e) for e in optimal_edges_general(g)))

# A worker no task can use is simply left out.
lonely = WeightedBipartiteGraph(2, 1, [(0, 0, 5)])
m = optimum_matching(lonely)
print("isolated worker stays unmatched:", sorted(lonely.endpoints(e) for e in m))
