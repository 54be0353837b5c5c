"""Optimum matchings when a perfect matching is impossible.

With more workers than tasks (or missing skills) the target becomes the
optimum matching: match as many pairs as possible, and among those pick
the cheapest. ``optimum_matching`` answers any graph directly, from the
task side. The paper's three reductions turn the problem into a plain
minimum-weight perfect matching problem on a modified graph, which
``solve_exact`` solves and ``restrict_back`` maps back:

* full doubling mirrors the graph with heavy link edges; works always.
* half doubling drops half the links; needs every task coverable.
* padding adds dummy tasks; same requirement.
"""

from bipmatch import (WeightedBipartiteGraph, artificial_vertices, choose_strategy,
                      first_doubling, optimum_matching, restrict_back, second_doubling,
                      solve_exact)

# Five workers, three tasks.
graph = WeightedBipartiteGraph(5, 3, [
    (0, 0, 4), (0, 1, 2),
    (1, 0, 3),
    (2, 1, 6), (2, 2, 1),
    (3, 2, 5),
    (4, 0, 2), (4, 2, 7),
])


def solved(t):
    """An optimum of t's parent: its balanced graph solved, mapped back."""
    return restrict_back(t, solve_exact(t.graph).matching)


def show(label, m):
    print(f"{label:14} -> pairs {sorted(graph.endpoints(e) for e in m)}, "
          f"cardinality {m.cardinality}, cost {m.weight()}")


show("optimum", optimum_matching(graph))
for name, t in (("full doubling", first_doubling(graph)),
                ("half doubling", second_doubling(graph)),
                ("padding", artificial_vertices(graph))):
    show(name, solved(t))

# The free constant on link/dummy edges shifts every candidate by the
# same amount, so the answer does not depend on it.
for k in (-3, 0, 7):
    print(f"padding with k={k:+d} -> cost {solved(artificial_vertices(graph, k)).weight()}")

print("reduction picked for this graph:", choose_strategy(graph))

# A look inside the full doubling: the mirrored instance is balanced and
# always has a perfect matching made of link edges alone.
doubled = first_doubling(graph)
print("doubled instance:", doubled.graph.n_left, "x", doubled.graph.n_right,
      "vertices,", doubled.graph.edge_count, "edges")

# A worker no task can use is simply left out.
lonely = WeightedBipartiteGraph(2, 1, [(0, 0, 5)])
m = optimum_matching(lonely)
print("isolated worker stays unmatched:", sorted(lonely.endpoints(e) for e in m))
