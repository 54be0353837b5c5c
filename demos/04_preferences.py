"""Break ties among optimal assignments with a preference list.

When several assignments share the minimum cost, a planner usually cares
which one runs: keep incumbent pairings, honor requests, avoid awkward
pairs. Marking a preferred edge set picks, among all minimum-cost perfect
matchings, one containing as many preferred edges as possible; the cost
never degrades, preferences only break ties. The choice is made on the
optimal edges, the edges of some minimum-cost assignment, so it does not
depend on which optimal prices found them.
"""

from bipmatch import EdgeSet, WeightedBipartiteGraph, optimal_edges, preallocate, solve_exact

# All assignments cost 10 here: a pure tie-breaking situation.
graph = WeightedBipartiteGraph(2, 2, [
    (0, 0, 5), (0, 1, 5),
    (1, 0, 5), (1, 1, 5),
])
optimal = optimal_edges(graph, solve_exact(graph).prices)

for wanted in ([], [(0, 1)], [(0, 0), (1, 1)]):
    prefs = EdgeSet(graph, [graph.edge_index(u, v) for u, v in wanted])
    m = preallocate(optimal, prefs)
    used = sorted(graph.endpoints(e) for e in m)
    kept = sum(1 for e in m if e in prefs)
    print(f"prefer {wanted!r:18} -> {used}, cost {m.weight()}, preferred kept {kept}")

# An unsatisfiable preference changes nothing: the unique optimum wins.
rigid = WeightedBipartiteGraph(2, 2, [(0, 0, 0), (0, 1, 9), (1, 0, 9), (1, 1, 0)])
rigid_optimal = optimal_edges(rigid, solve_exact(rigid).prices)
m = preallocate(rigid_optimal, EdgeSet(rigid, [rigid.edge_index(0, 1)]))
print("rigid instance ignores the preference:",
      sorted(rigid.endpoints(e) for e in m), "cost", m.weight())
