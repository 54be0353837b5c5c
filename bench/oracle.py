"""Independent correctness checks for CLI outputs.

Nothing here calls bipmatch: every answer is checked against the generated
edge list with exact integer arithmetic, scipy's assignment solvers (the
sparse LAPJV on square instances, linear_sum_assignment on rectangular ones)
and networkx's maximum matching. Import this module only after peak RSS has been
read, because scipy and networkx are large.

Every check returns None when the output is correct and a short reason
otherwise. Labels in CLI output are 1-based, in the instance file's
orientation.
"""

from __future__ import annotations

import json
import random

import networkx as nx
import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching


class Instance:
    """The generated graph as the oracle sees it (0-based labels)."""

    def __init__(self, n_left, n_right, edges, prefs=()):
        self.n_left = n_left
        self.n_right = n_right
        self.edges = edges
        self.weight = {(u, v): w for u, v, w in edges}
        self.prefs = frozenset(prefs)
        self._u = np.array([u for u, _v, _w in edges], dtype=np.int64)
        self._v = np.array([v for _u, v, _w in edges], dtype=np.int64)
        self._w = np.array([w for _u, _v, w in edges], dtype=np.int64)
        self._opt = None

    def min_perfect(self, cost=None, without=None) -> int | None:
        """Minimum total cost of a perfect matching (square instances), or
        None if there is none.

        ``cost`` gives one integer per edge (default: the weights);
        ``without`` = (u, v) first deletes both endpoints of that edge.
        Sums stay far below 2**53, so the float solver is exact here."""
        u, v = self._u, self._v
        cost = self._w if cost is None else cost
        n = self.n_left
        if without is not None:
            a, b = without
            keep = (u != a) & (v != b)
            u, v, cost = u[keep] - (u[keep] > a), v[keep] - (v[keep] > b), cost[keep]
            n -= 1
        if n == 0:
            return 0
        if cost.size == 0:
            return None
        shift = 1 - int(cost.min())  # stored entries must be positive
        matrix = csr_array(((cost + shift).astype(float), (u, v)), shape=(n, n))
        try:
            _rows, cols = min_weight_full_bipartite_matching(matrix)
        except ValueError:
            return None
        return int(matrix[np.arange(n), cols].sum()) - n * shift

    def optimum(self) -> int:
        """Minimum perfect-matching weight (square instances only)."""
        if self._opt is None:
            self._opt = self.min_perfect()
        return self._opt

    def forced_optimum(self, u: int, v: int) -> int | None:
        """Minimum weight of a perfect matching that contains edge (u, v)."""
        rest = self.min_perfect(without=(u, v))
        return None if rest is None else self.weight[(u, v)] + rest

    def lexicographic_preferred(self) -> int:
        """Most preferred edges in any minimum-weight perfect matching: LSA
        on weight * (n + 2) + (0 if preferred else 1)."""
        scale = self.n_left + 2
        miss = np.array([0 if (u, v) in self.prefs else 1
                         for u, v, _w in self.edges], dtype=np.int64)
        lex = self.min_perfect(self._w * scale + miss)
        return self.n_left - (lex - self.optimum() * scale)


def _pairs(inst: Instance, data) -> list[tuple[int, int]] | str:
    """0-based pairs of a matching JSON, or a reason it is not a matching."""
    try:
        pairs = [(int(i) - 1, int(j) - 1) for i, j in data["edges"]]
    except (TypeError, KeyError, ValueError):
        return "matching JSON has no well-formed 'edges' list"
    for p in pairs:
        if p not in inst.weight:
            return f"edge {p[0] + 1},{p[1] + 1} is not in the instance"
    if len({u for u, _ in pairs}) != len(pairs) or len({v for _, v in pairs}) != len(pairs):
        return "edges share a vertex"
    if data.get("cardinality") != len(pairs):
        return "cardinality field disagrees with the edge list"
    if data.get("weight") != sum(inst.weight[p] for p in pairs):
        return "weight field disagrees with the edge list"
    return pairs


def _perfect(inst: Instance, data) -> list[tuple[int, int]] | str:
    pairs = _pairs(inst, data)
    if isinstance(pairs, list) and len(pairs) != inst.n_left:
        return f"matching has {len(pairs)} edges, not {inst.n_left}"
    return pairs


def _optimal_perfect(inst: Instance, data) -> list[tuple[int, int]] | str:
    pairs = _perfect(inst, data)
    if isinstance(pairs, list) and data["weight"] != inst.optimum():
        return f"weight {data['weight']} is not the optimum {inst.optimum()}"
    return pairs


def check_solve(inst: Instance, text: str) -> str | None:
    """Perfect matching of optimum weight plus an exact price certificate."""
    try:
        data = json.loads(text)
        matching, prices = data["matching"], data["prices"]
        den, pi, p = prices["den"], prices["pi"], prices["p"]
    except (ValueError, TypeError, KeyError):
        return "solve output is not a matching/prices object"
    pairs = _optimal_perfect(inst, matching)
    if isinstance(pairs, str):
        return pairs
    if not (type(den) is int and den > 0 and type(pi) is list and type(p) is list
            and len(pi) == inst.n_left
            and len(p) == inst.n_right
            and all(type(x) is int for x in pi + p)):
        return "prices are not integer numerators over a positive denominator"
    for (u, v), w in inst.weight.items():
        if pi[u] + p[v] > w * den:
            return f"edge {u + 1},{v + 1} violates dual feasibility"
    for u, v in pairs:
        if pi[u] + p[v] != inst.weight[(u, v)] * den:
            return f"matched edge {u + 1},{v + 1} is not tight"
    return None


def check_check(text: str) -> str | None:
    try:
        valid = json.loads(text)["valid"]
    except (ValueError, TypeError, KeyError):
        return "check output has no 'valid' field"
    return None if valid is True else "check did not report a valid certificate"


def check_opt_edges(inst: Instance, text: str, rng: random.Random,
                    sample: int) -> str | None:
    """Force a sample of returned and of non-returned edges: a returned
    edge must reach the optimum, a non-returned one must not."""
    try:
        returned = {(int(i) - 1, int(j) - 1) for i, j in json.loads(text)["edges"]}
    except (ValueError, TypeError, KeyError):
        return "opt-edges output has no well-formed 'edges' list"
    if not returned <= inst.weight.keys():
        return "opt-edges returned an edge that is not in the instance"
    others = sorted(inst.weight.keys() - returned)
    chosen = rng.sample(sorted(returned), min(sample, len(returned)))
    for u, v in chosen:
        if inst.forced_optimum(u, v) != inst.optimum():
            return f"returned edge {u + 1},{v + 1} is in no optimal matching"
    for u, v in rng.sample(others, min(sample, len(others))):
        forced = inst.forced_optimum(u, v)
        if forced is not None and forced <= inst.optimum():
            return f"edge {u + 1},{v + 1} is in an optimal matching but was not returned"
    return None


def check_enumerate(inst: Instance, text: str, limit: int) -> str | None:
    """Every line a distinct perfect matching of optimum weight."""
    seen = set()
    lines = text.splitlines()
    if not 1 <= len(lines) <= limit:
        return f"enumerate printed {len(lines)} matchings, outside [1, {limit}]"
    for line in lines:
        try:
            data = json.loads(line)
        except ValueError:
            return "enumerate printed a line that is not JSON"
        pairs = _optimal_perfect(inst, data)
        if isinstance(pairs, str):
            return pairs
        key = frozenset(pairs)
        if key in seen:
            return "enumerate printed a matching twice"
        seen.add(key)
    return None


def check_preallocate(inst: Instance, text: str) -> str | None:
    """Optimal matching whose preferred-edge count is the lexicographic
    optimum: minimum weight first, then most preferred edges."""
    try:
        data = json.loads(text)
    except ValueError:
        return "preallocate output is not JSON"
    pairs = _optimal_perfect(inst, data)
    if isinstance(pairs, str):
        return pairs
    used = sum(1 for p in pairs if p in inst.prefs)
    if data.get("preferred") != used:
        return "preferred field disagrees with the edge list"
    best = inst.lexicographic_preferred()
    if used != best:
        return f"matching uses {used} preferred edges; the optimum uses {best}"
    return None


def check_optimum(inst: Instance, text: str) -> str | None:
    """Maximum cardinality (networkx) and, among those, minimum weight
    (rectangular LSA where each edge earns a large bonus)."""
    try:
        data = json.loads(text)
    except ValueError:
        return "optimum output is not JSON"
    pairs = _pairs(inst, data)
    if isinstance(pairs, str):
        return pairs
    g = nx.Graph()
    g.add_nodes_from(("L", u) for u in range(inst.n_left))
    g.add_nodes_from(("R", v) for v in range(inst.n_right))
    g.add_edges_from((("L", u), ("R", v)) for u, v in inst.weight)
    top = [("L", u) for u in range(inst.n_left)]
    card = len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=top)) // 2
    if len(pairs) != card:
        return f"cardinality {len(pairs)} is not the maximum {card}"
    span = 2 * max((abs(w) for w in inst.weight.values()), default=0) + 1
    bonus = span * (min(inst.n_left, inst.n_right) + 1)
    cost = np.zeros((inst.n_left, inst.n_right))
    for (u, v), w in inst.weight.items():
        cost[u, v] = w - bonus
    rows, cols = linear_sum_assignment(cost)
    chosen = [(r, c) for r, c in zip(rows, cols) if (r, c) in inst.weight]
    best = sum(inst.weight[p] for p in chosen)
    if len(chosen) != card:
        return "oracle disagreement: LSA and networkx cardinalities differ"
    if data["weight"] != best:
        return f"weight {data['weight']} is not the optimum {best}"
    return None
