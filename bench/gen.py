"""Seeded instance and preference-file generators for the benchmark workloads.

Every instance is a pure function of (workload, seed, index, size): the same
arguments always give byte-identical files. Square instances embed a hidden
permutation, so a perfect matching always exists.
"""

from __future__ import annotations

import random

# Full-size shapes. The self-test uses TINY instead.
FULL = {
    "sparse": {"n": 1000, "deg": 10, "wmin": -10**6, "wmax": 10**6},
    "dense": {"n": 200, "wmin": 0, "wmax": 1000},
    "ties": {"n": 500, "deg": 6, "wmin": 0, "wmax": 2, "pref_share": 0.3},
    # (left, right, edges per left vertex); "full" carries a Hall violator.
    "unbalanced": {"padding": (240, 212, 6), "half": (400, 100, 10),
                   "full": (300, 200, 8), "wmin": -1000, "wmax": 1000},
}

TINY = {
    "sparse": {"n": 12, "deg": 4, "wmin": -10**6, "wmax": 10**6},
    "dense": {"n": 8, "wmin": 0, "wmax": 1000},
    "ties": {"n": 10, "deg": 3, "wmin": 0, "wmax": 2, "pref_share": 0.3},
    "unbalanced": {"padding": (9, 8, 3), "half": (12, 3, 2),
                   "full": (10, 6, 3), "wmin": -1000, "wmax": 1000},
}

# Share of unbalanced jobs per shape class, as a repeating cycle. Half
# doubling holds 60%, so the median job always sits inside that class rather
# than on the gap between two classes.
UNBALANCED_CYCLE = ("half", "padding", "half", "full", "half",
                    "padding", "half", "full", "half", "half")


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def render(n_left: int, n_right: int, edges: list[tuple[int, int, int]]) -> str:
    """Instance file text; edges are 0-based (left, right, weight)."""
    lines = [f"p bip {n_left} {n_right} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"


def _sparse_edges(rng: random.Random, n_left: int, n_right: int, deg: int,
                  wmin: int, wmax: int, forced: dict[int, int]
                  ) -> list[tuple[int, int, int]]:
    """deg distinct neighbours per left vertex, always including forced[u]."""
    edges = []
    for u in range(n_left):
        nbrs = set()
        if u in forced:
            nbrs.add(forced[u])
        while len(nbrs) < min(deg, n_right):
            nbrs.add(rng.randrange(n_right))
        for v in sorted(nbrs):
            edges.append((u, v, rng.randint(wmin, wmax)))
    return edges


def square_sparse(rng: random.Random, n: int, deg: int, wmin: int, wmax: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return n, n, _sparse_edges(rng, n, n, deg, wmin, wmax, dict(enumerate(perm)))


def complete(rng: random.Random, n: int, wmin: int, wmax: int):
    return n, n, [(u, v, rng.randint(wmin, wmax)) for u in range(n) for v in range(n)]


def covering(rng: random.Random, n_left: int, n_right: int, deg: int,
             wmin: int, wmax: int):
    """Unbalanced graph with a hidden matching that covers the right side."""
    lefts = rng.sample(range(n_left), n_right)
    forced = {u: v for v, u in enumerate(lefts)}
    return n_left, n_right, _sparse_edges(rng, n_left, n_right, deg, wmin, wmax, forced)


def hall_violator(rng: random.Random, n_left: int, n_right: int, deg: int,
                  wmin: int, wmax: int):
    """Unbalanced graph whose right side cannot be covered: right vertices
    0..2 are adjacent only to left vertices 0..1."""
    n, s, edges = covering(rng, n_left, n_right, deg, wmin, wmax)
    edges = [(u, v, w) for u, v, w in edges if v >= 3 or u < 2]
    present = {(u, v) for u, v, _w in edges}
    for u in (0, 1):
        for v in (0, 1, 2):
            if (u, v) not in present:
                edges.append((u, v, rng.randint(wmin, wmax)))
    edges.sort()
    return n, s, edges


def instance(workload: str, seed: int, index: int, sizes: dict):
    """(kind, n_left, n_right, edges) for one pool slot of a workload."""
    rng = _rng(workload, seed, index)
    p = sizes[workload]
    if workload in ("sparse", "ties"):
        return (workload,) + square_sparse(rng, p["n"], p["deg"], p["wmin"], p["wmax"])
    if workload == "dense":
        return (workload,) + complete(rng, p["n"], p["wmin"], p["wmax"])
    if workload == "unbalanced":
        kind = UNBALANCED_CYCLE[index % len(UNBALANCED_CYCLE)]
        n_left, n_right, deg = p[kind]
        build = hall_violator if kind == "full" else covering
        return (kind,) + build(rng, n_left, n_right, deg, p["wmin"], p["wmax"])
    raise ValueError(f"unknown workload {workload!r}")


def preferences(workload: str, seed: int, index: int,
                edges: list[tuple[int, int, int]], share: float) -> list[tuple[int, int]]:
    """A seeded sample of about ``share`` of the edges, as 0-based pairs."""
    rng = _rng(workload + ":prefs", seed, index)
    return [(u, v) for u, v, _w in edges if rng.random() < share]


def render_preferences(pairs: list[tuple[int, int]]) -> str:
    return "".join(f"f {u + 1} {v + 1}\n" for u, v in pairs)
