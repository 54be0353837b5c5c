"""Pinned output order of enumeration and Hopcroft-Karp.

Each case hashes the exact edge-index tuples that a seeded run produces,
so a change to which matchings come out, or in what order, fails here
even when the set of matchings stays correct. The digests were recorded
before the branch frames moved to flat edge columns. Print them again
with ``PYTHONPATH=src python tests/test_enumeration_order.py``, and only
replace them when a new order is intended.
"""

import hashlib
import random
from itertools import islice

import pytest

from bipmatch import (WeightedBipartiteGraph, iter_min_weight_perfect_matchings,
                      iter_perfect_matchings, max_cardinality_matching, solve_exact)

LIMIT = 300

ENUMERATION_DIGESTS = {
    0: ("7d96ba5952d42c8f93845883352b044f3780e6f3cb17c4d5fd5c03f06321d102",
        "1b90afb91207645104f5b7ec7d903123597e312e44221ed524c0aad0133bfa8f"),
    1: ("51a5ac3eb8b77d9a9176660edc5347a2a00ec52c4bb1f1668520a39a778f0e36",
        "76f129d04200a4a48d2cd02d03beb2eb1e07c5a1eac97e99d6c1e2a2fad94c8d"),
    2: ("9ee7d208736a8ad331e5df39462f0a963dc29495343be86d1d932d1caf95ce9d",
        "0e6ede90a5e8cf54d7529bae43d6bb3d1d6e324492d9a6e5f3e7d5e4d3ad6270"),
    3: ("dce52971d3c473b9c270999ca83cf75694eb51188c8c2ec128b04bb2f0e4884d",
        "16364a4effc986e3e91dd4f2a29330c4ff1bc76e3e42adfa02f7f098c528aeb0"),
    4: ("7f9593fdb7dd69fa38a16ab5ce0da12ae5272bd2e379dca963eca922c5dc4855",
        "436a63d38247f19c6600d0c26bca3c90487fd971aa760126563ef155180b1923"),
    5: ("50bbf31ab2f333fed3d82aa43c716122c20ad3077e08386caa6086a4003ee9ef",
        "18617a728c4431d8827e550bba1a7f647d67fbef576efabe76d5fe143b3eacd1"),
}

HOPCROFT_KARP_DIGESTS = {
    0: "df156c1f12acf535499a5faaf335e72a17690ba09271b3642be19fd5692eb7c3",
    1: "9b38ccb96fe27f1e9627b98780a3a8c0a523d1c2da33a22a1574a18b87e911c5",
    2: "fe823abe882c3391d9b30039893924a89201742fa7a33d3a766adcbce0649242",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def tie_graph(seed: int) -> WeightedBipartiteGraph:
    """Square graph, 20-120 per side, weights in {0, 1, 2} (mostly 0) and
    shuffled edge order, with a hidden perfect matching."""
    rng = random.Random(seed)
    n = rng.randint(20, 120)
    perm = list(range(n))
    rng.shuffle(perm)
    cells = {(u, perm[u]) for u in range(n)}
    deg = rng.randint(3, 6)
    while len(cells) < n * deg:
        cells.add((rng.randrange(n), rng.randrange(n)))
    edges = [(u, v, rng.choice((0, 0, 0, 1, 2))) for u, v in sorted(cells)]
    rng.shuffle(edges)
    return WeightedBipartiteGraph(n, n, edges)


def enumeration_digests(seed: int) -> tuple[str, str]:
    g = tie_graph(seed)
    every = islice(iter_perfect_matchings(g), LIMIT)
    optima = islice(iter_min_weight_perfect_matchings(g, solve_exact(g).prices), LIMIT)
    return (_digest(m.edge_indices for m in every),
            _digest(m.edge_indices for m in optima))


def hopcroft_karp_digest(seed: int) -> str:
    """Matchings of 200 graphs of any shape (sides swapped, unbalanced,
    edgeless, without a perfect matching), each on the whole graph and on
    a random subset given unsorted and with repeats."""
    rng = random.Random(seed)
    results = []
    for _ in range(200):
        n, s = rng.randint(0, 40), rng.randint(0, 40)
        density = rng.choice((0.0, 0.05, 0.1, 0.3))
        edges = [(u, v, 0) for u in range(n) for v in range(s) if rng.random() < density]
        rng.shuffle(edges)
        g = WeightedBipartiteGraph(n, s, edges)
        subset = [rng.randrange(len(edges)) for _ in range(len(edges))] if edges else []
        results.append(max_cardinality_matching(g).edge_indices)
        results.append(max_cardinality_matching(g, subset).edge_indices)
    return _digest(results)


@pytest.mark.parametrize("seed", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_pinned(seed):
    assert enumeration_digests(seed) == ENUMERATION_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(HOPCROFT_KARP_DIGESTS))
def test_hopcroft_karp_matchings_pinned(seed):
    assert hopcroft_karp_digest(seed) == HOPCROFT_KARP_DIGESTS[seed]


if __name__ == "__main__":
    print("ENUMERATION_DIGESTS = {")
    for seed in sorted(ENUMERATION_DIGESTS):
        every, optima = enumeration_digests(seed)
        print(f'    {seed}: ("{every}",\n        "{optima}"),')
    print("}\n\nHOPCROFT_KARP_DIGESTS = {")
    for seed in sorted(HOPCROFT_KARP_DIGESTS):
        print(f'    {seed}: "{hopcroft_karp_digest(seed)}",')
    print("}")
