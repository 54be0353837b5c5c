"""Pinned output order of enumeration and Hopcroft-Karp.

Each case hashes the exact edge-index tuples that a seeded run produces,
so a change to which matchings come out, or in what order, fails here
even when the set of matchings stays correct. The digests of the tie
graphs were recorded before the branch frames moved to flat edge
columns, and those of the block-triangular graphs before the frames kept
their components as separate blocks. ``HOPCROFT_KARP_DIGESTS`` were
recorded when every graph was stored with its larger side on the left,
and pin that view, ``transforms._tall``; ``HOPCROFT_KARP_AS_GIVEN_DIGESTS``
pin the graphs as given. ``SOLVE_EXACT_DIGESTS`` pin the exact solver's
matching, prices and work counts on square graphs of four weight
families and on the three balanced reductions of unbalanced graphs. Print
them again with
``PYTHONPATH=src python tests/test_enumeration_order.py``, and only
replace them when a new order is intended.
"""

import hashlib
import random
from itertools import islice

import pytest

from bipmatch import (MAX_ABS_WEIGHT, WeightedBipartiteGraph, iter_min_weight_perfect_matchings,
                      iter_perfect_matchings, max_cardinality_matching, solve_exact)
from bipmatch.transforms import _tall, artificial_vertices, first_doubling, second_doubling

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

BLOCK_DIGESTS = {
    0: ("66fe48a7fe3672574c2d08e757606ce19718abccf1520ad3ff384ae041f933f7",
        "ec878dd1d7711a8ac9c48bcea3eb56a429effaf2d85a7d4490c2da688ac83805"),
    1: ("523a98cc0dd0787985b3c2f37ccc3bbe0532fd9dcdc0202260f2d18ec567eb34",
        "7ac13b9d161099b0b28d55b0c7f147f38942b2b5a927e3a8ba32f74902b85ded"),
    2: ("b4edd7577e91cb708ac29797f4e8c6e0527bc1c1577d9e0576e22026a73fb854",
        "9bd3269eb6a3b0afc30a817d2619c3c279f4a9177131afc87d23f382d881612f"),
    3: ("8a4dc293ed3d3c372119645c966583fe911ff8853fdd558f0017550768c3a77e",
        "8f16dc0a2b2dfc801d00f9b8d0a4a42b7742e1e5b9c3148017e2e832b6d14181"),
    4: ("6501cab6500831035c29855bafa6979f6b7674d22e622ba0b2f2059be1c4b3c9",
        "fb46eb8f69a54431233b8fb542775b69454ef014d22f47881c66291b928a2ff0"),
    5: ("e5a8f8bbf144f1334199118df93114cf1528ac290b9af997ea78240578f23cef",
        "b683ee1a946b0e0c8a73046e554635d298b7e4ea9c5af0b3008ef9f496716628"),
    6: ("23c333c86d5a12682d4d3610c7fb9d492790b66f0216877e920fdc84b0d7b150",
        "c3b8ef55ec7ef7086da0b4f92097ad2b2d4cd9d8a4e5e6485d21dc7d1a9bf601"),
    7: ("97805237952d444ff4e16868a0d12bb6e7d3617f953b3752a89a00acad193d4b",
        "398e222079c8a6038326c39f62a9ed61b42c7ca5bf88353db37779d8f83f6805"),
}

HOPCROFT_KARP_DIGESTS = {
    0: "df156c1f12acf535499a5faaf335e72a17690ba09271b3642be19fd5692eb7c3",
    1: "9b38ccb96fe27f1e9627b98780a3a8c0a523d1c2da33a22a1574a18b87e911c5",
    2: "fe823abe882c3391d9b30039893924a89201742fa7a33d3a766adcbce0649242",
}

HOPCROFT_KARP_AS_GIVEN_DIGESTS = {
    0: "a0f81c9a9af36b34f7893cc1f3c93d2128c407ab75b6f3e40ce8b6ab3862cd79",
    1: "315b7dc9e5bdaa514261802898875fab4519351521d0de12060e621ea798c54a",
    2: "9b74ae81873a73d0cdb8670a70a3a568ef9a43a85e99d84f6c52b0d745398bf6",
}

SOLVE_EXACT_DIGESTS = {
    0: "f9c4ba98a3466e185e34a9d9f23a442eb09d2024b0698076b36f44a5bfdad05e",
    1: "b7bcfbc0de00da277d3e0281f0ea1940bf32e453f763b5d1a9339f6116a6cc06",
    2: "3d5e800e76b2482ad9f4a628bccb61d0c08f1757edac786f5122aa9e16839a71",
    3: "dfe43bcff9392c765aee63f5d6f39e2ad4c2db702b24c55ed03ebed85c39adbe",
    4: "acbc55b78f3a236eaa2aa4fe25220b004041dafb185f3ba543b8847e07c53cf4",
    5: "c08c9c8292c2a01abcaacfe1b1a94a2847b4e6bd936a741896c4680c1f0ec816",
    6: "2b25b6706fe799a146e8949410d76fbd4482384a1e344c22d269080d6cb79b6d",
    7: "9aaf59c4c10fcab7ba8351505f8edb5c0e49dac075ed89d772035e91107ce80f",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _tie_weight(rng: random.Random) -> int:
    return rng.choice((0, 0, 0, 1, 2))


WEIGHT_FAMILIES = (
    _tie_weight,
    lambda rng: 0,
    lambda rng: rng.randint(-50, 50),
    lambda rng: rng.randint(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT),
)


def tie_graph(seed: int, weigh=_tie_weight) -> WeightedBipartiteGraph:
    """Square graph, 20-120 per side, weights drawn by ``weigh`` (by
    default in {0, 1, 2}, mostly 0) and shuffled edge order, with a hidden
    perfect matching."""
    rng = random.Random(seed)
    n = rng.randint(20, 120)
    perm = list(range(n))
    rng.shuffle(perm)
    cells = {(u, perm[u]) for u in range(n)}
    deg = rng.randint(3, 6)
    while len(cells) < n * deg:
        cells.add((rng.randrange(n), rng.randrange(n)))
    edges = [(u, v, weigh(rng)) for u, v in sorted(cells)]
    rng.shuffle(edges)
    return WeightedBipartiteGraph(n, n, edges)


def unbalanced_graph(seed: int) -> WeightedBipartiteGraph:
    """Graph with sides 5-40 and 1-40 more, either side the larger, a
    hidden matching covering the smaller side, weights in [-50, 50] and
    shuffled edge order."""
    rng = random.Random(seed)
    s = rng.randint(5, 40)
    n = s + rng.randint(1, 40)
    cells = set(zip(rng.sample(range(n), s), range(s)))
    deg = rng.randint(2, 4)
    while len(cells) < n * deg:
        cells.add((rng.randrange(n), rng.randrange(s)))
    edges = [(u, v, rng.randint(-50, 50)) for u, v in sorted(cells)]
    rng.shuffle(edges)
    if rng.random() < 0.5:
        return WeightedBipartiteGraph(s, n, [(v, u, w) for u, v, w in edges])
    return WeightedBipartiteGraph(n, s, edges)


def block_tie_graph(seed: int) -> WeightedBipartiteGraph:
    """Square graph of 4-15 square diagonal blocks, sides 2-12, each with a
    hidden perfect matching and extra edges inside, plus cross edges that
    run only from a lower block's left side to a higher block's right
    side. Every perfect matching stays inside the blocks, so no cross edge
    lies in one. Weights in {0, 1, 2}; vertex labels and edge order
    shuffled."""
    rng = random.Random(seed)
    sides = [rng.randint(2, 12) for _ in range(rng.randint(4, 15))]
    starts = [sum(sides[:b]) for b in range(len(sides))]
    cells = set()
    for start, k in zip(starts, sides):
        perm = list(range(k))
        rng.shuffle(perm)
        cells |= {(start + u, start + perm[u]) for u in range(k)}
        for _ in range(rng.randint(k, k * k // 2)):
            cells.add((start + rng.randrange(k), start + rng.randrange(k)))
    n = sum(sides)
    for _ in range(rng.randint(0, n)):
        low, high = sorted(rng.sample(range(len(sides)), 2))
        cells.add((starts[low] + rng.randrange(sides[low]),
                   starts[high] + rng.randrange(sides[high])))
    left, right = list(range(n)), list(range(n))
    rng.shuffle(left)
    rng.shuffle(right)
    edges = [(left[u], right[v], rng.choice((0, 0, 0, 1, 2))) for u, v in sorted(cells)]
    rng.shuffle(edges)
    return WeightedBipartiteGraph(n, n, edges)


def enumeration_digests(seed: int, make=tie_graph) -> tuple[str, str]:
    g = make(seed)
    every = islice(iter_perfect_matchings(g), LIMIT)
    optima = islice(iter_min_weight_perfect_matchings(g, solve_exact(g).prices), LIMIT)
    return (_digest(m.edge_indices for m in every),
            _digest(m.edge_indices for m in optima))


def solve_exact_digest(seed: int) -> str:
    """Matching, prices and stats of ``solve_exact`` on the square graph of
    ``seed`` in each weight family, then on the doubled, half-doubled and
    padded graphs of an unbalanced graph."""
    graphs = [tie_graph(seed, weigh) for weigh in WEIGHT_FAMILIES]
    graphs += [reduce(unbalanced_graph(seed)).graph
               for reduce in (first_doubling, second_doubling, artificial_vertices)]
    results = []
    for g in graphs:
        r = solve_exact(g)
        results.append((r.matching.edge_indices, r.prices.left_num, r.prices.right_num,
                        r.prices.den, r.stats.phases, r.stats.iterations))
    return _digest(results)


def _as_given(graph: WeightedBipartiteGraph) -> WeightedBipartiteGraph:
    return graph


def hopcroft_karp_digest(seed: int, view) -> str:
    """Matchings of 200 graphs of any shape (either side larger, edgeless,
    without a perfect matching), each read through ``view``, on the whole
    graph and on a random subset given unsorted and with repeats."""
    rng = random.Random(seed)
    results = []
    for _ in range(200):
        n, s = rng.randint(0, 40), rng.randint(0, 40)
        density = rng.choice((0.0, 0.05, 0.1, 0.3))
        edges = [(u, v, 0) for u in range(n) for v in range(s) if rng.random() < density]
        rng.shuffle(edges)
        g = view(WeightedBipartiteGraph(n, s, edges))
        subset = [rng.randrange(len(edges)) for _ in range(len(edges))] if edges else []
        results.append(max_cardinality_matching(g).edge_indices)
        results.append(max_cardinality_matching(g, subset).edge_indices)
    return _digest(results)


@pytest.mark.parametrize("seed", sorted(ENUMERATION_DIGESTS))
def test_enumeration_order_pinned(seed):
    assert enumeration_digests(seed) == ENUMERATION_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(BLOCK_DIGESTS))
def test_block_triangular_order_pinned(seed):
    assert enumeration_digests(seed, block_tie_graph) == BLOCK_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(HOPCROFT_KARP_DIGESTS))
def test_hopcroft_karp_matchings_pinned(seed):
    assert hopcroft_karp_digest(seed, _tall) == HOPCROFT_KARP_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(HOPCROFT_KARP_AS_GIVEN_DIGESTS))
def test_hopcroft_karp_matchings_as_given_pinned(seed):
    assert hopcroft_karp_digest(seed, _as_given) == HOPCROFT_KARP_AS_GIVEN_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SOLVE_EXACT_DIGESTS))
def test_solve_exact_pinned(seed):
    assert solve_exact_digest(seed) == SOLVE_EXACT_DIGESTS[seed]


if __name__ == "__main__":
    print("ENUMERATION_DIGESTS = {")
    for seed in sorted(ENUMERATION_DIGESTS):
        every, optima = enumeration_digests(seed)
        print(f'    {seed}: ("{every}",\n        "{optima}"),')
    print("}\n\nBLOCK_DIGESTS = {")
    for seed in sorted(BLOCK_DIGESTS):
        every, optima = enumeration_digests(seed, block_tie_graph)
        print(f'    {seed}: ("{every}",\n        "{optima}"),')
    print("}\n\nHOPCROFT_KARP_DIGESTS = {")
    for seed in sorted(HOPCROFT_KARP_DIGESTS):
        print(f'    {seed}: "{hopcroft_karp_digest(seed, _tall)}",')
    print("}\n\nHOPCROFT_KARP_AS_GIVEN_DIGESTS = {")
    for seed in sorted(HOPCROFT_KARP_AS_GIVEN_DIGESTS):
        print(f'    {seed}: "{hopcroft_karp_digest(seed, _as_given)}",')
    print("}\n\nSOLVE_EXACT_DIGESTS = {")
    for seed in sorted(SOLVE_EXACT_DIGESTS):
        print(f'    {seed}: "{solve_exact_digest(seed)}",')
    print("}")
