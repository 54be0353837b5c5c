"""Pinned output order of enumeration and Hopcroft-Karp.

Each case hashes the exact edge-index tuples that a seeded run produces,
so a change to which matchings come out, or in what order, fails here
even when the set of matchings stays correct. ``ENUMERATION_DIGESTS``
and ``BLOCK_DIGESTS`` were recorded when the branch frames began to flip
alternating cycles, with the lowest edge of any block as the pivot, so
they pin an order that no choice of perfect matching can move.
``CYCLE_DIGESTS`` and ``CYCLE_DENSE_DIGESTS`` pin disjoint unions of
alternating cycles, without and with one denser block; they were recorded
while every branch node still ran a Tarjan trim and a cycle search, to pin
the same order once a block that is one cycle is split without them.
``HOPCROFT_KARP_DIGESTS`` were recorded when every graph was stored with
its larger side on the left, and pin that view, ``reductions._tall``;
``HOPCROFT_KARP_AS_GIVEN_DIGESTS`` pin the graphs as given.
``SOLVE_EXACT_DIGESTS`` pin the exact solver's matching, prices and work
counts on square graphs of four weight families and on the three
balanced reductions of unbalanced graphs. ``SOLVE_EXACT_DENSE_DIGESTS``
pin the same on complete graphs of three weight families, where a search
reaches every right vertex at once. Both were recorded when the solver's
one start became the column pass and a Hopcroft-Karp run on the tight
edges. ``OPTIMUM_DIGESTS`` pin ``optimum_matching``'s matching on tall,
wide and square graphs, with and without a matching that covers the
smaller side, in two weight families; they were recorded while every
Hopcroft-Karp run of ``optimum_matching`` still read the graph as given.
Seeds 8-15 of those two sets were added while each search still scanned
its left vertices' edges in input order, to pin the same outputs once a
search may stop a scan at its bound.
Print them again with
``PYTHONPATH=src python tests/test_enumeration_order.py``, and only
replace them when a new order is intended.
"""

import hashlib
import random
from itertools import islice

import pytest

from bipmatch import (MAX_ABS_WEIGHT, WeightedBipartiteGraph, iter_min_weight_perfect_matchings,
                      iter_perfect_matchings, max_cardinality_matching, optimum_matching,
                      solve_exact)

from reductions import _tall, artificial_vertices, first_doubling, second_doubling

LIMIT = 300

ENUMERATION_DIGESTS = {
    0: ("f8ab121348f349e83fbed4c00f76deeaff2a35b07a2cd47a1eddd5ec53dbe6bc",
        "f4a58a681b4a48f3159782ba577052a4575966c86c0222b998aab447488bacdb"),
    1: ("a46b75611d7a057d82480af829130c4213dc9a600d3081e7b2ac26ffc6d3ad90",
        "efe04566649f3adaaaf17a25c2f93e53c189f41d723003efc68aac338c8fa18f"),
    2: ("d0cfb0b62e452ffad976d508b1c47a9e64dadee301bb6cb835bad7d126635329",
        "875997b6f11b6d818470086ab8e925509c052eb59e01932d85c917c7e30beca4"),
    3: ("0e8ed95219f40b2836c7dde80cdc93acdb9a920150412b1ff3a6f2b23cc4a822",
        "16364a4effc986e3e91dd4f2a29330c4ff1bc76e3e42adfa02f7f098c528aeb0"),
    4: ("a991ba8fdce541afef76babf8ccd5a336b66582144991b38463e42a383952548",
        "86f3a4282f202315b9dc9e548f19a6724226621552ff9b5ef3f30be56e754d7d"),
    5: ("e550ed54c708cf592b4b6c8e8497ef611ba81f66512c5c2ac4c4880023610181",
        "d4a8339fba298ae94325f0b902aa71ccbf055ca6ef5ee8af54dc467f60e7a2e9"),
}

BLOCK_DIGESTS = {
    0: ("374b6dc48aeaf3043a645f4de67bbe026ad9132038f495f6e1d096f886975715",
        "ebd35dfb1887bb8c6e8ffecea793c8a9492fb46370d2250f583b975e92bcc0f8"),
    1: ("96d3a44ad4f38cc9fe8aa0893357df38c65e8116b7d3e87d53e7c959da917353",
        "44690128879fbe50dd0f06b50ce19ab76c876e08241df22e0345a64db069625d"),
    2: ("b4edd7577e91cb708ac29797f4e8c6e0527bc1c1577d9e0576e22026a73fb854",
        "9bd3269eb6a3b0afc30a817d2619c3c279f4a9177131afc87d23f382d881612f"),
    3: ("231820c8d44ad76869d73df3a64fad998a52a448aaf16d36f0c150ec5a880b52",
        "8f16dc0a2b2dfc801d00f9b8d0a4a42b7742e1e5b9c3148017e2e832b6d14181"),
    4: ("c5359748e158b162911622edd0cd847fb1e759dbc62b576d76e5eae372d21b2f",
        "fb46eb8f69a54431233b8fb542775b69454ef014d22f47881c66291b928a2ff0"),
    5: ("48e986a3fe28d89a07add8dd4fabcec1d9209934ff251c430d5075ef10f8a7f0",
        "a84e655e1f0fcf8544a6cc55d25123e1a77245dd813c257f5a233ab72a11992f"),
    6: ("10e5e908352e1ff204693014c8bcaae2629b463d32d9cd7ede2d8e795169cdda",
        "544da3230e212e4f52c15ed6bcf4b6a8dc65281f008fc8d53984d0da4b676ff0"),
    7: ("5db6c230700b9a62fed129ab085cc3d6e58f7b6fcf24239b1f0932cb21fd7c28",
        "710a980afeb2d12000771cf1dd38774c94254bcf899f919d0824257a8d352df8"),
}

CYCLE_DIGESTS = {
    0: ("3400fb56b9aafb01e9e96b285ffd87389dcc21dfa4b400c7dbe05d7107d556f5",
        "18e2ddc17fbe9157912b47324b80ef257ad264bcf4c3d04e8c330a540351cb40"),
    1: ("9f47b1f8439f11bb4fcc11051782054f3a70366d606eb96a461d10f0d4f2a286",
        "9f47b1f8439f11bb4fcc11051782054f3a70366d606eb96a461d10f0d4f2a286"),
    2: ("25aa3f41d8f43c2186ffc2a832a78f75dc88670d8f3d333996c85776a9f17a86",
        "0cb3596873c599497172641ecca1d773f510e9b83763e1b7eadbea01abca6fbf"),
    3: ("d19d602810f5940aca2e87b9ec9941be41567786d7772cd7ec748c00aa2ae75a",
        "9a6962d110b814fa4ce1c11b100a6b984f84db1827a06803a6409eb8f5c968ee"),
    4: ("916052ebf3f7dcb46a337b846d60754d182ebea4cbf428f11493d560aeb67f88",
        "7410aa97c5951c240ed9478ed307ccad7530173a24e3831de1ca689a53258616"),
    5: ("588061cc24f0492c00a9a3c692cf6b1f0f2c9f3a24b44695d79ab5b5576f3a95",
        "417a9c7a16d664408be953e2793e1cd35f51a795de6e124b9a0ff929e3d876be"),
    6: ("1b8f8db9b6357c5a61a0f0038d3527b921f55eef9d2131bcb6e8fce62499b133",
        "e39c7a2a0c4a9576a8e88bc8e8bbd45bb7d3a2d5d6e1278e90ab2ef8981f0da7"),
    7: ("e136b9a7d66546bbe33f82948c2fba04764cbcf112a146f80bca6f93bfcc6413",
        "9cfe8507c10979d077c45f4c946178718280fb3bd61a154f4c48f426f3c7d828"),
}

CYCLE_DENSE_DIGESTS = {
    0: ("f75942b1f5f8f7d6f1cfe14f32753f759cd0fa1fc7d705642e8c865c53d0ac83",
        "0f0f26582cf683b56291a1f24d4eb3e4f159051e94b01fb056485a4f27ec1a45"),
    1: ("844ea405806a49ff72e26858ef678b4cb6fb1e88eb0079b1a7623ebd99c97860",
        "01d058babe5dae82ea70a0c5000c61dc7de10fa9fd0ce5be3c40decebeb8ece3"),
    2: ("2ed61a2518ac98044a0f35b3f30b847444001b78c2cd93e2003ca680eba74f6f",
        "31209da9bb326ed9bea907aa8d512c9f90eba1921d3b211c7da6cee5044fc03e"),
    3: ("e57b30440232394afbcd18a905ab0c47d3dc05cd38ebd022b6a04a6c994b7314",
        "2ea5cb5fb27dbb7432377b98d5dbcfef7e0b244305686d6a8242ab38cba12802"),
    4: ("598d09b3c4ecc5b10d39efc3946fc85156d549b33fac47732cbdef53d292e549",
        "1adf824b742d59c535de4ce68d3f242658bd7dbd8b04f41a9ac78bbfbc980d50"),
    5: ("8cd48cff4fea260bd44e2b64d1c5a7b866ff494d5d25b718366f0064c838609d",
        "06633330629fc396953c0c9ff02424f5a09d0a8749114fbe19658407ca85d937"),
    6: ("bb392a40e2e2d24ddd7b62acc2e61a20c64a0de5ffaa1ea293e618b29131028b",
        "1e5acb582d5a53a264d9048889766c62aa6259a472a3e309f42114f739d3248c"),
    7: ("1c919ade111fcaeabf2e3a93dc89e9b1eabbb7234d8f03241c06bbcb80ad0014",
        "a9788e7db5b43d4ecbbd4447d03fe051d64cd9b48107078b947d0239ae00e52b"),
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
    0: "bfea8c9fca24a49f751ba7c63bdbe2eebaee4c184df23de8874dcaf861d95f5e",
    1: "2fe60ec2d17eec7fae0b1f6abfbda3c9294019081414b3365144eeba5af7d70b",
    2: "83d36d0321ec1209c152987a64eb77a54ece9c614f003453c9abaef2f9baef1d",
    3: "60d91f1fee19a25f49dc8ca3444affa0a9ca325b9e4d9075e87c445c59d3ecc9",
    4: "79c9276f4b7e0b6edfc112935b8b623c87795563c372fc53fb656ee3fa2ca639",
    5: "a3aaa72225d4bd6a990e2d0002f8785321c799a5bddb412542da907ae318324a",
    6: "2af0c9c0cad9e1996c6f0ab1c1f6d59d252d9bda63b2d24a6600bb6d3ac8cedc",
    7: "5f0f9b51274d068565de4bb17fd293c0748b0015b0e7b3118c6d5504e44312d4",
}

SOLVE_EXACT_DENSE_DIGESTS = {
    0: "3404af361522543334c0d323813ffbabe71af76d0694d5e478e8a0a3157792fc",
    1: "ea0efdb5526a3ef2ec1f44daadc9ae81ddf276a04ff074cc602529d2ee43e817",
    2: "cc6a23326e5632a7fde7813eb800ef67ee7943b1f72f5e4ca2af39f4c97e9e16",
    3: "020e86eaf16fe02b5ff3ab55dffd232bb613b1e9fd7b1d395e501dfc16fd7a76",
    4: "f520f56f923e6a99ede420d94d7c2584957d1f75226441d44887ece541260b82",
    5: "993c26a3c0cbb22a38a5af6031a3bd65fa77e6f26e11e5208be89042dc400973",
    6: "4e7cf03f716d73e5d9ed0271ec101cc8703f9d69525dc3a7c817bd7aea126f2a",
    7: "e49d9c2a8d2a61bf045f40400dc92f42f8be6f2c4a0682c62b50d00bb634a1a0",
    8: "f7db913aa455dfbe54da2b2f42a5b81cee43ae932dcd2ec9d211b3dd11083c8c",
    9: "6e7d76a992eb89dc4daf0c5bc73681335e48b7ab95e78c10c72d8459a457f514",
    10: "6b5becf4ca8ba7cde1b0f798224e1cccd4540c9968989d5cac844f68270ff27d",
    11: "8558c072ae6e3409e4aefbb4d2c1e03f59e92560695a204a9c7b718b711ab4d7",
    12: "dc10674fa9508be886e350be5aae4144fefa309a7be359de1889aafb15487f3d",
    13: "221992b22db5d5eca0c012e060fd198c4b2c90d2033e2399aaa37e802db1bd93",
    14: "59bc6624948b2d356a4b8b7558b6315941206d2cfc65423f2b116015605d619b",
    15: "78debe42cd476cdb7378b70c80ea93fa47694842fac11ca7bf44d90df8c7c92e",
}

OPTIMUM_DIGESTS = {
    0: "8c72021014c87687e4ba03b3c498e95c8529099cbd56cc52584d4f09a2d7a39c",
    1: "836170fd9194cb52dfc65f770933b4ab845db75459c7cfaef660f510479d54de",
    2: "c5420f04b7aaf115ab2cb7a32a0dd30c8a49fd9e5267713b39ad5f96fb6cba66",
    3: "a217431d5c8bce8cb07cba78d6fe53d0fcccccfa680df87eca78f37308e0053b",
    4: "e4b8d8a39ec22c128530b8195351a0b4b10091c6981dc4d54b8931b17215c90a",
    5: "5ddbabc65c4c3f985b4eb3de590fde15b90deea4cfcbddce87d4094ce5041138",
    6: "83fffdc5290eb1085e0d8a7cbf48cd26507a1afa745bbaa7a33a16cf14150ceb",
    7: "1cd1f540f45a787b97ee13f7ee92e358457b0b455350c53cab7a9edb39f4079f",
    8: "f649841511d4c3ef328e10f9b6d83f0c0b9d91679bc0ce7248db935876a5c7b9",
    9: "89f1a037455544085b7d1b7d264ed26a0d81d79fd4c4f87bdb0face9627ca922",
    10: "1953d46916b55a35c7f9bbee24901048db897875da412714d1f0062392283da6",
    11: "791c32b2b2eaea0c27dddfb5a5c700a40cbcc92c16c93534971f2fbd13cf7d03",
    12: "3fa3ba5a5cf206a50d5c72ef32c14b11bbda6292bacba2c33f91f360e8929d31",
    13: "4e0cdbc95d62806db364b9621d9ef3471f5e6e5aa2dc19d15622419d683d1dd3",
    14: "20aa35dbc0dfb1c1366b32f9befda035a14153194f590e5127d998cac2bb4285",
    15: "4126497da6ec53a953cbcad6849b7fed1e70574333b94ca7cbf61a3eb21ec40c",
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


def cycle_graph(seed: int, dense: bool = False) -> WeightedBipartiteGraph:
    """Disjoint union of 2-8 alternating cycles of 4, 6 or 8 edges, the
    cycle on k left and k right vertices joining u_i to v_i and to
    v_(i+1 mod k), and with ``dense`` one more block of side 3-6 with a
    hidden perfect matching and extra edges inside. Weights in {0, 1, 2},
    mostly 0, so that many cycles tie; vertex labels and edge order
    shuffled."""
    rng = random.Random(seed)
    cells = set()
    start = 0
    for k in [rng.choice((2, 3, 4)) for _ in range(rng.randint(2, 8))]:
        for i in range(k):
            cells |= {(start + i, start + i), (start + i, start + (i + 1) % k)}
        start += k
    if dense:
        k = rng.randint(3, 6)
        perm = list(range(k))
        rng.shuffle(perm)
        cells |= {(start + u, start + perm[u]) for u in range(k)}
        for _ in range(rng.randint(k, k * k // 2)):
            cells.add((start + rng.randrange(k), start + rng.randrange(k)))
        start += k
    left, right = list(range(start)), list(range(start))
    rng.shuffle(left)
    rng.shuffle(right)
    edges = [(left[u], right[v], rng.choice((0, 0, 0, 0, 0, 0, 1, 2)))
             for u, v in sorted(cells)]
    rng.shuffle(edges)
    return WeightedBipartiteGraph(start, start, edges)


def cycle_dense_graph(seed: int) -> WeightedBipartiteGraph:
    return cycle_graph(seed, dense=True)


def enumeration_digests(seed: int, make=tie_graph) -> tuple[str, str]:
    g = make(seed)
    every = islice(iter_perfect_matchings(g), LIMIT)
    optima = islice(iter_min_weight_perfect_matchings(g, solve_exact(g).prices), LIMIT)
    return (_digest(m.edge_indices for m in every),
            _digest(m.edge_indices for m in optima))


def complete_graph(seed: int, weigh) -> WeightedBipartiteGraph:
    """Complete square graph, 20-60 per side, weights drawn by ``weigh``
    and shuffled edge order."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    edges = [(u, v, weigh(rng)) for u in range(n) for v in range(n)]
    rng.shuffle(edges)
    return WeightedBipartiteGraph(n, n, edges)


def _solve_exact_results(graphs) -> str:
    results = []
    for g in graphs:
        r = solve_exact(g)
        results.append((r.matching.edge_indices, r.prices.left_num, r.prices.right_num,
                        r.prices.den, r.stats.phases, r.stats.iterations))
    return _digest(results)


def solve_exact_digest(seed: int) -> str:
    """Matching, prices and stats of ``solve_exact`` on the square graph of
    ``seed`` in each weight family, then on the doubled, half-doubled and
    padded graphs of an unbalanced graph."""
    graphs = [tie_graph(seed, weigh) for weigh in WEIGHT_FAMILIES]
    graphs += [reduce(unbalanced_graph(seed)).graph
               for reduce in (first_doubling, second_doubling, artificial_vertices)]
    return _solve_exact_results(graphs)


def solve_exact_dense_digest(seed: int) -> str:
    """Matching, prices and stats of ``solve_exact`` on the complete graph
    of ``seed`` with weights in {0, 1, 2}, in [-50, 50] and in
    [-2^40, 2^40]."""
    return _solve_exact_results(complete_graph(seed, weigh)
                                for weigh in (_tie_weight, *WEIGHT_FAMILIES[2:]))


SHAPES = ("tall", "wide", "square")


def optimum_graph(seed: int, shape: str, coverable: bool, weigh) -> WeightedBipartiteGraph:
    """Graph of the given shape with a smaller side of 5-40 vertices (the
    right side of a tall or square graph, the left side of a wide one)
    and the larger side 1-40 larger, or as large on a square graph.
    Coverable: a hidden matching covers the smaller side. Otherwise the
    first t >= 2 vertices of the smaller side are joined only to the first
    t - 1 of the larger side, so no matching covers it (a Hall violator).
    Weights drawn by ``weigh``; shuffled edge order."""
    rng = random.Random(seed)
    s = rng.randint(5, 40)
    n = s if shape == "square" else s + rng.randint(1, 40)
    if coverable:
        t = 0
        cells = set(zip(rng.sample(range(n), s), range(s)))
    else:
        t = rng.randint(2, s)
        cells = {(rng.randrange(t - 1), v) for v in range(t)}
    for _ in range(n * rng.randint(2, 4)):
        u, v = rng.randrange(n), rng.randrange(s)
        if v >= t or u < t - 1:
            cells.add((u, v))
    edges = [(u, v, weigh(rng)) for u, v in sorted(cells)]
    rng.shuffle(edges)
    if shape == "wide":
        return WeightedBipartiteGraph(s, n, [(v, u, w) for u, v, w in edges])
    return WeightedBipartiteGraph(n, s, edges)


def optimum_digest(seed: int) -> str:
    """``optimum_matching``'s edges on the coverable graphs and the Hall
    violators of seed ``seed`` in every shape, with weights in {0, 1, 2}
    and in [-2^40, 2^40]."""
    return _digest(optimum_matching(optimum_graph(seed, shape, coverable, weigh)).edge_indices
                   for weigh in (_tie_weight, WEIGHT_FAMILIES[3])
                   for coverable in (True, False) for shape in SHAPES)


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


@pytest.mark.parametrize("seed", sorted(CYCLE_DIGESTS))
def test_cycle_union_order_pinned(seed):
    assert enumeration_digests(seed, cycle_graph) == CYCLE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(CYCLE_DENSE_DIGESTS))
def test_cycle_union_with_dense_block_order_pinned(seed):
    assert enumeration_digests(seed, cycle_dense_graph) == CYCLE_DENSE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(HOPCROFT_KARP_DIGESTS))
def test_hopcroft_karp_matchings_pinned(seed):
    assert hopcroft_karp_digest(seed, _tall) == HOPCROFT_KARP_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(HOPCROFT_KARP_AS_GIVEN_DIGESTS))
def test_hopcroft_karp_matchings_as_given_pinned(seed):
    assert hopcroft_karp_digest(seed, _as_given) == HOPCROFT_KARP_AS_GIVEN_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SOLVE_EXACT_DIGESTS))
def test_solve_exact_pinned(seed):
    assert solve_exact_digest(seed) == SOLVE_EXACT_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SOLVE_EXACT_DENSE_DIGESTS))
def test_solve_exact_dense_pinned(seed):
    assert solve_exact_dense_digest(seed) == SOLVE_EXACT_DENSE_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(OPTIMUM_DIGESTS))
def test_optimum_pinned(seed):
    assert optimum_digest(seed) == OPTIMUM_DIGESTS[seed]


if __name__ == "__main__":
    print("ENUMERATION_DIGESTS = {")
    for seed in sorted(ENUMERATION_DIGESTS):
        every, optima = enumeration_digests(seed)
        print(f'    {seed}: ("{every}",\n        "{optima}"),')
    print("}\n\nBLOCK_DIGESTS = {")
    for seed in sorted(BLOCK_DIGESTS):
        every, optima = enumeration_digests(seed, block_tie_graph)
        print(f'    {seed}: ("{every}",\n        "{optima}"),')
    for name, digests, make in (("CYCLE_DIGESTS", CYCLE_DIGESTS, cycle_graph),
                                ("CYCLE_DENSE_DIGESTS", CYCLE_DENSE_DIGESTS,
                                 cycle_dense_graph)):
        print(f"}}\n\n{name} = {{")
        for seed in sorted(digests):
            every, optima = enumeration_digests(seed, make)
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
    print("}\n\nSOLVE_EXACT_DENSE_DIGESTS = {")
    for seed in sorted(SOLVE_EXACT_DENSE_DIGESTS):
        print(f'    {seed}: "{solve_exact_dense_digest(seed)}",')
    print("}\n\nOPTIMUM_DIGESTS = {")
    for seed in sorted(OPTIMUM_DIGESTS):
        print(f'    {seed}: "{optimum_digest(seed)}",')
    print("}")
