"""Bipartite instance model: graphs, matchings, and the text file format.

A weighted bipartite graph has a left side and a right side. Instances are
normalized so that the left side is never smaller than the right side; when
an input arrives the other way round the sides are swapped internally and
the swap is remembered, so every serialization speaks in the input's
original labels.

Instance file format (line oriented):

    c free-form comment
    p bip <n_left> <n_right> <n_edges>
    e <i> <j> <w>        # 1-based left index, 1-based right index, weight

A ``Matching`` is a set of vertex-disjoint edges; an ``EdgeSet`` is any
set of edges (the tight subgraph, the edges of some optimal matching, a
preference set). Both name edges by index into the parent graph.
Matchings serialize as JSON objects
``{"cardinality": int, "weight": int, "edges": [[i, j], ...]}`` and edge
sets as ``{"edges": [[i, j], ...]}``, with 1-based labels in the original
orientation, sorted.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ParseError

# Largest admissible |weight| of an input edge. Graphs derived from valid
# input (the doubling's link edges, say) may exceed it; every computation
# here is in Python ints, so nothing overflows.
MAX_ABS_WEIGHT = 2**40


def _check_weight(w) -> None:
    """Reject a weight that is not an integer or exceeds MAX_ABS_WEIGHT."""
    if not isinstance(w, int) or isinstance(w, bool):
        raise TypeError(f"edge weight must be an integer, got {w!r}")
    if abs(w) > MAX_ABS_WEIGHT:
        raise ValueError(f"|weight| {abs(w)} exceeds bound {MAX_ABS_WEIGHT}")


class WeightedBipartiteGraph:
    """Immutable bipartite graph with integer edge weights.

    Edges keep the order in which they were given; every algorithm in this
    package identifies an edge by its index into that order, so subgraphs
    and matchings computed downstream always refer back to the original
    edges. No two edges join the same pair of vertices.
    """

    __slots__ = ("_n_left", "_n_right", "_left_of", "_right_of", "_weight_of",
                 "_adj_left", "_max_abs_weight", "_sides_swapped")

    def __init__(self, n_left: int, n_right: int,
                 edges: Iterable[tuple[int, int, int]]):
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be non-negative")
        left: list[int] = []
        right: list[int] = []
        weight: list[int] = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in edges:
            if not (0 <= u < n_left):
                raise ValueError(f"left index {u} out of range [0, {n_left})")
            if not (0 <= v < n_right):
                raise ValueError(f"right index {v} out of range [0, {n_right})")
            _check_weight(w)
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            left.append(u)
            right.append(v)
            weight.append(w)
        del seen  # free the pair set before the columns are built
        self._build(n_left, n_right, left, right, weight)

    @classmethod
    def _trusted(cls, n_left: int, n_right: int, left: list[int],
                 right: list[int], weight: list[int]) -> "WeightedBipartiteGraph":
        """A graph from edge columns already known to be valid: parsed
        input, or edges derived from a valid graph. Edge e joins left
        vertex ``left[e]`` to right vertex ``right[e]`` at ``weight[e]``.
        Runs no checks, so the caller must also rule out parallel edges:
        Tarjan in ``allowed.py`` relies on there being none."""
        graph = cls.__new__(cls)
        graph._build(n_left, n_right, left, right, weight)
        return graph

    def _build(self, n_left: int, n_right: int, left: list[int],
               right: list[int], weight: list[int]) -> None:
        """Store the three edge columns (left endpoint, right endpoint and
        weight, indexed by edge), swapping the two endpoint columns when
        the right side is larger, and index the edges by left vertex.

        The matching, enumeration and solver loops read these columns
        directly.
        """
        swapped = n_left < n_right
        if swapped:
            n_left, n_right = n_right, n_left
            left, right = right, left
        adj_left: list[list[int]] = [[] for _ in range(n_left)]
        for e, u in enumerate(left):
            adj_left[u].append(e)

        self._n_left = n_left
        self._n_right = n_right
        self._left_of = tuple(left)
        self._right_of = tuple(right)
        self._weight_of = tuple(weight)
        self._adj_left = tuple(tuple(a) for a in adj_left)
        self._max_abs_weight = max(map(abs, weight), default=0)
        self._sides_swapped = swapped

    # -- basic shape -------------------------------------------------------

    @property
    def n_left(self) -> int:
        """Size of the (never smaller) left side."""
        return self._n_left

    @property
    def n_right(self) -> int:
        return self._n_right

    @property
    def edge_count(self) -> int:
        return len(self._left_of)

    @property
    def max_abs_weight(self) -> int:
        """Largest |weight| over all edges; 0 for edgeless graphs."""
        return self._max_abs_weight

    @property
    def sides_swapped(self) -> bool:
        """True when the input had a larger right side and was flipped."""
        return self._sides_swapped

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as (left, right, weight) triples, in input order: the
        public read-back of the three columns, zipped afresh on each access."""
        return tuple(zip(self._left_of, self._right_of, self._weight_of))

    def endpoints(self, e: int) -> tuple[int, int]:
        return self._left_of[e], self._right_of[e]

    def weight(self, e: int) -> int:
        return self._weight_of[e]

    def left_edges(self, u: int) -> tuple[int, ...]:
        """Edge indices incident to left vertex u, in input order."""
        return self._adj_left[u]

    def edge_index(self, u: int, v: int) -> int | None:
        """Index of the edge joining left u and right v, or None."""
        if not 0 <= u < self._n_left:
            return None
        for e in self._adj_left[u]:
            if self._right_of[e] == v:
                return e
        return None

    def _edge_subset(self, edge_indices: Iterable[int] | None) -> tuple[int, ...]:
        """The distinct indices of an edge subset in increasing order; all
        edges for None. Raises ValueError for an index outside the graph,
        so a negative index never wraps round to another edge."""
        if edge_indices is None:
            return tuple(range(len(self._left_of)))
        subset = tuple(sorted(set(edge_indices)))
        if subset and (subset[0] < 0 or subset[-1] >= len(self._left_of)):
            bad = subset[0] if subset[0] < 0 else subset[-1]
            raise ValueError(f"edge index {bad} out of range")
        return subset

    # -- original orientation ----------------------------------------------

    def original_edge_index(self, i: int, j: int) -> int | None:
        """Index of the edge with 1-based labels (i, j) in the input
        orientation, or None when no such edge exists."""
        if self._sides_swapped:
            i, j = j, i
        return self.edge_index(i - 1, j - 1)

    def original_pair(self, e: int) -> tuple[int, int]:
        """1-based (left, right) labels of edge e in the input orientation."""
        u, v = self._left_of[e], self._right_of[e]
        if self._sides_swapped:
            u, v = v, u
        return u + 1, v + 1

    def original_pairs(self, edge_indices: Iterable[int]) -> list[list[int]]:
        """Sorted 1-based [left, right] labels of the given edges in the
        input orientation: the edge list of every JSON payload."""
        left, right = self._left_of, self._right_of
        if self._sides_swapped:
            left, right = right, left
        return sorted([left[e] + 1, right[e] + 1] for e in edge_indices)

    def original_sizes(self) -> tuple[int, int]:
        """(left, right) side sizes in the input orientation."""
        if self._sides_swapped:
            return self._n_right, self._n_left
        return self._n_left, self._n_right

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedBipartiteGraph):
            return NotImplemented
        return (self._n_left == other._n_left
                and self._n_right == other._n_right
                and self._sides_swapped == other._sides_swapped
                and self._left_of == other._left_of
                and self._right_of == other._right_of
                and self._weight_of == other._weight_of)

    def __repr__(self) -> str:
        return (f"WeightedBipartiteGraph(n_left={self._n_left}, "
                f"n_right={self._n_right}, m={self.edge_count})")


class Matching:
    """A set of vertex-disjoint edges of a fixed parent graph."""

    __slots__ = ("_graph", "_edge_indices", "_mate_left")

    def __init__(self, graph: WeightedBipartiteGraph, edge_indices: Iterable[int]):
        mate_left: list[int | None] = [None] * graph.n_left
        mate_right: list[int | None] = [None] * graph.n_right
        indices = graph._edge_subset(edge_indices)
        left_of, right_of = graph._left_of, graph._right_of
        for e in indices:
            u, v = left_of[e], right_of[e]
            if mate_left[u] is not None:
                raise ValueError(f"left vertex u{u} appears in two matched edges")
            if mate_right[v] is not None:
                raise ValueError(f"right vertex v{v} appears in two matched edges")
            mate_left[u] = e
            mate_right[v] = e
        self._graph = graph
        self._edge_indices = indices
        self._mate_left = tuple(mate_left)

    @classmethod
    def _trusted(cls, graph: WeightedBipartiteGraph,
                 mate_left: list[int | None]) -> "Matching":
        """A matching from the matched edge at each left vertex (None where
        unmatched), already known to be vertex-disjoint edges of ``graph``.
        Runs no checks."""
        matching = cls.__new__(cls)
        matching._graph = graph
        matching._edge_indices = tuple(sorted(e for e in mate_left if e is not None))
        matching._mate_left = tuple(mate_left)
        return matching

    @property
    def graph(self) -> WeightedBipartiteGraph:
        return self._graph

    @property
    def edge_indices(self) -> tuple[int, ...]:
        return self._edge_indices

    @property
    def cardinality(self) -> int:
        return len(self._edge_indices)

    @property
    def is_perfect(self) -> bool:
        g = self._graph
        return self.cardinality == g.n_left == g.n_right

    def left_edge(self, u: int) -> int | None:
        """Matched edge index at left vertex u, or None if unmatched."""
        return self._mate_left[u]

    def weight(self) -> int:
        return sum(self._graph.weight(e) for e in self._edge_indices)

    def __contains__(self, e: int) -> bool:
        u, _v = self._graph.endpoints(e)
        return self._mate_left[u] == e

    def __iter__(self) -> Iterator[int]:
        return iter(self._edge_indices)

    def __len__(self) -> int:
        return len(self._edge_indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._graph is other._graph and self._edge_indices == other._edge_indices

    def __hash__(self) -> int:
        return hash((id(self._graph), self._edge_indices))

    def __repr__(self) -> str:
        return f"Matching(cardinality={self.cardinality}, edges={self._edge_indices})"

    def to_json(self) -> dict:
        return {
            "cardinality": self.cardinality,
            "weight": self.weight(),
            "edges": self._graph.original_pairs(self._edge_indices),
        }


class EdgeSet:
    """A set of edges of a fixed parent graph, kept as its distinct edge
    indices in increasing order. The tight subgraph, the edges in some
    perfect or optimal matching, and a preference set are edge sets."""

    __slots__ = ("_graph", "_edge_indices", "_members")

    def __init__(self, graph: WeightedBipartiteGraph, edge_indices: Iterable[int]):
        self._graph = graph
        self._edge_indices = graph._edge_subset(edge_indices)
        self._members = frozenset(self._edge_indices)

    @property
    def graph(self) -> WeightedBipartiteGraph:
        return self._graph

    @property
    def edge_indices(self) -> tuple[int, ...]:
        return self._edge_indices

    @property
    def edge_count(self) -> int:
        return len(self._edge_indices)

    def pairs(self) -> list[tuple[int, int]]:
        """The edges as internal (left, right) index pairs, in index order."""
        return [self._graph.endpoints(e) for e in self._edge_indices]

    def __contains__(self, e: int) -> bool:
        return e in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self._edge_indices)

    def __len__(self) -> int:
        return len(self._edge_indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self._graph is other._graph and self._edge_indices == other._edge_indices

    def __repr__(self) -> str:
        return f"EdgeSet({self._edge_indices})"

    def to_json(self) -> dict:
        return {"edges": self._graph.original_pairs(self._edge_indices)}


def matching_from_json(graph: WeightedBipartiteGraph, data: dict) -> Matching:
    """Rebuild a matching from its JSON form (1-based original labels)."""
    pairs = data.get("edges") if isinstance(data, dict) else None
    if not isinstance(pairs, (list, tuple)):
        raise ParseError("matching JSON must contain an 'edges' list")
    at_left: dict[int, int] = {}  # label -> the one edge naming it
    at_right: dict[int, int] = {}
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(label) is int for label in pair)):
            raise ParseError(f"bad matching edge entry {pair!r}")
        i, j = pair
        e = graph.original_edge_index(i, j)
        if e is None:
            raise ParseError(f"matching references unknown edge ({i}, {j})")
        if at_left.setdefault(i, e) != e or at_right.setdefault(j, e) != e:
            raise ParseError(f"matching edge ({i}, {j}) shares a vertex with another edge")
    return Matching(graph, at_left.values())


# -- instance file format ----------------------------------------------------

def parse_instance(text: str) -> WeightedBipartiteGraph:
    """Parse the line-oriented instance format into a graph.

    Raises ParseError (with the offending line number) for a malformed
    header or edge line, out-of-range indices, duplicate edges, or weights
    beyond the admissible bound.
    """
    n = s = m = None
    left: list[int] = []
    right: list[int] = []
    weight: list[int] = []
    seen: set[tuple[int, int]] = set()

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        fields = stripped.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 5 or fields[1] != "bip":
                raise ParseError(f"malformed header {stripped!r}", lineno)
            try:
                n, s, m = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError(f"non-integer header field in {stripped!r}", lineno)
            if n < 0 or s < 0 or m < 0:
                raise ParseError("header counts must be non-negative", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before header", lineno)
            if len(fields) != 4:
                raise ParseError(f"malformed edge line {stripped!r}", lineno)
            try:
                i, j, w = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer edge field in {stripped!r}", lineno)
            if not (1 <= i <= n):
                raise ParseError(f"left index {i} outside [1, {n}]", lineno)
            if not (1 <= j <= s):
                raise ParseError(f"right index {j} outside [1, {s}]", lineno)
            if abs(w) > MAX_ABS_WEIGHT:
                raise ParseError(f"|weight| {abs(w)} exceeds bound {MAX_ABS_WEIGHT}", lineno)
            if (i, j) in seen:
                raise ParseError(f"duplicate edge ({i}, {j})", lineno)
            seen.add((i, j))
            left.append(i - 1)
            right.append(j - 1)
            weight.append(w)
        else:
            raise ParseError(f"unrecognized line {stripped!r}", lineno)

    if n is None:
        raise ParseError("missing header line 'p bip <n> <s> <m>'")
    if len(left) != m:
        raise ParseError(f"header announced {m} edges but file contains {len(left)}")
    # The pair set is the largest object here; free it before the graph's
    # columns are built, so the two never take memory at the same time.
    del seen
    return WeightedBipartiteGraph._trusted(n, s, left, right, weight)


def serialize_instance(graph: WeightedBipartiteGraph) -> str:
    """Render a graph back into the instance file format.

    Output is in the original orientation and edge order, so parsing the
    result reproduces an identical graph.
    """
    if graph.sides_swapped:
        n, s = graph.n_right, graph.n_left
    else:
        n, s = graph.n_left, graph.n_right
    lines = [f"p bip {n} {s} {graph.edge_count}"]
    for e in range(graph.edge_count):
        i, j = graph.original_pair(e)
        lines.append(f"e {i} {j} {graph.weight(e)}")
    return "\n".join(lines) + "\n"
