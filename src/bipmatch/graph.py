"""Bipartite instance model: graphs, matchings, and the text file format.

A weighted bipartite graph has a left side and a right side, kept as the
input gives them, so either may be the larger one. Vertex u of a side is
input label u + 1 in every serialization.

Instance file format (line oriented):

    c free-form comment
    p bip <n_left> <n_right> <n_edges>
    e <i> <j> <w>        # 1-based left index, 1-based right index, weight

``parse_instance`` reads a canonical file (the header first, then only
edge lines) by a strided pass over blocks of whole lines, run on its ASCII
bytes, and any other file, comments, blank lines or CRLF included, by the
line-by-line pass, which defines the format and words every error. Both
give the same graph. A side may have more vertices than the header's edge
count only up to ``SIDE_BOUND``; a larger one is an error on the header
line.

A graph makes one layout decision, on the first read of its edges by left
vertex. Its edges are grouped when its left column is non-decreasing, as in
a file written left vertex by left vertex; each left vertex's edges are
then one ``range`` of edge indices, and its per-row passes (the left
adjacency, the row minima, the parser's duplicate check) take one slice of
a column per row. Any other graph keeps a tuple of edge indices per row.

An ``EdgeSet`` is a set of edges of a parent graph, named by edge index:
the tight subgraph, the edges of some optimal matching, a preference set.
A ``Matching`` is an ``EdgeSet`` whose edges are vertex-disjoint; it also
knows the matched edge at each left vertex. Edge sets serialize as JSON
objects ``{"edges": [[i, j], ...]}`` with 1-based labels, sorted, and
matchings add ``"cardinality"`` and ``"weight"``.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from operator import add, mul
from typing import Iterable, Iterator

from .errors import ParseError

# Largest admissible |weight| of an input edge. Graphs derived from valid
# input (the doubling's link edges, say) may exceed it; every computation
# here is in Python ints, so nothing overflows.
MAX_ABS_WEIGHT = 2**40

# A side may have more vertices than the graph has edges only up to this
# many. Vertices beyond the edge count are isolated, and the bound keeps a
# header alone from making a run allocate per-vertex tables of any size.
SIDE_BOUND = 2**16


def _check_int(x, what: str) -> None:
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {x!r}")


def _check_weight(w) -> None:
    """Reject a weight that is not an integer or exceeds MAX_ABS_WEIGHT."""
    _check_int(w, "edge weight")
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
                 "_starts", "_adj", "_max_abs")

    def __init__(self, n_left: int, n_right: int,
                 edges: Iterable[tuple[int, int, int]]):
        _check_int(n_left, "side size")
        _check_int(n_right, "side size")
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be non-negative")
        left: list[int] = []
        right: list[int] = []
        weight: list[int] = []
        seen: set[tuple[int, int]] = set()
        for u, v, w in edges:
            _check_int(u, "left index")
            _check_int(v, "right index")
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
        if max(n_left, n_right) > max(len(left), SIDE_BOUND):
            raise ValueError(f"a side of {max(n_left, n_right)} vertices exceeds both "
                             f"the edge count {len(left)} and {SIDE_BOUND}")
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
        weight, indexed by edge). The matching, enumeration and solver
        loops read these columns directly.

        The layout, the edges by left vertex and the largest |weight| are
        built on their first read, so a graph that is only transposed or
        printed, such as a tall input of ``optimum``, never builds them.
        """
        self._n_left = n_left
        self._n_right = n_right
        self._left_of = tuple(left)
        self._right_of = tuple(right)
        self._weight_of = tuple(weight)
        self._starts = self._adj = self._max_abs = None

    @property
    def _row_starts(self) -> list[int]:
        """The layout decision (see the module docstring): for a grouped
        graph, the first edge of each left vertex followed by the edge
        count, so that left vertex u has edges ``starts[u]`` up to
        ``starts[u + 1]``; empty for any other graph.

        The order check compares chunks of the left column, each twice as
        long as the last and overlapping it by one edge, with their sorted
        copies: ``sorted`` passes a sorted chunk in one C loop, and the
        check stops at the first chunk with a descent, so an ungrouped
        column costs about twice the length of its sorted prefix. A
        grouped one then costs one bisection per left vertex.
        """
        if self._starts is None:
            left = self._left_of
            grouped, a, k = True, 0, 16
            while grouped and a + 1 < len(left):
                chunk = list(left[a:a + k + 1])
                grouped = chunk == sorted(chunk)
                a, k = a + k, 2 * k
            self._starts = (list(map(bisect_left, repeat(left), range(self._n_left + 1)))
                            if grouped else [])
        return self._starts

    @property
    def _adj_left(self) -> tuple[range, ...] | tuple[tuple[int, ...], ...]:
        """The edge indices at each left vertex, in input order: a range
        per left vertex on a grouped graph, built in O(n), and a tuple
        per left vertex, one append per edge, on any other."""
        if self._adj is None:
            starts = self._row_starts
            if starts:
                self._adj = tuple(map(range, starts, islice(starts, 1, None)))
            else:
                adj_left: list[list[int]] = [[] for _ in range(self._n_left)]
                for e, u in enumerate(self._left_of):
                    adj_left[u].append(e)
                self._adj = tuple(map(tuple, adj_left))
        return self._adj

    def _row_minima(self) -> list[int | None]:
        """The least weight at each left vertex, None at one without
        edges: one ``min`` per slice of the weight column on a grouped
        graph."""
        wt = self._weight_of
        starts = self._row_starts
        if starts:
            return [min(wt[a:b], default=None) for a, b in zip(starts, islice(starts, 1, None))]
        return [min(map(wt.__getitem__, row), default=None) for row in self._adj_left]

    # -- basic shape -------------------------------------------------------

    @property
    def n_left(self) -> int:
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
        if self._max_abs is None:
            self._max_abs = max(map(abs, self._weight_of), default=0)
        return self._max_abs

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
        return tuple(self._adj_left[u])

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
        edges for None. Raises TypeError for an index that is not an int
        (a bool or None included) and ValueError for one outside the graph,
        so a negative index never wraps round to another edge.

        Every input is sorted: on an increasing one, sorting costs about
        what a pass checking its order would.
        """
        if edge_indices is None:
            return tuple(range(len(self._left_of)))
        subset = tuple(edge_indices)
        if not set(map(type, subset)) <= {int}:
            for e in subset:
                _check_int(e, "edge index")
        subset = tuple(sorted(set(subset)))
        if subset and (subset[0] < 0 or subset[-1] >= len(self._left_of)):
            bad = subset[0] if subset[0] < 0 else subset[-1]
            raise ValueError(f"edge index {bad} out of range")
        return subset

    # -- 1-based input labels ----------------------------------------------

    def original_edge_index(self, i: int, j: int) -> int | None:
        """Index of the edge with 1-based labels (i, j), or None when no
        such edge exists."""
        return self.edge_index(i - 1, j - 1)

    def original_pair(self, e: int) -> tuple[int, int]:
        """1-based (left, right) labels of edge e."""
        return self._left_of[e] + 1, self._right_of[e] + 1

    def original_pairs(self, edge_indices: Iterable[int]) -> list[list[int]]:
        """Sorted 1-based [left, right] labels of the given edges: the edge
        list of every JSON payload."""
        left, right = self._left_of, self._right_of
        return sorted([left[e] + 1, right[e] + 1] for e in edge_indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedBipartiteGraph):
            return NotImplemented
        return (self._n_left == other._n_left
                and self._n_right == other._n_right
                and self._left_of == other._left_of
                and self._right_of == other._right_of
                and self._weight_of == other._weight_of)

    def __repr__(self) -> str:
        return (f"WeightedBipartiteGraph(n_left={self._n_left}, "
                f"n_right={self._n_right}, m={self.edge_count})")


class EdgeSet:
    """A set of edges of a fixed parent graph, kept as its distinct edge
    indices in increasing order. The tight subgraph, the edges in some
    perfect or optimal matching, a preference set and a matching are edge
    sets. Every read of the indices goes through ``edge_indices``."""

    __slots__ = ("_graph", "_edge_indices")

    def __init__(self, graph: WeightedBipartiteGraph, edge_indices: Iterable[int]):
        self._graph = graph
        self._edge_indices = graph._edge_subset(edge_indices)

    @property
    def graph(self) -> WeightedBipartiteGraph:
        return self._graph

    @property
    def edge_indices(self) -> tuple[int, ...]:
        return self._edge_indices

    @property
    def edge_count(self) -> int:
        return len(self.edge_indices)

    def pairs(self) -> list[tuple[int, int]]:
        """The edges as 0-based (left, right) input pairs, in index order."""
        return [self._graph.endpoints(e) for e in self.edge_indices]

    def __contains__(self, e: int) -> bool:
        indices = self.edge_indices
        k = bisect_left(indices, e)
        return k < len(indices) and indices[k] == e

    def __iter__(self) -> Iterator[int]:
        return iter(self.edge_indices)

    def __len__(self) -> int:
        return len(self.edge_indices)

    def __eq__(self, other) -> bool:
        # Equal edges of one graph, and the same type: a matching never
        # equals a plain edge set.
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return (type(self) is type(other) and self._graph is other._graph
                and self.edge_indices == other.edge_indices)

    def __repr__(self) -> str:
        return f"EdgeSet({self.edge_indices})"

    def to_json(self) -> dict:
        return {"edges": self._graph.original_pairs(self.edge_indices)}


class Matching(EdgeSet):
    """An edge set whose edges are vertex-disjoint."""

    __slots__ = ("_mate_left",)

    def __init__(self, graph: WeightedBipartiteGraph, edge_indices: Iterable[int]):
        super().__init__(graph, edge_indices)
        mate_left: list[int | None] = [None] * graph.n_left
        right_taken = [False] * graph.n_right
        left_of, right_of = graph._left_of, graph._right_of
        for e in self.edge_indices:
            u, v = left_of[e], right_of[e]
            if mate_left[u] is not None or right_taken[v]:
                raise ValueError(f"matching edge {graph.original_pair(e)} shares a vertex "
                                 "with another edge; no vertex may lie on two matched edges")
            mate_left[u] = e
            right_taken[v] = True
        self._mate_left = tuple(mate_left)

    @classmethod
    def _trusted(cls, graph: WeightedBipartiteGraph,
                 mate_left: list[int | None]) -> "Matching":
        """A matching from the matched edge at each left vertex (None where
        unmatched), already known to be vertex-disjoint edges of ``graph``.
        Runs no checks, and copies ``mate_left``, so the caller may reuse
        it. The sorted edge list is built on its first read, so a matching
        that is only printed by left vertex never sorts its edges."""
        matching = cls.__new__(cls)
        matching._graph = graph
        matching._edge_indices = None
        matching._mate_left = tuple(mate_left)
        return matching

    @property
    def edge_indices(self) -> tuple[int, ...]:
        """The matched edges in increasing order; for a matching from
        ``_trusted``, sorted from the mate list on the first read."""
        indices = self._edge_indices
        if indices is None:
            indices = self._edge_indices = tuple(sorted([e for e in self._mate_left
                                                         if e is not None]))
        return indices

    @property
    def cardinality(self) -> int:
        return len(self.edge_indices)

    @property
    def is_perfect(self) -> bool:
        g = self._graph
        return self.cardinality == g.n_left == g.n_right

    def left_edge(self, u: int) -> int | None:
        """Matched edge index at left vertex u, or None if unmatched."""
        return self._mate_left[u]

    def weight(self) -> int:
        return sum(self._graph.weight(e) for e in self.edge_indices)

    def __hash__(self) -> int:
        return hash((id(self._graph), self.edge_indices))

    def __repr__(self) -> str:
        return f"Matching(cardinality={self.cardinality}, edges={self.edge_indices})"

    def to_json(self) -> dict:
        return {"cardinality": self.cardinality, "weight": self.weight(),
                **super().to_json()}


def matching_from_json(graph: WeightedBipartiteGraph, data: dict) -> Matching:
    """Rebuild a matching from its JSON form (1-based labels)."""
    pairs = data.get("edges") if isinstance(data, dict) else None
    if not isinstance(pairs, (list, tuple)):
        raise ParseError("matching JSON must contain an 'edges' list")
    indices: set[int] = set()
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(label) is int for label in pair)):
            raise ParseError(f"bad matching edge entry {pair!r}")
        i, j = pair
        e = graph.original_edge_index(i, j)
        if e is None:
            raise ParseError(f"matching references unknown edge ({i}, {j})")
        if e in indices:
            raise ParseError(f"matching lists edge ({i}, {j}) twice")
        indices.add(e)
    try:
        return Matching(graph, indices)
    except ValueError as exc:  # two edges share a vertex
        raise ParseError(str(exc))


# -- instance file format ----------------------------------------------------

def parse_instance(text: str) -> WeightedBipartiteGraph:
    """Parse the line-oriented instance format into a graph.

    Raises ParseError (with the offending line number) for a malformed
    header or edge line, out-of-range indices, duplicate edges, or weights
    beyond the admissible bound.

    A canonical text is read by the strided ``_parse_canonical``, on its
    ASCII bytes; any other text, and every invalid one, by the line pass
    ``_parse_lines``, which defines the format and words every error. Both
    give the same graph.
    """
    graph = _parse_canonical(text.encode("ascii")) if text.isascii() else None
    return graph if graph is not None else _parse_lines(text)


# Line breaks of ``str.splitlines`` other than "\n" that are ASCII; the
# others are not, so no canonical text holds them. A text holding none of
# these has exactly the lines that "\n" separates.
_OTHER_LINE_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"

# Bytes of text tokenised at a time: the tokens of one block are alive at
# once, those of the whole text never are.
_BLOCK_CHARS = 1 << 16


def _parse_canonical(data: bytes) -> WeightedBipartiteGraph | None:
    """The graph of a canonical instance file, or None for any other.

    Canonical means: the header is the first line, every later line is
    ``e <i> <j> <w>`` starting at its first byte, with both labels written
    as plain decimals, the file ends with "\n" and holds no other line
    break, no side has more vertices than there are edges, and the edges
    are valid. Every byte of such a file is ASCII: a space, a line end or
    part of a token that converts, so its text has the graph
    ``_parse_lines`` gives it. The lines are checked by counts over blocks
    of whole lines and the edges column by column, so no Python code runs
    per line.
    """
    if not data.endswith(b"\n") or any(map(data.__contains__, _OTHER_LINE_BREAKS)):
        return None
    start = data.index(b"\n") + 1
    header = data[:start].split()
    if len(header) != 5 or header[0] != b"p" or header[1] != b"bip":
        return None
    try:
        n, s, m = map(int, header[2:])
    except ValueError:
        return None
    # An edge line takes at least 8 bytes, so the label tables below are
    # never larger than the file.
    if min(n, s) < 0 or max(n, s) > m or 8 * m > len(data):
        return None
    # Label bytes -> 0-based index: the conversion and the range check of a
    # label in one lookup. An out-of-range label or any other spelling
    # ("+1", "01") is a KeyError.
    left_index = dict(zip(map(b"%d".__mod__, range(1, n + 1)), range(n)))
    right_index = left_index if s == n else dict(zip(map(b"%d".__mod__, range(1, s + 1)),
                                                     range(s)))
    left: list[int] = []
    right: list[int] = []
    weight: list[int] = []
    try:
        while start < len(data):
            end = data.find(b"\n", start + _BLOCK_CHARS) + 1 or len(data)
            block = data[start:end]
            start = end
            # Every line starts with the token "e" and every 4th token is
            # one. No other token is, as the rest convert to integers: so
            # every line has exactly the four tokens of an edge line.
            lines = block.count(b"\n")
            tokens = block.split()
            if (len(tokens) != 4 * lines or not block.startswith(b"e ")
                    or block.count(b"\ne ") != lines - 1
                    or tokens[::4].count(b"e") != lines):
                return None
            left.extend(map(left_index.__getitem__, tokens[1::4]))
            right.extend(map(right_index.__getitem__, tokens[2::4]))
            weight.extend(map(int, tokens[3::4]))
    except (KeyError, ValueError):
        return None
    if len(left) != m or (weight and not (-MAX_ABS_WEIGHT <= min(weight)
                                          and max(weight) <= MAX_ABS_WEIGHT)):
        return None
    graph = WeightedBipartiteGraph._trusted(n, s, left, right, weight)
    del left, right, weight  # the graph holds its own columns
    # No pair of vertices twice: on a grouped graph, no right vertex twice
    # in a row; on any other, no key u*s + v, one integer per vertex pair,
    # twice.
    starts = graph._row_starts
    right_of = graph._right_of
    if starts:
        distinct = sum(len(set(right_of[a:b])) for a, b in zip(starts, islice(starts, 1, None)))
    else:
        distinct = len(set(map(add, map(mul, graph._left_of, repeat(s)), right_of)))
    return graph if distinct == m else None


def _parse_lines(text: str) -> WeightedBipartiteGraph:
    """Parse an instance text line by line: the definition of the format,
    and the one place that words a ParseError."""
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
            if max(n, s) > max(m, SIDE_BOUND):
                raise ParseError(f"a side of {max(n, s)} vertices exceeds both the "
                                 f"header's edge count {m} and {SIDE_BOUND}", lineno)
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

    Output keeps the edge order, so parsing the result reproduces an
    identical graph.
    """
    lines = [f"p bip {graph.n_left} {graph.n_right} {graph.edge_count}"]
    for e in range(graph.edge_count):
        i, j = graph.original_pair(e)
        lines.append(f"e {i} {j} {graph.weight(e)}")
    return "\n".join(lines) + "\n"
