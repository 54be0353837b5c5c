"""Differential test of the instance parser: ``parse_instance``, which
reads canonical texts by the strided ``_parse_canonical`` and everything
else by the line pass, agrees with the line pass ``_parse_lines`` on every
text: the same graph, or a ParseError with the same message and line.

Texts start canonical and then take a few mutations: comments, blank and
whitespace-only lines, leading and trailing whitespace, CRLF and every
other ``str.splitlines`` break, tabs and NBSP between fields, a header
moved or repeated, integers spelled with "+", "_", leading zeros or
non-ASCII digits, integers over 4300 digits, 3- and 5-field edge lines,
"e" glued to its number, a line break moved to another field gap, a
missing final newline, headers with sides or edge counts of 2^16 + 1 and
2^40, and range, duplicate and weight-bound errors. A text over two blocks
long takes the same mutations near its start, its end and its block
boundaries.

Grouped texts, with their edge lines sorted by (i, j) as a file written
left vertex by left vertex has them, take the same mutations, and also an
edge repeated inside its row or a row moved out of order.

The constructor and the parser also accept and reject the same edge
lists, and give equal graphs where both accept.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bipmatch import (MAX_ABS_WEIGHT, ParseError, WeightedBipartiteGraph,  # noqa: E402
                      parse_instance, serialize_instance)
from bipmatch.graph import (SIDE_BOUND, _BLOCK_CHARS, _parse_canonical,  # noqa: E402
                            _parse_lines)

LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
SPACES = [" ", "  ", "\t", "\xa0", "\x1f", "\u3000", ""] + LINE_BREAKS
INSERTED_LINES = ["c comment", "", "   ", "\t", "p bip 1 1 0", "p bip 9 9 9",
                  "q 1 2", "e", "e 1 1 0"]
ARABIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def _token_variants(token: str, header: bool) -> list[str]:
    variants = ["+" + token, token[0] + "_" + token[1:], "0" + token,
                token.translate(ARABIC_DIGITS), "1" * 4301, "0", "-1", "101",
                "x", "e", "1.0", str(MAX_ABS_WEIGHT)]
    if header:  # a side just over SIDE_BOUND
        return variants + [str(SIDE_BOUND + 1)]
    return variants + [str(MAX_ABS_WEIGHT + 1), str(-MAX_ABS_WEIGHT - 1)]


def outcome(parse, text):
    """The graph, or the ParseError as (message, line)."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


def canonical_rows(n: int, s: int, edges) -> list[str]:
    """Header and edge lines, without line ends; edges are 1-based."""
    return [f"p bip {n} {s} {len(edges)}"] + [f"e {i} {j} {w}" for i, j, w in edges]


def mutate(draw, rows: list[str], ends: list[str], near: list[int]) -> None:
    """Apply one mutation in place, at a row drawn from ``near``."""
    k = min(draw(st.sampled_from(near)), len(rows) - 1)
    kind = draw(st.sampled_from(["space", "lead", "trail", "end", "insert", "token",
                                 "drop", "extra", "glue", "swap", "copy", "last",
                                 "rebreak"]))
    row = rows[k]
    if kind == "space" and " " in row:
        at = draw(st.sampled_from([i for i, ch in enumerate(row) if ch == " "]))
        rows[k] = row[:at] + draw(st.sampled_from(SPACES)) + row[at + 1:]
    elif kind == "lead":
        rows[k] = draw(st.sampled_from(SPACES)) + row
    elif kind == "trail":
        rows[k] = row + draw(st.sampled_from(SPACES))
    elif kind == "end":
        ends[k] = draw(st.sampled_from(LINE_BREAKS + [""]))
    elif kind == "insert":
        rows.insert(k, draw(st.sampled_from(INSERTED_LINES)))
        ends.insert(k, "\n")
    elif kind == "token" and row:
        tokens = row.split(" ")
        t = draw(st.integers(0, len(tokens) - 1))
        if tokens[t]:
            variants = _token_variants(tokens[t], row.split()[:1] == ["p"])
            tokens[t] = draw(st.sampled_from(variants))
        rows[k] = " ".join(tokens)
    elif kind == "drop" and " " in row:
        rows[k] = row[:row.rindex(" ")]
    elif kind == "extra":
        rows[k] = row + " 7"
    elif kind == "glue":
        rows[k] = row.replace(" ", "", 1)
    elif kind == "swap":
        rows[0], rows[k] = rows[k], rows[0]
    elif kind == "copy":
        rows[k] = rows[draw(st.integers(0, len(rows) - 1))]
    elif kind == "last":
        ends[-1] = ""
    elif kind == "rebreak" and k + 1 < len(rows):
        # Move the break between two rows to another space of the pair.
        joined = rows[k] + " " + rows[k + 1]
        at = draw(st.sampled_from([i for i, ch in enumerate(joined) if ch == " "]))
        rows[k:k + 2] = [joined[:at], joined[at + 1:]]


@st.composite
def small_texts(draw):
    n = draw(st.integers(0, 4))
    s = draw(st.integers(0, 4))
    cells = draw(st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(s, 1))),
                          unique=True, min_size=min(max(n, s), n * s), max_size=n * s + 1))
    weight = st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)
    rows = canonical_rows(n, s, [(i, j, draw(weight)) for i, j in cells])
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, rows, ends, list(range(len(rows))))
    return "".join(row + end for row, end in zip(rows, ends))


def mutate_grouped(draw, rows: list[str]) -> None:
    """One mutation of a grouped text: an edge line repeated, with another
    weight, inside its row, or a row (the edge lines of one left label)
    moved to the front of the edges, out of order."""
    edges = [k for k, row in enumerate(rows) if row.startswith("e ")]
    if not edges:
        return
    k = draw(st.sampled_from(edges))
    label = rows[k].split()[1]
    if draw(st.booleans()):
        rows.insert(k + draw(st.integers(0, 1)), rows[k].rsplit(" ", 1)[0] + " 9")
    else:
        row = [r for r in rows if r.startswith(f"e {label} ")]
        rest = [r for r in rows if not r.startswith(f"e {label} ")]
        rows[:] = rest[:1] + row + rest[1:]


@st.composite
def grouped_texts(draw):
    """Canonical texts whose cells are sorted by (i, j), so their left
    column is grouped, after the mutations of ``small_texts`` and of
    ``mutate_grouped``."""
    n = draw(st.integers(0, 6))
    s = draw(st.integers(0, 6))
    cells = sorted(draw(st.lists(st.tuples(st.integers(1, max(n, 1)), st.integers(1, max(s, 1))),
                                 unique=True, min_size=min(max(n, s), n * s),
                                 max_size=n * s + 1)))
    weight = st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)
    rows = canonical_rows(n, s, [(i, j, draw(weight)) for i, j in cells])
    for _ in range(draw(st.integers(0, 2))):
        mutate_grouped(draw, rows)
    ends = ["\n"] * len(rows)
    for _ in range(draw(st.integers(0, 2))):
        mutate(draw, rows, ends, list(range(len(rows))))
    return "".join(row + end for row, end in zip(rows, ends))


@settings(max_examples=1000, deadline=None)
@given(grouped_texts())
def test_grouped_texts_agree_with_line_pass(text):
    assert outcome(parse_instance, text) == outcome(_parse_lines, text)


def _long_rows() -> list[str]:
    rng = random.Random(8)
    n = 100
    return canonical_rows(n, n, [(i, j, rng.randint(-10**6, 10**6))
                                 for i in range(1, n + 1) for j in range(1, n + 1)])


LONG_ROWS = _long_rows()
LONG_TEXT = "".join(row + "\n" for row in LONG_ROWS)


def _near_block_ends() -> list[int]:
    """Rows at the start, at the end, and on both sides of each block
    boundary that ``_parse_canonical`` cuts in the unmutated text."""
    row_at = {}
    at = 0
    for k, row in enumerate(LONG_ROWS):
        row_at[at] = k
        at += len(row) + 1
    near = [0, 1, 2, len(LONG_ROWS) - 2, len(LONG_ROWS) - 1]
    start = len(LONG_ROWS[0]) + 1
    while start < len(LONG_TEXT):
        start = LONG_TEXT.find("\n", start + _BLOCK_CHARS) + 1 or len(LONG_TEXT)
        if start in row_at:
            near += [row_at[start] - 1, row_at[start]]
    return near


NEAR = _near_block_ends()


@st.composite
def long_texts(draw):
    rows, ends = list(LONG_ROWS), ["\n"] * len(LONG_ROWS)
    for _ in range(draw(st.integers(1, 2))):
        mutate(draw, rows, ends, NEAR)
    return "".join(row + end for row, end in zip(rows, ends))


@settings(max_examples=1000, deadline=None)
@given(small_texts())
def test_small_texts_agree_with_line_pass(text):
    assert outcome(parse_instance, text) == outcome(_parse_lines, text)


@settings(max_examples=100, deadline=None)
@given(long_texts())
def test_long_texts_agree_with_line_pass(text):
    assert outcome(parse_instance, text) == outcome(_parse_lines, text)


def test_long_text_crosses_blocks_on_the_strided_path():
    assert len(LONG_TEXT) > 2 * _BLOCK_CHARS
    assert _parse_canonical(LONG_TEXT.encode()) == _parse_lines(LONG_TEXT)
    assert _parse_canonical(LONG_TEXT.encode()) is not None


@st.composite
def edge_lists(draw):
    """Sides and 0-based edges, valid or with one fault: either side
    larger, a side negative or past SIDE_BOUND, a label out of range, a
    repeated pair, or a weight past MAX_ABS_WEIGHT."""
    side = st.integers(-1, 4) | st.sampled_from([SIDE_BOUND, SIDE_BOUND + 1])
    n, s = draw(side), draw(side)
    cell = st.tuples(st.integers(0, max(min(n, 5) - 1, 0)),
                     st.integers(0, max(min(s, 5) - 1, 0)))
    weight = st.integers(-3, 3) | st.sampled_from([MAX_ABS_WEIGHT, -MAX_ABS_WEIGHT])
    edges = [(u, v, draw(weight)) for u, v in draw(st.lists(cell, max_size=8, unique=True))]
    fault = draw(st.sampled_from(["none", "left", "right", "duplicate", "weight"]))
    if edges and fault != "none":
        k = draw(st.integers(0, len(edges) - 1))
        u, v, w = edges[k]
        if fault == "left":
            edges[k] = (draw(st.sampled_from([-1, n, n + 1])), v, w)
        elif fault == "right":
            edges[k] = (u, draw(st.sampled_from([-1, s, s + 1])), w)
        elif fault == "duplicate":
            edges.insert(draw(st.integers(0, len(edges))), (u, v, 1 - w))
        else:
            edges[k] = (u, v, draw(st.sampled_from([MAX_ABS_WEIGHT + 1, -MAX_ABS_WEIGHT - 1])))
    return n, s, edges


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_constructor_and_parser_accept_the_same_edges(case):
    n, s, edges = case
    text = canonical_rows(n, s, [(u + 1, v + 1, w) for u, v, w in edges])
    try:
        built = WeightedBipartiteGraph(n, s, edges)
    except ValueError:
        built = None
    try:
        parsed = parse_instance("\n".join(text) + "\n")
    except ParseError:
        parsed = None
    assert built == parsed


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5)) | st.just((0, 0)), st.data())
def test_serialized_graphs_take_the_strided_path(sides, data):
    # At least max(n, s) edges: the empty graph, or both sides positive.
    n, s = sides
    cells = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, s - 1)),
                               unique=True, min_size=max(n, s), max_size=n * s)
                      if n else st.just([]))
    weight = st.integers(-MAX_ABS_WEIGHT, MAX_ABS_WEIGHT)
    graph = WeightedBipartiteGraph(n, s, [(u, v, data.draw(weight)) for u, v in cells])
    text = serialize_instance(graph)
    assert _parse_canonical(text.encode()) == graph == _parse_lines(text)
