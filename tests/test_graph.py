"""Instance model, parsing, serialization, matchings."""

import json
import random
import time
import tracemalloc

import pytest

from bipmatch import (MAX_ABS_WEIGHT, EdgeSet, Matching, ParseError,
                      WeightedBipartiteGraph, matching_from_json, max_cardinality_matching,
                      parse_instance, serialize_instance)
from bipmatch.graph import SIDE_BOUND, _parse_canonical, _parse_lines

from conftest import FIG1_EDGES, FIG1_TEXT, M_OTHER, M_STAR


class TestGraphConstruction:
    def test_fig1_shape(self, fig1):
        assert fig1.n_left == 3
        assert fig1.n_right == 3
        assert fig1.edge_count == 6
        assert fig1.max_abs_weight == 2
        assert fig1.edges == tuple(FIG1_EDGES)

    def test_adjacency_in_edge_order(self, fig1):
        assert fig1.left_edges(0) == (0, 1)
        assert fig1.left_edges(2) == (4, 5)
        at_v1 = tuple(e for e in range(fig1.edge_count) if fig1.endpoints(e)[1] == 1)
        assert at_v1 == (1, 2, 4)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedBipartiteGraph(2, 2, [(0, 0, 1), (0, 0, 2)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedBipartiteGraph(2, 2, [(0, 2, 1)])
        with pytest.raises(ValueError, match=r"^left index 2 out of range \[0, 2\)$"):
            WeightedBipartiteGraph(2, 2, [(2, 0, 1)])

    @pytest.mark.parametrize("edges, message", [
        ([(0, 2, 1)], r"right index 2 out of range \[0, 2\)"),
        ([(0, -1, 1)], r"right index -1 out of range \[0, 2\)"),
        ([(1, 1, -MAX_ABS_WEIGHT - 1)], r"\|weight\| 1099511627777 exceeds bound 1099511627776"),
        ([(1, 0, 2), (1, 0, 3)], r"duplicate edge \(1, 0\)"),
        # The first bad edge in input order is the one named, whatever is
        # wrong with the edges after it.
        ([(0, 0, 1), (0, 5, 1), (9, 0, 1)], r"right index 5 out of range \[0, 2\)"),
        ([(0, 0, 1), (0, 0, 2), (0, 7, 1)], r"duplicate edge \(0, 0\)"),
        ([(1, 1, 0), (0, 0, MAX_ABS_WEIGHT + 1), (1, 1, 0)],
         r"\|weight\| 1099511627777 exceeds bound 1099511627776"),
        ([(1, 1, 0), (2, 0, 1), (0, 0, MAX_ABS_WEIGHT + 1)],
         r"left index 2 out of range \[0, 2\)"),
    ])
    def test_edge_error_messages(self, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightedBipartiteGraph(2, 2, edges)

    @pytest.mark.parametrize("n, s, edges, message", [
        (SIDE_BOUND + 1, 1, [], f"a side of {SIDE_BOUND + 1} vertices exceeds both "
                                f"the edge count 0 and {SIDE_BOUND}"),
        (1, SIDE_BOUND + 2, [(0, 0, 0)], f"a side of {SIDE_BOUND + 2} vertices exceeds "
                                         f"both the edge count 1 and {SIDE_BOUND}"),
    ])
    def test_side_bound_message(self, n, s, edges, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            WeightedBipartiteGraph(n, s, edges)

    @pytest.mark.parametrize("n, s", [(-1, 2), (2, -1)])
    def test_negative_side_rejected(self, n, s):
        with pytest.raises(ValueError, match="^side sizes must be non-negative$"):
            WeightedBipartiteGraph(n, s, [])

    @pytest.mark.parametrize("n, s, edges, what", [
        (2, 2, [(0, 1.0, 1), (1, 0, 2)], "right index"),
        (2, 2, [(True, 0, 1)], "left index"),
        (2, 2, [(0, False, 1)], "right index"),
        (2, 2, [("0", 0, 1)], "left index"),
        (True, True, [], "side size"),
        (2.0, 2, [], "side size"),
    ])
    def test_non_int_label_or_side_rejected(self, n, s, edges, what):
        # Labels and sides follow the weights' rule: an int, not a bool.
        with pytest.raises(TypeError, match=f"^{what} must be an integer, got "):
            WeightedBipartiteGraph(n, s, edges)

    def test_weight_bound(self):
        WeightedBipartiteGraph(1, 1, [(0, 0, MAX_ABS_WEIGHT)])
        with pytest.raises(ValueError, match="exceeds"):
            WeightedBipartiteGraph(1, 1, [(0, 0, MAX_ABS_WEIGHT + 1)])

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError):
            WeightedBipartiteGraph(1, 1, [(0, 0, 1.5)])

    def test_sides_kept_when_right_larger(self):
        g = WeightedBipartiteGraph(1, 3, [(0, 2, 7)])
        assert (g.n_left, g.n_right) == (1, 3)
        assert g.endpoints(0) == (0, 2)
        assert g.original_pair(0) == (1, 3)
        assert g.original_edge_index(1, 3) == 0
        assert g.original_edge_index(3, 1) is None

    def test_empty_graph(self):
        g = WeightedBipartiteGraph(0, 0, [])
        assert g.edge_count == 0
        assert g.max_abs_weight == 0

    def test_side_bound(self):
        # A side may exceed the edge count up to SIDE_BOUND vertices, and
        # exceed SIDE_BOUND up to the edge count.
        assert WeightedBipartiteGraph(SIDE_BOUND, 1, []).n_left == SIDE_BOUND
        star = [(u, 0, 0) for u in range(SIDE_BOUND + 1)]
        assert WeightedBipartiteGraph(SIDE_BOUND + 1, 1, star).edge_count == SIDE_BOUND + 1
        for n, s in [(SIDE_BOUND + 1, 1), (1, SIDE_BOUND + 1), (2**40, 2**40)]:
            with pytest.raises(ValueError, match="exceeds both the edge count 0"):
                WeightedBipartiteGraph(n, s, [])


class TestParsing:
    def test_fig1_roundtrip_values(self):
        g = parse_instance(FIG1_TEXT)
        assert g.n_left == 3 and g.n_right == 3
        assert g.edge_count == 6
        assert g.max_abs_weight == 2
        assert g.edges == tuple(FIG1_EDGES)

    def test_edgeless_instance(self):
        g = parse_instance("p bip 1 1 0\n")
        assert g.edge_count == 0
        assert g.max_abs_weight == 0

    def test_duplicate_edge_reports_second_line(self):
        text = "p bip 2 2 2\ne 1 1 4\ne 1 1 5\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 3
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("text,fragment", [
        ("p bip 2 2\n", "malformed header"),
        ("p bip 2 2 one\n", "non-integer"),
        ("p bip 2 2 1\ne 1 1\n", "malformed edge"),
        ("p bip 2 2 1\ne 3 1 0\n", "outside"),
        ("p bip 2 2 1\ne 1 3 0\n", "outside"),
        ("e 1 1 0\n", "before header"),
        ("p bip 2 2 1\nq zzz\n", "unrecognized"),
        ("p bip 2 2 0\np bip 2 2 0\n", "duplicate header"),
        ("p bip 2 2 2\ne 1 1 0\n", "announced 2 edges"),
        ("", "missing header"),
    ])
    def test_malformed_inputs(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_instance(text)

    @pytest.mark.parametrize("header", [f"p bip {2**40} 1 0", f"p bip 1 {2**40} 0",
                                        f"p bip {SIDE_BOUND + 1} 1 0",
                                        f"p bip {2**40} {2**40} {2**40 - 1}"])
    def test_side_beyond_bound_fails_on_header_line(self, header):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="exceeds both the header's edge count") as err:
            parse_instance(f"c huge\n{header}\n")
        assert err.value.line == 2
        assert time.perf_counter() - start < 1.0

    def test_side_within_bound(self):
        assert parse_instance(f"p bip {SIDE_BOUND} 1 0\n").n_left == SIDE_BOUND
        # A side up to the header's edge count passes the header line; this
        # file then lacks the edges it announced.
        with pytest.raises(ParseError, match="announced 1099511627776 edges"):
            parse_instance(f"p bip {2**40} 1 {2**40}\n")

    def test_weight_bound_in_file(self):
        text = f"p bip 1 1 1\ne 1 1 {MAX_ABS_WEIGHT + 1}\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 2

    def test_comments_and_blanks_ignored(self):
        g = parse_instance("c hello\n\np bip 1 1 1\nc mid\ne 1 1 -4\n\n")
        assert g.edges == ((0, 0, -4),)

    def test_serialize_parse_roundtrip(self, fig1):
        assert parse_instance(serialize_instance(fig1)) == fig1

    def test_serialize_parse_roundtrip_swapped(self):
        text = "p bip 1 2 2\ne 1 1 5\ne 1 2 -5\n"
        g = parse_instance(text)
        assert serialize_instance(g) == text
        assert parse_instance(serialize_instance(g)) == g

    def test_strided_parse_peak_within_line_pass(self):
        # The benchmark's dense shape: a complete 200x200 instance. The
        # strided path tokenises a block at a time, so its peak stays at
        # or below the line pass's; tokens of the whole text would not.
        rng = random.Random(9001)
        text = "p bip 200 200 40000\n" + "".join(
            f"e {i} {j} {rng.randint(0, 1000)}\n"
            for i in range(1, 201) for j in range(1, 201))
        assert _parse_canonical(text.encode()) is not None
        peaks = []
        for parse in (parse_instance, _parse_lines):
            tracemalloc.start()
            try:
                parse(text)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_roundtrip_random(self):
        rng = random.Random(404)
        for _ in range(50):
            n, s = rng.randint(0, 5), rng.randint(0, 5)
            cells = [(u, v) for u in range(n) for v in range(s)]
            chosen = rng.sample(cells, rng.randint(0, len(cells))) if cells else []
            text_lines = [f"p bip {n} {s} {len(chosen)}"]
            for (u, v) in chosen:
                text_lines.append(f"e {u + 1} {v + 1} {rng.randint(-99, 99)}")
            g = parse_instance("\n".join(text_lines) + "\n")
            assert parse_instance(serialize_instance(g)) == g


class TestMatching:
    def test_shared_endpoint_rejected(self, fig1):
        with pytest.raises(ValueError, match="two matched edges"):
            Matching(fig1, [0, 1])  # both use u0
        with pytest.raises(ValueError, match="two matched edges"):
            Matching(fig1, [1, 2])  # both use v1

    def test_clash_named_by_input_labels_on_wide_graph(self):
        # Input left vertex 1, the smaller side, lies on both edges.
        g = WeightedBipartiteGraph(1, 2, [(0, 0, 1), (0, 1, 1)])
        with pytest.raises(ValueError, match=r"^matching edge \(1, 2\) shares a vertex "
                                             r"with another edge; no vertex may lie on "
                                             r"two matched edges$"):
            Matching(g, [0, 1])
        with pytest.raises(ParseError, match=r"\(1, 2\) shares a vertex"):
            matching_from_json(g, {"edges": [[1, 2], [1, 1]]})

    def test_is_an_edge_set(self, fig1):
        m = Matching(fig1, M_STAR)
        assert isinstance(m, EdgeSet)
        assert m.edge_count == m.cardinality == len(m) == 3
        assert m.to_json() == {"cardinality": 3, "weight": 3, **EdgeSet(fig1, M_STAR).to_json()}

    def test_never_equals_an_edge_set(self, fig1):
        assert Matching(fig1, [0]) != EdgeSet(fig1, [0])
        assert EdgeSet(fig1, [0]) != Matching(fig1, [0])
        assert Matching(fig1, [0]) == Matching._trusted(fig1, [0, None, None])

    def test_hash_and_repr(self, fig1):
        m = Matching(fig1, [5, 2, 0])
        assert hash(m) == hash((id(fig1), (0, 2, 5))) == hash(Matching(fig1, M_STAR))
        assert repr(m) == "Matching(cardinality=3, edges=(0, 2, 5))"
        assert repr(EdgeSet(fig1, [5, 2, 0])) == "EdgeSet((0, 2, 5))"

    def test_trusted_matching_builds_its_edge_list_lazily(self):
        # Edges listed against left-vertex order, so a perfect matching's
        # edges by left vertex are not its sorted edge list. A trusted
        # matching sorts its edges on first read; each check below takes a
        # fresh one, so each reader is the first read.
        g = WeightedBipartiteGraph(3, 3, [(2, 2, 1), (1, 0, 2), (0, 1, 3), (2, 1, 0), (0, 2, 5)])
        mates = max_cardinality_matching(g)._mate_left
        edges = tuple(sorted(mates))
        assert list(mates) != list(edges)
        checked = Matching(g, mates)
        assert max_cardinality_matching(g) == checked
        assert checked == max_cardinality_matching(g)
        assert hash(max_cardinality_matching(g)) == hash(checked)
        assert repr(max_cardinality_matching(g)) == repr(checked)
        assert repr(checked) == f"Matching(cardinality=3, edges={edges})"
        assert max_cardinality_matching(g) != EdgeSet(g, edges)
        assert EdgeSet(g, edges) != max_cardinality_matching(g)
        before = max_cardinality_matching(g)
        assert before.edge_indices == edges
        assert before._mate_left == mates and before.edge_indices == edges
        after = max_cardinality_matching(g)
        assert after._mate_left == mates and after.edge_indices == edges

    @pytest.mark.parametrize("kind", [Matching, EdgeSet])
    def test_membership_of_any_int(self, fig1, kind):
        edges = kind(fig1, M_STAR)
        assert [e for e in range(fig1.edge_count) if e in edges] == list(M_STAR)
        for e in (-1, fig1.edge_count, 10**9):
            assert e not in edges

    def test_weight_examples(self, fig1):
        assert Matching(fig1, M_STAR).weight() == 3
        assert Matching(fig1, M_OTHER).weight() == 5
        assert Matching(fig1, []).weight() == 0

    def test_perfect_flag(self, fig1):
        assert Matching(fig1, M_STAR).is_perfect
        assert not Matching(fig1, [0]).is_perfect
        wide = WeightedBipartiteGraph(2, 1, [(0, 0, 1)])
        assert not Matching(wide, [0]).is_perfect

    def test_partners(self, fig1):
        m = Matching(fig1, M_STAR)
        assert fig1.endpoints(m.left_edge(1))[1] == 1
        at_v2 = next(e for e in m if fig1.endpoints(e)[1] == 2)
        assert fig1.endpoints(at_v2)[0] == 2
        assert Matching(fig1, []).left_edge(0) is None

    def test_json_roundtrip(self, fig1):
        m = Matching(fig1, M_STAR)
        blob = m.to_json()
        assert blob == {"cardinality": 3, "weight": 3,
                        "edges": [[1, 1], [2, 2], [3, 3]]}
        assert matching_from_json(fig1, json.loads(json.dumps(blob))) == m

    def test_json_roundtrip_swapped(self):
        g = WeightedBipartiteGraph(1, 2, [(0, 0, 3), (0, 1, 9)])
        m = Matching(g, [0])
        blob = m.to_json()
        assert blob["edges"] == [[1, 1]]
        assert matching_from_json(g, blob) == m

    def test_json_unknown_edge(self, fig1):
        with pytest.raises(ParseError, match="unknown edge"):
            matching_from_json(fig1, {"edges": [[1, 3]]})

    def test_json_edge_listed_twice(self):
        # A repeat is a malformed file, not one edge.
        g = WeightedBipartiteGraph(1, 1, [(0, 0, 5)])
        with pytest.raises(ParseError, match=r"^matching lists edge \(1, 1\) twice$"):
            matching_from_json(g, {"edges": [[1, 1], [1, 1]]})


class TestEdgeSet:
    def test_sorted_distinct_indices(self, fig1):
        edges = EdgeSet(fig1, [5, 3, 5, 0])
        assert edges.edge_indices == (0, 3, 5) == tuple(edges)
        assert len(edges) == edges.edge_count == 3
        assert 3 in edges and 1 not in edges
        assert edges.pairs() == [(0, 0), (1, 2), (2, 2)]
        assert edges == EdgeSet(fig1, (0, 3, 5))
        assert edges != EdgeSet(WeightedBipartiteGraph(3, 3, FIG1_EDGES), (0, 3, 5))
        # Increasing input is kept as it is; a repeat or a descent is sorted.
        for given in ([0, 3, 5], iter((0, 3, 5)), [0, 0, 3, 5], [0, 5, 3]):
            assert EdgeSet(fig1, given).edge_indices == (0, 3, 5)

    def test_out_of_range_index(self, fig1):
        with pytest.raises(ValueError):
            EdgeSet(fig1, [99])
        with pytest.raises(ValueError):
            EdgeSet(fig1, [-1])

    @pytest.mark.parametrize("kind", [Matching, EdgeSet])
    def test_non_int_index_rejected(self, fig1, kind):
        # A bool is not an edge index, and a missing edge's None is refused
        # where the set is built, not when it is first read.
        missing = fig1.edge_index(0, 2)
        assert missing is None
        for bad in (0.5, True, missing):
            with pytest.raises(TypeError, match=f"^edge index must be an integer, got {bad}$"):
                kind(fig1, [0, bad])

    def test_json_in_input_orientation(self):
        g = WeightedBipartiteGraph(2, 3, [(0, 2, 1), (1, 0, 1), (0, 0, 1)])
        assert EdgeSet(g, [0, 1, 2]).to_json() == {"edges": [[1, 1], [1, 3], [2, 1]]}
