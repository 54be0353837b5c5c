"""Instance model, parsing, serialization, matchings."""

import json
import random

import pytest

from bipmatch import (MAX_ABS_WEIGHT, EdgeSet, Matching, ParseError,
                      WeightedBipartiteGraph, matching_from_json, parse_instance,
                      serialize_instance)

from conftest import FIG1_EDGES, FIG1_TEXT, M_OTHER, M_STAR


class TestGraphConstruction:
    def test_fig1_shape(self, fig1):
        assert fig1.n_left == 3
        assert fig1.n_right == 3
        assert fig1.edge_count == 6
        assert fig1.max_abs_weight == 2
        assert not fig1.sides_swapped

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

    def test_weight_bound(self):
        WeightedBipartiteGraph(1, 1, [(0, 0, MAX_ABS_WEIGHT)])
        with pytest.raises(ValueError, match="exceeds"):
            WeightedBipartiteGraph(1, 1, [(0, 0, MAX_ABS_WEIGHT + 1)])

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError):
            WeightedBipartiteGraph(1, 1, [(0, 0, 1.5)])

    def test_sides_swapped_when_right_larger(self):
        g = WeightedBipartiteGraph(1, 3, [(0, 2, 7)])
        assert g.sides_swapped
        assert (g.n_left, g.n_right) == (3, 1)
        # internal orientation flips the endpoints, original labels do not
        assert g.endpoints(0) == (2, 0)
        assert g.original_pair(0) == (1, 3)

    def test_empty_graph(self):
        g = WeightedBipartiteGraph(0, 0, [])
        assert g.edge_count == 0
        assert g.max_abs_weight == 0


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
        g = parse_instance("p bip 1 2 2\ne 1 1 5\ne 1 2 -5\n")
        assert g.sides_swapped
        again = parse_instance(serialize_instance(g))
        assert again == g

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


class TestEdgeSet:
    def test_sorted_distinct_indices(self, fig1):
        edges = EdgeSet(fig1, [5, 3, 5, 0])
        assert edges.edge_indices == (0, 3, 5) == tuple(edges)
        assert len(edges) == edges.edge_count == 3
        assert 3 in edges and 1 not in edges
        assert edges.pairs() == [(0, 0), (1, 2), (2, 2)]
        assert edges == EdgeSet(fig1, (0, 3, 5))
        assert edges != EdgeSet(WeightedBipartiteGraph(3, 3, FIG1_EDGES), (0, 3, 5))

    def test_out_of_range_index(self, fig1):
        with pytest.raises(ValueError):
            EdgeSet(fig1, [99])
        with pytest.raises(ValueError):
            EdgeSet(fig1, [-1])

    def test_json_in_input_orientation(self):
        g = WeightedBipartiteGraph(2, 3, [(0, 2, 1), (1, 0, 1), (0, 0, 1)])
        assert g.sides_swapped
        assert EdgeSet(g, [0, 1, 2]).to_json() == {"edges": [[1, 1], [1, 3], [2, 1]]}
