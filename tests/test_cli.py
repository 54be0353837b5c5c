"""End-to-end command-line behavior: verbs, JSON output, exit codes."""

import argparse
import json
import os
import random
import sys
import threading
from heapq import heappush
from pathlib import Path

import pytest

import bipmatch.cli
import bipmatch.enumeration
import bipmatch.solvers
from bipmatch import (WeightedBipartiteGraph, artificial_vertices, iter_min_weight_perfect_matchings,
                      parse_instance, second_doubling, serialize_instance, solve_exact)
from bipmatch.cli import main
from bipmatch.graph import _parse_canonical, _parse_lines

from conftest import FIG1_TEXT

GOLDEN = Path(__file__).parent / "golden"
TIES_PATH = str(GOLDEN / "ties.bip")
WIDE_PATH = str(GOLDEN / "wide.bip")
SWAPPED_PATH = str(GOLDEN / "swapped.bip")

INFEASIBLE_TEXT = """\
p bip 3 3 5
e 1 2 1
e 2 2 1
e 2 3 2
e 3 2 2
e 3 3 1
"""

WIDE_TEXT = """\
p bip 2 1 2
e 1 1 5
e 2 1 3
"""


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.bip"
    path.write_text(FIG1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_solve_json(self, capsys, fig1_path):
        code, out, _ = run(capsys, "solve", fig1_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["matching"]["weight"] == 3
        assert payload["matching"]["cardinality"] == 3
        assert set(payload["prices"]) == {"den", "pi", "p"}

    @pytest.mark.parametrize("solver", ["exact", "auction", "rounding"])
    def test_all_solvers_weight_three(self, capsys, fig1_path, solver):
        code, out, _ = run(capsys, "solve", fig1_path, "--solver", solver)
        assert code == 0
        assert json.loads(out)["matching"]["weight"] == 3

    def test_deterministic_output(self, capsys, fig1_path):
        outs = {run(capsys, "solve", fig1_path)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_infeasible_exit_1(self, capsys, tmp_path):
        path = tmp_path / "inf.bip"
        path.write_text(INFEASIBLE_TEXT)
        code, _, err = run(capsys, "solve", str(path))
        assert code == 1
        assert "v1 stay" in err  # named by its 1-based input label

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "absent.bip"))
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.bip"
        path.write_text("p bip 1 1 2\ne 1 1 0\n")
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "error" in err

    def test_unknown_verb_exit_2(self, capsys, fig1_path):
        code, _, _ = run(capsys, "frobnicate", fig1_path)
        assert code == 2

    def test_unknown_flag_exit_2(self, capsys, fig1_path):
        code, _, _ = run(capsys, "solve", fig1_path, "--nope")
        assert code == 2


class TestDuals:
    def test_duals_json(self, capsys, fig1_path):
        code, out, _ = run(capsys, "duals", fig1_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["den"] == 1
        assert sum(payload["pi"]) + sum(payload["p"]) == 3  # strong duality


class TestGcs:
    def test_computed_prices(self, capsys, fig1_path):
        code, out, _ = run(capsys, "gcs", fig1_path)
        assert code == 0
        payload = json.loads(out)
        assert [1, 1] in payload["edges"]
        assert len(payload["edges"]) + len(payload["dropped"]) == 6

    def test_supplied_prices(self, capsys, fig1_path, tmp_path):
        prices = tmp_path / "p1.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, out, _ = run(capsys, "gcs", fig1_path, "--prices", str(prices))
        assert code == 0
        assert json.loads(out)["edges"] == [[1, 1], [2, 2], [3, 2], [3, 3]]

    def test_price_shape_named_in_input_orientation(self, capsys, tmp_path):
        # swapped.bip has 4 left and 7 right vertices.
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": 1, "pi": [0] * 3, "p": [0] * 7}))
        code, out, err = run(capsys, "gcs", SWAPPED_PATH, "--prices", str(prices))
        assert (code, out) == (2, "")
        assert err == "error: price JSON shape (3, 7) does not match instance\n"

    def test_infeasible_prices_exit_2(self, capsys, fig1_path, tmp_path):
        prices = tmp_path / "bad.json"
        prices.write_text(json.dumps({"den": 1, "pi": [9, 9, 9], "p": [9, 9, 9]}))
        code, _, err = run(capsys, "gcs", fig1_path, "--prices", str(prices))
        assert code == 2

    def test_one_slack_scan(self, capsys, monkeypatch, tmp_path):
        # With prices given, the verb's one scan builds both the tight
        # edges and the dropped list.
        code, out, _ = run(capsys, "duals", TIES_PATH)
        assert code == 0
        prices = tmp_path / "ties-prices.json"
        prices.write_text(out)
        scans = []
        original = bipmatch.prices.edge_slacks

        def counted(graph, prices):
            scans.append(graph.edge_count)
            return original(graph, prices)

        for name, module in list(sys.modules.items()):
            if name.startswith("bipmatch") and getattr(module, "edge_slacks", None) is original:
                monkeypatch.setattr(module, "edge_slacks", counted)
        code, out, _ = run(capsys, "gcs", TIES_PATH, "--prices", str(prices))
        assert code == 0
        assert len(scans) == 1
        payload = json.loads(out)
        assert len(payload["edges"]) + len(payload["dropped"]) == scans[0]


class TestOptEdges:
    def test_fig1(self, capsys, fig1_path):
        code, out, _ = run(capsys, "opt-edges", fig1_path)
        assert code == 0
        assert json.loads(out)["edges"] == [[1, 1], [2, 2], [3, 3]]

    def test_certificate_matching_needs_no_hopcroft_karp(self, capsys, fig1_path,
                                                         tmp_path, hk_calls):
        # The start's one Hopcroft-Karp run is the only one: its matching
        # is tight under its prices, so only the SCC pass follows.
        # Supplied prices come without a matching.
        code, out, _ = run(capsys, "opt-edges", fig1_path)
        assert code == 0
        assert len(hk_calls) == 1
        hk_calls.clear()
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, with_prices, _ = run(capsys, "opt-edges", fig1_path, "--prices", str(prices))
        assert code == 0
        assert with_prices == out
        assert len(hk_calls) == 1

    @pytest.mark.parametrize("verb", ["opt-edges", "enumerate"])
    def test_prices_on_unequal_sides_exit_1(self, capsys, tmp_path, verb):
        # A 3x2 all-zero graph: both verbs word the failure as they do
        # without --prices, and as preallocate does.
        path = tmp_path / "tall.bip"
        path.write_text("p bip 3 2 6\n" + "".join(
            f"e {i} {j} 0\n" for i in range(1, 4) for j in range(1, 3)))
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"den": 1, "pi": [0, 0, 0], "p": [0, 0]}))
        code, out, err = run(capsys, verb, str(path), "--prices", str(prices))
        assert (code, out) == (1, "")
        assert err == "infeasible: perfect matching needs equal sides, got 3 and 2\n"


class TestEnumerate:
    def test_streams_one_line(self, capsys, fig1_path):
        code, out, _ = run(capsys, "enumerate", fig1_path, "--limit", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["weight"] == 3

    def test_limit_zero(self, capsys, fig1_path):
        code, out, _ = run(capsys, "enumerate", fig1_path, "--limit", "0")
        assert code == 0
        assert out.strip() == ""

    def test_negative_limit_exit_2(self, capsys, fig1_path):
        code, _, _ = run(capsys, "enumerate", fig1_path, "--limit", "-1")
        assert code == 2

    def test_prices_from_duals_change_nothing(self, capsys, tmp_path):
        # The exact solver's prices make a larger tight subgraph here than
        # the rounding's; both hold the same two optima, in one order.
        path = tmp_path / "three.bip"
        path.write_text("p bip 3 3 6\ne 2 1 1\ne 3 3 2\ne 1 1 0\ne 1 3 2\ne 3 2 0\ne 1 2 0\n")
        code, duals, _ = run(capsys, "duals", str(path))
        assert code == 0
        prices = tmp_path / "prices.json"
        prices.write_text(duals)
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert [json.loads(line)["edges"] for line in out.splitlines()] == [
            [[1, 2], [2, 1], [3, 3]], [[1, 3], [2, 1], [3, 2]]]
        code, with_prices, _ = run(capsys, "enumerate", str(path), "--prices", str(prices))
        assert code == 0
        assert with_prices == out

    def test_certificate_matching_needs_no_hopcroft_karp(self, capsys, fig1_path,
                                                         tmp_path, hk_calls):
        # The certificate's matching roots the search, so the solver's start
        # runs the only Hopcroft-Karp; supplied prices come without a
        # matching, so the root runs Hopcroft-Karp once.
        code, out, _ = run(capsys, "enumerate", fig1_path)
        assert code == 0
        assert len(hk_calls) == 1
        hk_calls.clear()
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, with_prices, _ = run(capsys, "enumerate", fig1_path, "--prices", str(prices))
        assert code == 0
        assert with_prices == out
        assert len(hk_calls) == 1


    @pytest.mark.parametrize("argv, flips, trims", [(["--limit", "1"], 0, 3), ([], 19, 39)])
    def test_branch_work_on_ties(self, capsys, monkeypatch, argv, flips, trims):
        # A "without pivot" child flips its cycle only when it is popped,
        # and a block that is one alternating cycle splits with no trim and
        # no flip, so the first matching here takes no flip at all.
        calls = {"_flip_cycle": 0, "_scc_labels": 0}
        for name in calls:
            def counting(*args, _name=name, _run=getattr(bipmatch.enumeration, name)):
                calls[_name] += 1
                return _run(*args)
            monkeypatch.setattr(bipmatch.enumeration, name, counting)
        code, out, _ = run(capsys, "enumerate", TIES_PATH, *argv)
        assert code == 0
        assert out.count("\n") == (1 if argv else 33)
        assert calls == {"_flip_cycle": flips, "_scc_labels": trims}


class TestEnumerateRendering:
    """The full ``enumerate`` stream, line by line, is the JSON of the
    matchings the library yields, in the library's order: edges sorted by
    their label pairs whatever the file's edge order, and each line's
    weight the sum of its edges' weights."""

    @staticmethod
    def shuffled_graph(rng: random.Random) -> WeightedBipartiteGraph:
        # Sides up to 12, so some labels have two digits; a hidden perfect
        # matching, weights in {0, 1, 2}, mostly 0 so that optima tie, and
        # the edge lines shuffled.
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        cells = {(u, perm[u]) for u in range(n)}
        for _ in range(rng.randint(n, 3 * n)):
            cells.add((rng.randrange(n), rng.randrange(n)))
        edges = [(u, v, rng.choice((0, 0, 0, 0, 0, 0, 1, 2))) for u, v in sorted(cells)]
        rng.shuffle(edges)
        return WeightedBipartiteGraph(n, n, edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_lines_are_the_library_stream(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "shuffled.bip"
        for _ in range(12):
            graph = self.shuffled_graph(rng)
            path.write_text(serialize_instance(graph))
            code, out, _ = run(capsys, "enumerate", str(path))
            assert code == 0
            stream = iter_min_weight_perfect_matchings(graph, solve_exact(graph).prices)
            assert out.splitlines() == [json.dumps(m.to_json(), sort_keys=True)
                                        for m in stream]
            for line in out.splitlines():
                payload = json.loads(line)
                assert payload["weight"] == sum(
                    graph.weight(graph.original_edge_index(i, j)) for i, j in payload["edges"])


class TestPreallocate:
    def test_tie_break(self, capsys, tmp_path):
        instance = tmp_path / "sym.bip"
        instance.write_text(
            "p bip 2 2 4\ne 1 1 5\ne 1 2 5\ne 2 1 5\ne 2 2 5\n")
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 2\n")
        code, out, _ = run(capsys, "preallocate", str(instance),
                           "--prefs", str(prefs))
        assert code == 0
        payload = json.loads(out)
        assert payload["preferred"] == 1
        assert [1, 2] in payload["edges"]

    def test_unequal_sides_named_in_input_orientation(self, capsys, tmp_path):
        instance = tmp_path / "star.bip"
        instance.write_text("p bip 1 8 8\n" + "".join(f"e 1 {j} 0\n" for j in range(1, 9)))
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 1\n")
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": 1, "pi": [0], "p": [0] * 8}))
        code, out, err = run(capsys, "preallocate", str(instance), "--prefs", str(prefs),
                             "--prices", str(prices))
        assert (code, out) == (1, "")
        assert err == "infeasible: perfect matching needs equal sides, got 1 and 8\n"

    def test_non_optimal_prices_exit_1(self, capsys, fig1_path, tmp_path):
        # Feasible prices with every edge slack: worded as opt-edges and
        # enumerate word them, not as an infeasible instance.
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 1\n")
        prices = tmp_path / "low.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-10, -10, -10], "p": [0, 0, 0]}))
        code, out, err = run(capsys, "preallocate", fig1_path, "--prefs", str(prefs),
                             "--prices", str(prices))
        assert (code, out) == (1, "")
        assert err == ("infeasible: tight subgraph has no perfect matching; the supplied "
                       "prices are not optimal for this instance\n")

    def test_certificate_matching_needs_no_hopcroft_karp(self, capsys, fig1_path,
                                                         tmp_path, hk_calls):
        # The certificate's matching gives the optimal edges, so the two
        # runs are the starts of the certificate and of the 0/1 re-solve;
        # supplied prices come without a matching, so Hopcroft-Karp checks
        # them once before the re-solve, and the answer is the same.
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 2\n")
        code, out, _ = run(capsys, "preallocate", fig1_path, "--prefs", str(prefs))
        assert code == 0
        assert len(hk_calls) == 2
        hk_calls.clear()
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, with_prices, _ = run(capsys, "preallocate", fig1_path, "--prefs", str(prefs),
                                   "--prices", str(prices))
        assert code == 0
        assert with_prices == out
        assert len(hk_calls) == 2

    def test_unknown_preference_exit_2(self, capsys, fig1_path, tmp_path):
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 3\n")
        code, _, _ = run(capsys, "preallocate", fig1_path, "--prefs", str(prefs))
        assert code == 2

    @pytest.mark.parametrize("line", ["f 0 1", "f 3 1", "f 1 0", "f 1 3", "f -1 2"])
    def test_out_of_range_label_exit_2(self, capsys, tmp_path, line):
        # Label 0 must not wrap around to the last vertex, nor may a label
        # past the side size crash the run.
        instance = tmp_path / "sym.bip"
        instance.write_text(
            "p bip 2 2 4\ne 1 1 5\ne 1 2 5\ne 2 1 5\ne 2 2 5\n")
        prefs = tmp_path / "prefs.txt"
        prefs.write_text(line + "\n")
        code, out, err = run(capsys, "preallocate", str(instance),
                             "--prefs", str(prefs))
        assert code == 2
        assert out == ""
        assert "unknown edge" in err


class TestHallViolator:
    """A 200x200 graph with no perfect matching, no isolated vertex and no
    left vertex of degree 1: left 1 sees right 1 and 200, left 2 sees
    right 198-199, and lefts 3-200 see only rights 1-197."""

    REFUSAL = ("infeasible: no perfect matching: maximum cardinality is 199 of "
               "200; vertices u200 and v199 stay uncovered\n")

    @pytest.fixture
    def instance(self, tmp_path):
        pairs = [(1, 1), (1, 200), (2, 198), (2, 199)]
        pairs += [(i, j) for i in range(3, 201) for j in range(1, 198)]
        path = tmp_path / "hall.bip"
        path.write_text(f"p bip 200 200 {len(pairs)}\n"
                        + "".join(f"e {i} {j} 0\n" for i, j in pairs))
        return str(path)

    def test_certificate_verbs_refuse_without_the_auction(self, capsys, monkeypatch,
                                                          tmp_path, instance):
        # The certificate's exact search proves infeasibility itself.
        code, out, err = run(capsys, "solve", instance)
        assert (code, out, err) == (1, "", self.REFUSAL)

        def no_auction(*args, **kwargs):
            raise AssertionError("solve_auction was called")

        monkeypatch.setattr(bipmatch.solvers, "solve_auction", no_auction)
        prefs = tmp_path / "prefs.txt"
        prefs.write_text("f 1 1\n")
        for argv in (["opt-edges", instance], ["enumerate", instance],
                     ["preallocate", instance, "--prefs", str(prefs)]):
            assert run(capsys, *argv) == (1, "", err), argv

    @pytest.mark.parametrize("verb", ["solve", "duals"])
    def test_exact_solver_refuses_within_2n_pushes(self, capsys, monkeypatch, instance,
                                                   verb):
        # Every edge is tight, so the start matches 199 pairs and one search
        # is left: it reaches each of rights 1-197 once (197 pushes) before
        # its heap empties. 200 searches from an empty matching pushed 39207.
        pushes = []
        monkeypatch.setattr(bipmatch.solvers, "heappush",
                            lambda heap, item: pushes.append(item) or heappush(heap, item))
        assert run(capsys, verb, instance) == (1, "", self.REFUSAL)
        assert 0 < len(pushes) < 2 * 200

    @pytest.mark.parametrize("argv", [["gcs"], ["solve", "--solver", "auction"],
                                      ["solve", "--solver", "rounding"]],
                             ids=["gcs", "solve-auction", "solve-rounding"])
    def test_auction_refuses_before_bidding(self, capsys, monkeypatch, instance, argv):
        # Each bidding phase begins by queueing every left vertex: the
        # refusal must come before the first queue is made.
        def no_bidding(*args, **kwargs):
            raise AssertionError("the auction began to bid")

        monkeypatch.setattr(bipmatch.solvers, "deque", no_bidding)
        assert run(capsys, argv[0], instance, *argv[1:]) == (1, "", self.REFUSAL)


class TestOptimum:
    @pytest.mark.parametrize("flags", [["--transform", "auto"], []], ids=["auto", "default"])
    def test_wide_instance(self, capsys, tmp_path, flags):
        path = tmp_path / "wide.bip"
        path.write_text(WIDE_TEXT)
        code, out, _ = run(capsys, "optimum", str(path), *flags)
        assert code == 0
        payload = json.loads(out)
        assert payload["cardinality"] == 1
        assert payload["weight"] == 3
        assert payload["edges"] == [[2, 1]]

    def test_coverage_required_exit_1(self, capsys, tmp_path):
        # Right vertex 2 has no edge. Half doubling and padding need a
        # matching covering the smaller side, so their balanced graphs have
        # no perfect matching (exit 1); optimum answers the instance itself.
        text = "p bip 3 2 2\ne 1 1 1\ne 2 1 2\n"
        path = tmp_path / "uncov.bip"
        path.write_text(text)
        graph = parse_instance(text)
        for transformed in (second_doubling(graph), artificial_vertices(graph)):
            reduced = tmp_path / "reduced.bip"
            reduced.write_text(serialize_instance(transformed.graph))
            assert run(capsys, "solve", str(reduced))[:2] == (1, "")
        code, out, _ = run(capsys, "optimum", str(path))
        assert (code, json.loads(out)["cardinality"]) == (0, 1)


class TestCheck:
    def test_accepts_solve_output(self, capsys, fig1_path, tmp_path):
        _, out, _ = run(capsys, "solve", fig1_path)
        result = tmp_path / "result.json"
        result.write_text(out)
        code, verdict, _ = run(capsys, "check", fig1_path,
                               "--matching", str(result))
        assert code == 0
        assert json.loads(verdict)["valid"] is True

    def test_accepts_every_solver_output(self, capsys, fig1_path, tmp_path):
        for solver in ("exact", "rounding"):
            _, out, _ = run(capsys, "solve", fig1_path, "--solver", solver)
            result = tmp_path / f"r_{solver}.json"
            result.write_text(out)
            code, verdict, _ = run(capsys, "check", fig1_path,
                                   "--matching", str(result))
            assert code == 0 and json.loads(verdict)["valid"] is True

    def test_rejects_wrong_pair(self, capsys, fig1_path, tmp_path):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps(
            {"cardinality": 3, "weight": 5, "edges": [[1, 1], [2, 3], [3, 2]]}))
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, out, _ = run(capsys, "check", fig1_path,
                           "--matching", str(matching), "--prices", str(prices))
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["problems"] == ["matched edge (2, 3) with slack 2 is not tight"]

    @pytest.mark.parametrize("edges, prices, problems", [
        # Feasible prices, a matching that leaves vertex 3 on each side free.
        ([[1, 1], [2, 2]], {"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]},
         ["matching is not perfect"]),
        # Edges (1, 1), (2, 2) and (2, 3) are violated; the first two are matched.
        ([[1, 1], [2, 2], [3, 3]], {"den": 2, "pi": [1, 5, 2], "p": [4, 0, 0]},
         ["3 dual-infeasible edge(s), first (1, 1) with slack -3/2",
          "matched edge (1, 1) with slack -3/2 is not tight"]),
        # Vertex 1 on each side free, and the matched edge (2, 3) is loose.
        ([[2, 3], [3, 2]], {"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]},
         ["matching is not perfect", "matched edge (2, 3) with slack 2 is not tight"]),
    ])
    def test_names_first_violating_edge(self, capsys, fig1_path, tmp_path,
                                        edges, prices, problems):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"edges": edges}))
        prices_path = tmp_path / "p.json"
        prices_path.write_text(json.dumps(prices))
        argv = ("check", fig1_path, "--matching", str(matching), "--prices", str(prices_path))
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["problems"] == problems

    def test_bool_denominator_exit_2(self, capsys, fig1_path, tmp_path):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps(
            {"cardinality": 3, "weight": 3, "edges": [[1, 1], [2, 2], [3, 3]]}))
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": True, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, out, err = run(capsys, "check", fig1_path,
                             "--matching", str(matching), "--prices", str(prices))
        assert code == 2
        assert out == ""
        assert "denominator" in err

    @pytest.mark.parametrize("edges", [
        [[0, 2], [1, 1], [2, 3]],   # label 0 must not wrap to the last left vertex
        [[1, 1], [2, 2], [4, 3]],
        [[1, 1], [2, 2], [3, 0]],
    ])
    def test_out_of_range_label_exit_2(self, capsys, fig1_path, tmp_path, edges):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"edges": edges}))
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, out, err = run(capsys, "check", fig1_path,
                             "--matching", str(matching), "--prices", str(prices))
        assert code == 2
        assert out == ""
        assert "unknown edge" in err

    @pytest.mark.parametrize("edges", [
        [[True, 1], [2, 2], [3, 3]],   # JSON true is not the label 1
        [[1, 1], [2, 2], [3.0, 3]],
    ])
    def test_non_integer_label_exit_2(self, capsys, fig1_path, tmp_path, edges):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"edges": edges}))
        prices = tmp_path / "p.json"
        prices.write_text(json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        code, out, err = run(capsys, "check", fig1_path,
                             "--matching", str(matching), "--prices", str(prices))
        assert code == 2
        assert out == ""
        assert "bad matching edge entry" in err

    def test_missing_prices_exit_2(self, capsys, fig1_path, tmp_path):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps(
            {"cardinality": 3, "weight": 3, "edges": [[1, 1], [2, 2], [3, 3]]}))
        code, _, _ = run(capsys, "check", fig1_path, "--matching", str(matching))
        assert code == 2


class TestExitCodes:
    """Exit 2 is for bad input only; any other failure is an internal error."""

    SOLVED = {"cardinality": 3, "weight": 3, "edges": [[1, 1], [2, 2], [3, 3]]}

    def _check(self, capsys, fig1_path, tmp_path, matching, prices_text=None):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(matching))
        p = tmp_path / "p.json"
        p.write_text(prices_text or json.dumps({"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}))
        return run(capsys, "check", fig1_path, "--matching", str(m), "--prices", str(p))

    @pytest.mark.parametrize("argv", [
        ["preallocate", "BAD", "--prefs", "PREFS"],
        ["preallocate", "FIG1", "--prefs", "BAD"],
        ["check", "FIG1", "--matching", "BAD", "--prices", "PRICES"],
        ["check", "FIG1", "--matching", "MATCHING", "--prices", "BAD"],
    ])
    def test_undecodable_file_exit_2(self, capsys, fig1_path, tmp_path, argv):
        files = {"BAD": b"p bip 1 1 1\ne 1 1 \xff\n", "PREFS": b"f 1 1\n",
                 "MATCHING": json.dumps(self.SOLVED).encode(),
                 "PRICES": b'{"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}'}
        paths = {"FIG1": fig1_path}
        for name, content in files.items():
            paths[name] = str(tmp_path / name)
            (tmp_path / name).write_bytes(content)
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2
        assert out == ""
        assert "not UTF-8" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "BOM_FIG1"],
        ["preallocate", "FIG1", "--prefs", "BOM_PREFS"],
        ["check", "FIG1", "--matching", "BOM_MATCHING", "--prices", "PRICES"],
    ])
    def test_byte_order_mark_accepted(self, capsys, fig1_path, tmp_path, argv):
        bom = "\ufeff".encode()
        files = {"BOM_FIG1": bom + FIG1_TEXT.encode(), "BOM_PREFS": bom + b"f 1 1\n",
                 "BOM_MATCHING": bom + json.dumps(self.SOLVED).encode(),
                 "PRICES": b'{"den": 1, "pi": [-2, 0, 1], "p": [3, 1, 0]}'}
        paths = {"FIG1": fig1_path}
        for name, content in files.items():
            paths[name] = str(tmp_path / name)
            (tmp_path / name).write_bytes(content)
        code, out, err = run(capsys, *[paths.get(a, a) for a in argv])
        assert (code, err) == (0, "")
        assert '"weight": 3' in out

    def test_side_beyond_bound_exit_2(self, capsys, tmp_path):
        # The 24-byte file names a side of 2^40 vertices and no edges.
        path = tmp_path / "huge.bip"
        path.write_text(f"p bip {2**40} 1 0\n")
        code, out, err = run(capsys, "optimum", str(path))
        assert (code, out) == (2, "")
        assert "line 1: a side of 1099511627776 vertices exceeds both" in err

    @pytest.mark.parametrize("argv, message", [
        (["solve", "FIG1", "--format", "json"], "unrecognized arguments: --format json"),
        (["solve", "FIG1", "--format", "text"], "unrecognized arguments: --format text"),
        (["optimum", WIDE_PATH, "--k", "0"], "unrecognized arguments: --k 0"),
        *((["optimum", WIDE_PATH, "--transform", name], f"invalid choice: '{name}'")
          for name in ("doubling", "half-doubling", "artificial")),
    ], ids=["format-json", "format-text", "k", "transform-doubling",
            "transform-half-doubling", "transform-artificial"])
    def test_removed_option_exit_2(self, capsys, fig1_path, argv, message):
        # Output is JSON only, and optimum has one route, with no free
        # weight constant.
        code, out, err = run(capsys, *[fig1_path if a == "FIG1" else a for a in argv])
        assert (code, out) == (2, "")
        assert message in err

    def test_edges_not_a_list_exit_2(self, capsys, fig1_path, tmp_path):
        code, out, err = self._check(capsys, fig1_path, tmp_path, {"edges": 7})
        assert code == 2
        assert out == ""
        assert "'edges' list" in err

    @pytest.mark.parametrize("edges, clash", [
        ([[1, 1], [1, 2], [2, 2]], "(1, 2)"),   # left vertex 1 twice
        ([[1, 1], [2, 2], [3, 2]], "(3, 2)"),   # right vertex 2 twice
    ])
    def test_vertex_named_twice_exit_2(self, capsys, fig1_path, tmp_path, edges, clash):
        code, out, err = self._check(capsys, fig1_path, tmp_path, {"edges": edges})
        assert code == 2
        assert out == ""
        assert f"{clash} shares a vertex" in err

    def test_same_edge_listed_twice_exit_2(self, capsys, fig1_path, tmp_path):
        code, out, err = self._check(capsys, fig1_path, tmp_path,
                                     {"edges": [[1, 1], [2, 2], [3, 3], [2, 2]]})
        assert (code, out) == (2, "")
        assert "error: matching lists edge (2, 2) twice" in err

    @pytest.mark.parametrize("prices_text", [
        # Python refuses integers over 4300 digits with a plain ValueError.
        '{"den": 1, "pi": [-2, 0, 1], "p": [3, 1, ' + "9" * 5000 + "]}",
        # Deep nesting exhausts the decoder's recursion limit.
        "[" * 100000 + "]" * 100000,
    ])
    def test_undecodable_json_exit_2(self, capsys, fig1_path, tmp_path, prices_text):
        code, out, err = self._check(capsys, fig1_path, tmp_path, self.SOLVED, prices_text)
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err

    def test_library_value_error_exit_3(self, capsys, monkeypatch, fig1_path):
        def broken(graph):
            raise ValueError("simulated library bug")

        monkeypatch.setitem(bipmatch.cli._SOLVERS, "exact", broken)
        code, out, err = run(capsys, "solve", fig1_path)
        assert code == 3
        assert out == ""
        assert "internal error" in err and "simulated library bug" in err


class TestParserReuse:
    """``main`` shares one parser across calls in a process: no option,
    default or error of one call reaches the next."""

    EXPECTED = json.loads((GOLDEN / "expected.json").read_text())

    def golden(self, case):
        return self.EXPECTED[case]["stdout"]

    def test_limit_does_not_leak(self, capsys):
        first = self.golden("ties-enumerate").splitlines(keepends=True)[0]
        assert run(capsys, "enumerate", TIES_PATH, "--limit", "1") == (0, first, "")
        code, out, _ = run(capsys, "enumerate", TIES_PATH)
        # ties.bip has 33 minimum-weight perfect matchings; the golden case
        # stops at 20.
        assert code == 0
        assert out.startswith(self.golden("ties-enumerate"))
        assert out.count("\n") == 33

    def test_solver_does_not_leak(self, capsys):
        assert run(capsys, "solve", TIES_PATH, "--solver", "auction")[:2] == (
            0, self.golden("ties-solve-auction"))
        assert run(capsys, "solve", TIES_PATH) == (0, self.golden("ties-solve-exact"), "")

    def test_usage_error_does_not_leak(self, capsys):
        code, out, err = run(capsys, "optimum", WIDE_PATH, "--transform", "doubling")
        assert (code, out) == (2, "")
        assert "invalid choice: 'doubling'" in err
        assert run(capsys, "optimum", WIDE_PATH) == (0, self.golden("wide-optimum-auto"), "")

    def test_help_then_verb(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: bipmatch")
        assert run(capsys, "solve", TIES_PATH) == (0, self.golden("ties-solve-exact"), "")

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert bipmatch.cli.build_parser() is not bipmatch.cli.build_parser()
        assert built  # the count sees every parser build_parser makes
        run(capsys, "solve", TIES_PATH)  # warm-up: builds the shared parser
        built.clear()
        for argv in (["solve", TIES_PATH], ["duals", TIES_PATH], ["--help"],
                     ["optimum", WIDE_PATH, "--k", "0"], ["enumerate", TIES_PATH]):
            run(capsys, *argv)
        assert built == []


def _instance_files(tmp_path):
    """Every golden instance, the canonical and the grouped (edges sorted
    by left, right) text of each, and files whose bytes are not their
    text: a BOM copy, a CRLF copy, an undecodable file and one with a
    non-ASCII comment."""
    files = {}
    for path in sorted(GOLDEN.glob("*.bip")):
        graph = parse_instance(path.read_text())
        canonical = serialize_instance(graph)
        rows = canonical.splitlines(keepends=True)
        files[path.name] = path.read_bytes()
        files[f"canonical-{path.name}"] = canonical.encode()
        files[f"grouped-{path.name}"] = "".join(
            rows[:1] + sorted(rows[1:], key=lambda row: tuple(map(int, row.split()[1:3])))).encode()
    ties = files["canonical-ties.bip"]
    files.update({"bom.bip": "\ufeff".encode() + ties, "crlf.bip": ties.replace(b"\n", b"\r\n"),
                  "undecodable.bip": ties.replace(b"e 1 ", b"e 1\xff ", 1),
                  "non-ascii-comment.bip": "c poids égaux\n".encode() + ties})
    paths = {}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
        paths[name] = str(tmp_path / name)
    return paths


def test_instance_files_load_as_the_line_pass_reads_them(tmp_path):
    """The CLI loads every instance file as the line pass reads its text,
    or refuses it with the same message, whichever parser takes it."""
    def outcome(load, path):
        try:
            return load(path)
        except bipmatch.cli.ParseError as exc:
            return str(exc)

    paths = _instance_files(tmp_path)
    for name in ("canonical-ties.bip", "grouped-dense.bip"):
        assert _parse_canonical(Path(paths[name]).read_bytes()) is not None
    loaded = {name: outcome(bipmatch.cli._load_instance, path) for name, path in paths.items()}
    assert loaded == {name: outcome(lambda p: _parse_lines(bipmatch.cli._read(p)), path)
                      for name, path in paths.items()}
    assert loaded["undecodable.bip"].startswith(f"{paths['undecodable.bip']} is not UTF-8 text")


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_instance_read_once_from_a_pipe(capsys, tmp_path):
    """An instance the CLI reads from a pipe, which can be read only once,
    gives the output a regular file gives, or the same exit code and
    message: a byte-order mark and CRLF line ends included."""
    def write(fd, content):
        try:
            with open(fd, "wb") as handle:
                handle.write(content)
        except BrokenPipeError:
            pass  # the CLI stopped before reading it all

    for path in _instance_files(tmp_path).values():
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=write, args=(write_end, Path(path).read_bytes()))
        writer.start()
        pipe = f"/dev/fd/{read_end}"
        try:
            piped = run(capsys, "duals", pipe)
        finally:
            os.close(read_end)
            writer.join()
        code, out, err = run(capsys, "duals", path)
        assert piped == (code, out, err.replace(path, pipe))
