"""Command-line front end.

One verb per pipeline, JSON on stdout by default (deterministic: sorted
keys, one object per line), diagnostics on stderr. Exit codes: 0 success,
1 infeasible instance (or failed check), 2 bad input, 3 internal error.

    bipmatch solve instance.bip [--solver exact|auction|rounding]
    bipmatch duals instance.bip [--solver ...]
    bipmatch gcs instance.bip [--prices prices.json]
    bipmatch opt-edges instance.bip [--prices prices.json]
    bipmatch enumerate instance.bip [--prices ...] [--limit N]
    bipmatch preallocate instance.bip --prefs prefs.txt [--prices ...]
    bipmatch optimum instance.bip [--transform doubling|half-doubling|artificial|auto] [--k K]
    bipmatch check instance.bip --matching result.json [--prices prices.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import transforms
from .allowed import optimal_edges
from .enumeration import iter_min_weight_perfect_matchings
from .errors import CoverageRequired, Error, Infeasible, NotSquare, ParseError
from .graph import (MAX_ABS_WEIGHT, Matching, WeightedBipartiteGraph, matching_from_json,
                    parse_instance)
from .preallocation import parse_preferences, preallocate
from .prices import (DualPrices, check_complementary_slackness, dual_objective,
                     edge_slacks, edge_with_slack, prices_from_json, prices_to_json)
from .solvers import solve_auction, solve_exact, solve_via_rounding
from .tight import build_gcs, gcs_to_json

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3

_SOLVERS = {
    "exact": solve_exact,
    "auction": solve_auction,
    "rounding": solve_via_rounding,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipmatch",
        description="Optimum matchings in integer-weighted bipartite graphs.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, help_text):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("instance", help="instance file (p bip / e lines)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    p = add("solve", "matching plus price certificate")
    p.add_argument("--solver", choices=sorted(_SOLVERS), default="exact")
    p = add("duals", "price certificate only")
    p.add_argument("--solver", choices=sorted(_SOLVERS), default="exact")
    p = add("gcs", "tight subgraph under optimal prices")
    p.add_argument("--prices", help="price JSON file; computed when omitted")
    p = add("opt-edges", "all edges in some minimum-weight perfect matching")
    p.add_argument("--prices")
    p = add("enumerate", "stream all minimum-weight perfect matchings (JSON lines)")
    p.add_argument("--prices")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many matchings")
    p = add("preallocate", "optimal matching with the most preferred edges")
    p.add_argument("--prefs", required=True, help="preference file (f lines)")
    p.add_argument("--prices")
    p = add("optimum", "maximum-cardinality matching of minimum weight")
    p.add_argument("--transform",
                   choices=transforms.STRATEGIES + (transforms.AUTO,),
                   default=transforms.AUTO)
    p.add_argument("--k", type=int, default=0,
                   help="free link/padding weight constant")
    p = add("check", "validate a matching/prices pair as an optimality certificate")
    p.add_argument("--matching", required=True,
                   help="matching JSON (bare or as emitted by solve)")
    p.add_argument("--prices", help="price JSON; defaults to the one inside --matching")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}")


def _read_json(path: str, what: str):
    try:
        return json.loads(_read(path))
    except (ValueError, RecursionError) as exc:
        # Malformed JSON, an integer over the digit limit, or too deep nesting.
        raise ParseError(f"{what} file is not valid JSON: {exc}")


def _load_instance(path: str) -> WeightedBipartiteGraph:
    return parse_instance(_read(path))


def _load_prices(graph: WeightedBipartiteGraph, path: str) -> DualPrices:
    return prices_from_json(graph, _read_json(path, "price"))


def _obtain_prices(graph: WeightedBipartiteGraph, path: str | None) -> DualPrices:
    if path is not None:
        return _load_prices(graph, path)
    return solve_via_rounding(graph).prices


def _emit(payload: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _matching_text(matching: Matching) -> str:
    pairs = " ".join(f"({i},{j})" for i, j in
                     matching.graph.original_pairs(matching.edge_indices))
    return (f"cardinality {matching.cardinality}, weight {matching.weight()}: "
            f"{pairs}" if pairs else
            f"cardinality {matching.cardinality}, weight {matching.weight()}: (empty)")


def _cmd_solve(args) -> int:
    graph = _load_instance(args.instance)
    result = _SOLVERS[args.solver](graph)
    _emit(result.to_json(), args.format,
          _matching_text(result.matching)
          + f"\ndual objective {dual_objective(result.prices)}")
    return EXIT_OK


def _cmd_duals(args) -> int:
    graph = _load_instance(args.instance)
    result = _SOLVERS[args.solver](graph)
    _emit(prices_to_json(graph, result.prices), args.format,
          f"dual objective {dual_objective(result.prices)} "
          f"(denominator {result.prices.den})")
    return EXIT_OK


def _cmd_gcs(args) -> int:
    graph = _load_instance(args.instance)
    prices = _obtain_prices(graph, args.prices)
    tight = build_gcs(graph, prices)
    _emit(gcs_to_json(tight, prices), args.format,
          f"{tight.edge_count} tight of {graph.edge_count} edges")
    return EXIT_OK


def _cmd_opt_edges(args) -> int:
    graph = _load_instance(args.instance)
    prices = _obtain_prices(graph, args.prices)
    edges = optimal_edges(graph, prices)
    _emit(edges.to_json(), args.format,
          f"{len(edges)} of {graph.edge_count} edges lie in some optimal matching")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ParseError("--limit must be non-negative")
    graph = _load_instance(args.instance)
    prices = _obtain_prices(graph, args.prices)
    for matching in islice(iter_min_weight_perfect_matchings(graph, prices), args.limit):
        if args.format == "json":
            print(json.dumps(matching.to_json(), sort_keys=True))
        else:
            print(_matching_text(matching))
    return EXIT_OK


def _cmd_preallocate(args) -> int:
    graph = _load_instance(args.instance)
    prefs = parse_preferences(_read(args.prefs), graph)
    prices = _obtain_prices(graph, args.prices)
    matching = preallocate(graph, prices, prefs)
    satisfied = sum(1 for e in matching if e in prefs)
    payload = matching.to_json()
    payload["preferred"] = satisfied
    _emit(payload, args.format,
          _matching_text(matching) + f"\npreferred edges used: {satisfied}")
    return EXIT_OK


def _cmd_optimum(args) -> int:
    if abs(args.k) > MAX_ABS_WEIGHT:
        raise ParseError(f"--k {args.k} exceeds the weight bound {MAX_ABS_WEIGHT}")
    graph = _load_instance(args.instance)
    matching = transforms.optimum_matching(graph, args.transform, args.k)
    _emit(matching.to_json(), args.format, _matching_text(matching))
    return EXIT_OK


def _cmd_check(args) -> int:
    graph = _load_instance(args.instance)
    data = _read_json(args.matching, "matching")
    if isinstance(data, dict) and "matching" in data:
        matching_data = data["matching"]
        prices_data = data.get("prices")
    else:
        matching_data = data
        prices_data = None
    matching = matching_from_json(graph, matching_data)
    if args.prices is not None:
        prices = _load_prices(graph, args.prices)
    elif prices_data is not None:
        prices = prices_from_json(graph, prices_data)
    else:
        raise ParseError("no prices given: pass --prices or a composed result file")

    # A valid certificate takes one slack scan; only a failed one is
    # scanned again to say what is wrong with it. Edges are named by their
    # 1-based input labels, the first in input order.
    problems = []
    if not (matching.is_perfect and check_complementary_slackness(graph, matching, prices)):
        slacks = edge_slacks(graph, prices)

        def named(e: int) -> str:
            return edge_with_slack(graph, e, slacks[e], prices.den)

        violated = [e for e, slack in enumerate(slacks) if slack < 0]
        if violated:
            problems.append(f"{len(violated)} dual-infeasible edge(s), first {named(violated[0])}")
        if not matching.is_perfect:
            problems.append("matching is not perfect")
        loose = next((e for e in matching if slacks[e]), None)
        if loose is not None:
            problems.append(f"matched edge {named(loose)} is not tight")
    ok = not problems
    payload = {
        "valid": ok,
        "problems": problems,
        "weight": matching.weight(),
        "dual_objective": str(dual_objective(prices)),
    }
    _emit(payload, args.format,
          "certificate valid" if ok else "certificate INVALID: " + "; ".join(problems))
    return EXIT_OK if ok else EXIT_INFEASIBLE


_COMMANDS = {
    "solve": _cmd_solve,
    "duals": _cmd_duals,
    "gcs": _cmd_gcs,
    "opt-edges": _cmd_opt_edges,
    "enumerate": _cmd_enumerate,
    "preallocate": _cmd_preallocate,
    "optimum": _cmd_optimum,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return _COMMANDS[args.verb](args)
    except (Infeasible, NotSquare, CoverageRequired) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        import traceback  # only on this path: it costs memory at every start
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
