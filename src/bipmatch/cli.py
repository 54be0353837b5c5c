"""Command-line front end.

One verb per pipeline, JSON on stdout (deterministic: sorted keys, one
object per line), diagnostics on stderr. Exit codes: 0 success,
1 infeasible instance (or failed check), 2 bad input, 3 internal error.

    bipmatch solve instance.bip [--solver exact|auction|rounding]
    bipmatch duals instance.bip [--solver ...]
    bipmatch gcs instance.bip [--prices prices.json]
    bipmatch opt-edges instance.bip [--prices prices.json]
    bipmatch enumerate instance.bip [--prices ...] [--limit N]
    bipmatch preallocate instance.bip --prefs prefs.txt [--prices ...]
    bipmatch optimum instance.bip [--transform auto]
    bipmatch check instance.bip --matching result.json [--prices prices.json]

``main`` may be called repeatedly in one process; every call shares one
parser, built on the first, and ``build_parser()`` returns a fresh one.
That parser holds the ``_cmd_*`` functions, so patching one after the first
call has no effect; ``_SOLVERS`` is still read on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice
from typing import Callable

from . import transforms
from .allowed import optimal_edges
from .enumeration import iter_min_weight_perfect_matchings
from .errors import Error, Infeasible, NotSquare, ParseError
from .graph import Matching, WeightedBipartiteGraph, matching_from_json, parse_instance
from .preallocation import parse_preferences, preallocate
from .prices import (DualPrices, dual_objective, dual_violations, edge_slacks,
                     edge_with_slack, prices_from_json, prices_to_json)
from .solvers import solve_auction, solve_exact, solve_via_rounding
from .tight import gcs_to_json

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

    def add(verb, run, help_text):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("instance", help="instance file (p bip / e lines)")
        p.set_defaults(run=run)
        return p

    p = add("solve", _cmd_solve, "matching plus price certificate")
    p.add_argument("--solver", choices=sorted(_SOLVERS), default="exact")
    p = add("duals", _cmd_duals, "price certificate only")
    p.add_argument("--solver", choices=sorted(_SOLVERS), default="exact")
    p = add("gcs", _cmd_gcs, "tight subgraph under optimal prices")
    p.add_argument("--prices", help="price JSON file; computed when omitted")
    p = add("opt-edges", _cmd_opt_edges, "all edges in some minimum-weight perfect matching")
    p.add_argument("--prices")
    p = add("enumerate", _cmd_enumerate,
            "stream all minimum-weight perfect matchings (JSON lines)")
    p.add_argument("--prices")
    p.add_argument("--limit", type=int, default=None,
                   help="stop after this many matchings")
    p = add("preallocate", _cmd_preallocate, "optimal matching with the most preferred edges")
    p.add_argument("--prefs", required=True, help="preference file (f lines)")
    p.add_argument("--prices")
    p = add("optimum", _cmd_optimum, "maximum-cardinality matching of minimum weight")
    p.add_argument("--transform", choices=[transforms.AUTO], default=transforms.AUTO)
    p = add("check", _cmd_check,
            "validate a matching/prices pair as an optimality certificate")
    p.add_argument("--matching", required=True,
                   help="matching JSON (bare or as emitted by solve)")
    p.add_argument("--prices", help="price JSON; defaults to the one inside --matching")
    return parser


def _read(path: str) -> str:
    # utf-8-sig: a byte-order mark some editors write is dropped, not read
    # as part of the first line or JSON value.
    with open(path, "r", encoding="utf-8-sig") as handle:
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


def _certificate(graph: WeightedBipartiteGraph,
                 path: str | None) -> tuple[DualPrices, Matching | None]:
    """The prices in ``path``, with no matching, or else the exact
    solver's optimal prices with its perfect matching, which they hold
    tight and which spares ``opt-edges``, ``enumerate`` and
    ``preallocate`` a matching search. Those verbs print what every
    optimal certificate gives, so which solver computes it is a matter of
    speed alone."""
    if path is not None:
        return _load_prices(graph, path), None
    result = solve_exact(graph)
    return result.prices, result.matching


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_solve(args) -> int:
    graph = _load_instance(args.instance)
    result = _SOLVERS[args.solver](graph)
    _emit(result.to_json())
    return EXIT_OK


def _cmd_duals(args) -> int:
    graph = _load_instance(args.instance)
    result = _SOLVERS[args.solver](graph)
    _emit(prices_to_json(graph, result.prices))
    return EXIT_OK


def _cmd_gcs(args) -> int:
    graph = _load_instance(args.instance)
    # The printed slacks depend on the certificate: computed ones come from
    # the rounding, whatever ``_certificate`` uses.
    if args.prices is None:
        prices = solve_via_rounding(graph).prices
    else:
        prices = _load_prices(graph, args.prices)
    _emit(gcs_to_json(graph, prices))
    return EXIT_OK


def _cmd_opt_edges(args) -> int:
    graph = _load_instance(args.instance)
    edges = optimal_edges(graph, *_certificate(graph, args.prices))
    _emit(edges.to_json())
    return EXIT_OK


class _EdgeLabels(dict):
    """Edge index -> its ``[i, j]`` label text, rendered on first read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: WeightedBipartiteGraph):
        self._graph = graph

    def __missing__(self, e: int) -> str:
        text = self[e] = "[%d, %d]" % self._graph.original_pair(e)
        return text


def _json_lines(graph: WeightedBipartiteGraph) -> Callable[[Matching], str]:
    """A writer of ``json.dumps(matching.to_json(), sort_keys=True)`` for
    the perfect matchings of one stream of ``graph`` that all have one
    weight, as the minimum-weight perfect matchings do.

    A perfect matching has one edge at each left vertex, so its matched
    edges by left vertex are its edges in sorted label order, as
    ``to_json`` lists them; each edge's ``[i, j]`` text is rendered the
    first time a line prints it, and never for an edge no line prints. The
    weight is read from the first matching written and serves every later
    line.
    """
    label = _EdgeLabels(graph)
    head = f'{{"cardinality": {graph.n_left}, "edges": ['
    tail = None

    def line(matching: Matching) -> str:
        nonlocal tail
        if tail is None:
            tail = f'], "weight": {matching.weight()}}}'
        return head + ", ".join(map(label.__getitem__, matching._mate_left)) + tail
    return line


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ParseError("--limit must be non-negative")
    graph = _load_instance(args.instance)
    matchings = iter_min_weight_perfect_matchings(graph, *_certificate(graph, args.prices))
    render = _json_lines(graph)
    for matching in islice(matchings, args.limit):
        print(render(matching))
    return EXIT_OK


def _cmd_preallocate(args) -> int:
    graph = _load_instance(args.instance)
    prefs = parse_preferences(_read(args.prefs), graph)
    matching = preallocate(optimal_edges(graph, *_certificate(graph, args.prices)), prefs)
    payload = matching.to_json()
    payload["preferred"] = len(set(prefs.edge_indices).intersection(matching.edge_indices))
    _emit(payload)
    return EXIT_OK


def _cmd_optimum(args) -> int:
    graph = _load_instance(args.instance)
    _emit(transforms.optimum_matching(graph).to_json())
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

    # One slack scan words every problem. Edges are named by their 1-based
    # input labels, the first in input order.
    slacks = edge_slacks(graph, prices)
    verdict = dual_violations(graph, slacks, prices.den)[1]
    problems = [verdict] if verdict else []
    if not matching.is_perfect:
        problems.append("matching is not perfect")
    loose = next((e for e in matching if slacks[e]), None)
    if loose is not None:
        named = edge_with_slack(graph, loose, slacks[loose], prices.den)
        problems.append(f"matched edge {named} is not tight")
    _emit({
        "valid": not problems,
        "problems": problems,
        "weight": matching.weight(),
        "dual_objective": str(dual_objective(prices)),
    })
    return EXIT_INFEASIBLE if problems else EXIT_OK


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    try:
        return args.run(args)
    except (Infeasible, NotSquare) as exc:
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
