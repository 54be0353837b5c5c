"""Optimum matchings in integer-weighted bipartite graphs.

Exact primal-dual solvers for the assignment problem, the tight subgraph
induced by a price certificate, and everything it unlocks: all edges in
some optimal matching, streaming enumeration of all optimal matchings,
preference-maximizing optimal matchings, and optimum matchings and their
optimal edges on unbalanced or infeasible instances, answered directly
rather than through the paper's reductions.
"""

from .allowed import allowed_edges, optimal_edges
from .enumeration import iter_min_weight_perfect_matchings, iter_perfect_matchings
from .errors import Error, Infeasible, InfeasibleDual, NotSquare, ParseError
from .graph import (MAX_ABS_WEIGHT, EdgeSet, Matching, WeightedBipartiteGraph,
                    matching_from_json, parse_instance, serialize_instance)
from .matching import max_cardinality_matching
from .preallocation import parse_preferences, preallocate
from .prices import (DualPrices, SlackViolation, check_complementary_slackness,
                     check_dual_feasible, check_eps_optimal, dual_objective,
                     prices_from_json, prices_to_json, round_to_optimal)
from .solvers import SolveResult, SolveStats, solve_auction, solve_exact, solve_via_rounding
from .tight import build_gcs, gcs_to_json
from .transforms import (AUTO, FULL_DOUBLING, HALF_DOUBLING, PADDING, choose_strategy,
                         optimal_edges_general, optimum_matching)

__version__ = "0.1.0"

__all__ = [
    "AUTO",
    "DualPrices",
    "EdgeSet",
    "Error",
    "FULL_DOUBLING",
    "HALF_DOUBLING",
    "Infeasible",
    "InfeasibleDual",
    "MAX_ABS_WEIGHT",
    "Matching",
    "NotSquare",
    "PADDING",
    "ParseError",
    "SlackViolation",
    "SolveResult",
    "SolveStats",
    "WeightedBipartiteGraph",
    "allowed_edges",
    "build_gcs",
    "check_complementary_slackness",
    "check_dual_feasible",
    "check_eps_optimal",
    "choose_strategy",
    "dual_objective",
    "gcs_to_json",
    "iter_min_weight_perfect_matchings",
    "iter_perfect_matchings",
    "matching_from_json",
    "max_cardinality_matching",
    "optimal_edges",
    "optimal_edges_general",
    "optimum_matching",
    "parse_instance",
    "parse_preferences",
    "preallocate",
    "prices_from_json",
    "prices_to_json",
    "round_to_optimal",
    "serialize_instance",
    "solve_auction",
    "solve_exact",
    "solve_via_rounding",
]
