"""Dual prices and optimality certificates.

Prices live on the vertices: one value per left vertex and one per right
vertex. A matching is a minimum-weight perfect matching exactly when some
price system is feasible (left + right <= weight on every edge) and tight
(equality) on every matched edge; this module provides the checkers for
that condition, its epsilon-relaxed variant, and the rounding procedure
that turns epsilon-optimal fractional prices into integral optimal ones.

All arithmetic is exact. Prices are stored as integer numerators over one
shared positive denominator (1 for integral systems); floats are rejected
outright.

Price JSON: ``{"den": int, "pi": [int, ...], "p": [int, ...]}`` where "pi"
holds the left-side numerators and "p" the right-side numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError
from .graph import Matching, WeightedBipartiteGraph

RationalLike = int | Fraction


def _as_fraction(value, what: str = "value") -> Fraction:
    """Exact conversion; floats are refused to keep the arithmetic exact,
    and bools because they are no numbers."""
    if isinstance(value, float):
        raise TypeError(f"{what} must be an exact rational, not float")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{what} must be an int or Fraction, got {type(value).__name__}")


class DualPrices:
    """A full price system: one rational per vertex, shared denominator."""

    __slots__ = ("_left_num", "_right_num", "_den")

    def __init__(self, left_num: Iterable[int], right_num: Iterable[int], den: int = 1):
        if not isinstance(den, int) or isinstance(den, bool) or den <= 0:
            raise ValueError("denominator must be a positive integer")
        left = tuple(left_num)
        right = tuple(right_num)
        for x in left + right:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError("price numerators must be integers")
        self._left_num = left
        self._right_num = right
        self._den = den

    @classmethod
    def from_values(cls, left: Sequence[RationalLike], right: Sequence[RationalLike],
                    den: int | None = None) -> "DualPrices":
        """Build a price system from exact rationals, scaling everything to
        one common denominator (the lcm of the inputs' denominators unless
        ``den`` is forced)."""
        lf = [_as_fraction(x, "price") for x in left]
        rf = [_as_fraction(x, "price") for x in right]
        if den is None:
            den = 1
            for f in lf + rf:
                den = math.lcm(den, f.denominator)
        for f in lf + rf:
            if den % f.denominator != 0:
                raise ValueError(f"price {f} not representable with denominator {den}")
        return cls([int(f * den) for f in lf], [int(f * den) for f in rf], den)

    @property
    def den(self) -> int:
        return self._den

    @property
    def left_num(self) -> tuple[int, ...]:
        return self._left_num

    @property
    def right_num(self) -> tuple[int, ...]:
        return self._right_num

    @property
    def n_left(self) -> int:
        return len(self._left_num)

    @property
    def n_right(self) -> int:
        return len(self._right_num)

    @property
    def is_integral(self) -> bool:
        return all(x % self._den == 0 for x in self._left_num + self._right_num)

    def left_price(self, u: int) -> Fraction:
        return Fraction(self._left_num[u], self._den)

    def right_price(self, v: int) -> Fraction:
        return Fraction(self._right_num[v], self._den)

    def left_prices(self) -> list[Fraction]:
        return [Fraction(x, self._den) for x in self._left_num]

    def right_prices(self) -> list[Fraction]:
        return [Fraction(x, self._den) for x in self._right_num]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualPrices):
            return NotImplemented
        return (self.left_prices() == other.left_prices()
                and self.right_prices() == other.right_prices())

    def __repr__(self) -> str:
        return (f"DualPrices(left={self._left_num}, right={self._right_num}, "
                f"den={self._den})")


class SlackViolation(NamedTuple):
    """One edge whose price sum exceeds its weight; slack is negative."""

    edge: int
    slack: Fraction


def _require_shape(graph: WeightedBipartiteGraph, prices: DualPrices) -> None:
    if prices.n_left != graph.n_left or prices.n_right != graph.n_right:
        raise ValueError(
            f"price system shape ({prices.n_left}, {prices.n_right}) does not "
            f"match graph ({graph.n_left}, {graph.n_right})")


def edge_slacks(graph: WeightedBipartiteGraph, prices: DualPrices) -> list[int]:
    """The slack of every edge, in edge order, as integer numerators over
    ``prices.den``: weight minus the price sum of its endpoints. Zero
    marks a tight edge, a negative value a violated one."""
    _require_shape(graph, prices)
    left = prices.left_num
    right = prices.right_num
    den = prices.den
    return [w * den - (left[u] + right[v])
            for u, v, w in zip(graph._left_of, graph._right_of, graph._weight_of)]


def edge_with_slack(graph: WeightedBipartiteGraph, e: int, slack: int, den: int) -> str:
    """Edge e by its 1-based input labels with its slack, an integer
    numerator over ``den``, as diagnostics name a violated or loose edge."""
    return f"{graph.original_pair(e)} with slack {Fraction(slack, den)}"


def dual_violations(graph: WeightedBipartiteGraph, slacks: list[int],
                    den: int) -> tuple[list[int], str]:
    """The violated edges of a slack list from ``edge_slacks``, in edge
    order, and the verdict that words them: "N dual-infeasible edge(s),
    first (i, j) with slack s", or "" when there are none. This is the one
    test of a slack for dual feasibility."""
    if min(slacks, default=0) >= 0:  # a scan in C: feasible prices skip the loop below
        return [], ""
    bad = [e for e, slack in enumerate(slacks) if slack < 0]
    first = edge_with_slack(graph, bad[0], slacks[bad[0]], den)
    return bad, f"{len(bad)} dual-infeasible edge(s), first {first}"


def check_dual_feasible(graph: WeightedBipartiteGraph,
                        prices: DualPrices) -> list[SlackViolation]:
    """All edges where left + right price exceeds the weight.

    An empty list means the prices are dual feasible. Violations are
    collected exhaustively rather than fail-fast, for diagnostics.
    """
    slacks = edge_slacks(graph, prices)
    return [SlackViolation(e, Fraction(slacks[e], prices.den))
            for e in dual_violations(graph, slacks, prices.den)[0]]


def check_complementary_slackness(graph: WeightedBipartiteGraph,
                                  matching: Matching,
                                  prices: DualPrices) -> bool:
    """True iff the prices are feasible and exactly tight on every matched
    edge, i.e. the pair certifies a minimum-weight perfect matching. This
    is epsilon-optimality at epsilon 0."""
    return check_eps_optimal(graph, matching, prices, 0)


def check_eps_optimal(graph: WeightedBipartiteGraph,
                      matching: Matching,
                      prices: DualPrices,
                      epsilon: RationalLike) -> bool:
    """True iff the prices overshoot each edge weight by at most epsilon and
    are exactly tight on every matched edge."""
    slacks = edge_slacks(graph, prices)
    if matching.graph is not graph:
        raise ValueError("matching belongs to a different graph")
    if not matching.is_perfect:
        raise ValueError("optimality certificates are defined for perfect matchings")
    eps = _as_fraction(epsilon, "epsilon")
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    # Every slack/den >= -eps, in integers.
    return (min(slacks, default=0) * eps.denominator >= -eps.numerator * prices.den
            and all(slacks[e] == 0 for e in matching.edge_indices))


def dual_objective(prices: DualPrices) -> Fraction:
    """Exact sum of all prices (the dual objective value)."""
    return Fraction(sum(prices.left_num) + sum(prices.right_num), prices.den)


def round_to_optimal(graph: WeightedBipartiteGraph,
                     matching: Matching,
                     prices: DualPrices) -> DualPrices:
    """Convert an epsilon-optimal price system (epsilon <= 1/(n+1), price
    denominators dividing n+1) into integral optimal prices for the same
    matching.

    Right prices are floored after adding a shift t/(n+1): the smallest t
    in {0, ..., n} with t != -floor((n+1) * r) mod (n+1) for every right
    price r, which equals ceil((n+1) * (ceil(r) - r)) mod (n+1). The value
    a price rules out is the one offset that, shrunk by one step, would
    push r + t/(n+1) across an integer, and n prices rule out at most n of
    the n+1 candidates. Each left price is then recomputed from its
    matched edge so the matching stays exactly tight. The matching itself
    is already optimal and is not touched. All of it runs on integer
    numerators: a price x/den is R/(n+1) with R = x*(n+1)/den.

    Raises ValueError when the pair is not epsilon-optimal at 1/(n+1) or
    the prices use finer denominators than n+1 allows.
    """
    _require_shape(graph, prices)
    n = graph.n_left
    modulus = n + 1
    den = prices.den
    for x in prices.left_num + prices.right_num:
        if x * modulus % den:
            f = Fraction(x, den)
            raise ValueError(
                f"price {f} has denominator {f.denominator}, which does not divide {modulus}")
    if not check_eps_optimal(graph, matching, prices, Fraction(1, modulus)):
        raise ValueError(f"pair is not epsilon-optimal at epsilon = 1/{modulus}")

    scaled_right = [x * modulus // den for x in prices.right_num]  # exact
    forbidden = {-r % modulus for r in scaled_right}
    t = next(t for t in range(modulus) if t not in forbidden)
    new_right = [(r + t) // modulus for r in scaled_right]
    new_left = [0] * n
    for e in matching.edge_indices:
        u, v = graph.endpoints(e)
        new_left[u] = graph.weight(e) - new_right[v]
    return DualPrices(new_left, new_right, 1)


# -- serialization -------------------------------------------------------------

def prices_to_json(graph: WeightedBipartiteGraph, prices: DualPrices) -> dict:
    """Price JSON: "pi" holds the left side, "p" the right side."""
    _require_shape(graph, prices)
    return {"den": prices.den, "pi": list(prices.left_num), "p": list(prices.right_num)}


def prices_from_json(graph: WeightedBipartiteGraph, data: dict) -> DualPrices:
    """Parse price JSON: "pi" for the left side, "p" for the right side."""
    try:
        den = data["den"]
        left = list(data["pi"])
        right = list(data["p"])
    except (TypeError, KeyError) as exc:
        raise ParseError(f"price JSON must contain 'den', 'pi', 'p': {exc}")
    if len(left) != graph.n_left or len(right) != graph.n_right:
        raise ParseError(
            f"price JSON shape ({len(left)}, {len(right)}) does not match instance")
    try:
        return DualPrices(left, right, den)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc))
