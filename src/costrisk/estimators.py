"""Mode, mean, median, and Bayes-optimal estimators.

Pure functions of immutable inputs; safe for arbitrary parallel use.
The ``*_exact`` variants return Fractions and are what the adversarial
search builds on; the plain versions convert to float at the boundary.
Expected costs are integer dot products of the cost matrix's and the
posterior's cached integer forms (``CostMatrix.scaled``,
``Posterior.scaled``) over the shared denominator L * d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError
from .model import CostMatrix, Posterior, StateSpace


def _check_sizes(post: Posterior, cost: CostMatrix) -> int:
    if len(post) != cost.size:
        raise DimensionMismatchError(
            f"posterior has {len(post)} entries, cost matrix is {cost.size}x{cost.size}"
        )
    return cost.size


def _check_state(s: int, n: int) -> None:
    if not 0 <= s < n:
        raise DimensionMismatchError(f"state index {s} out of range for {n} states")


def expected_cost_exact(s: int, post: Posterior, cost: CostMatrix) -> Fraction:
    """Exact expected posterior cost of reporting state s."""
    n = _check_sizes(post, cost)
    _check_state(s, n)
    rows, L = cost.scaled
    w, d = post.scaled
    return Fraction(sum(map(mul, rows[s], w)), L * d)


def expected_cost(s: int, post: Posterior, cost: CostMatrix) -> float:
    """Expected posterior cost of reporting s: the cost of s against each
    possible true state, weighted by its posterior probability."""
    return float(expected_cost_exact(s, post, cost))


def mode_estimate(post: Posterior) -> int:
    """Index of the most probable state; ties go to the lowest index."""
    best = 0
    for i in range(1, len(post)):
        if post.probs[i] > post.probs[best]:
            best = i
    return best


def mean_estimate(post: Posterior, space: StateSpace) -> float:
    """Posterior expectation of the embedded position.

    The result is a real number, not necessarily the position of any
    state; use :func:`nearest_state` to snap it back onto the space.
    """
    emb = space.require_embedding()
    if len(post) != len(emb):
        raise DimensionMismatchError(
            f"posterior has {len(post)} entries for {len(emb)} states"
        )
    return weighted_mean(*post.scaled, emb)


def weighted_mean(w: Sequence[int], d: int, emb: Sequence[float]) -> float:
    """fsum of (w_t / d) * x_t; int / int is correctly rounded, so each
    term equals float(probs[t]) * x_t for the posterior w / d."""
    return math.fsum((wt / d) * x for wt, x in zip(w, emb))


def median_estimate(post: Posterior, space: StateSpace) -> int:
    """First state, in embedding order, where the cumulative probability
    reaches one half (the lower median)."""
    emb = space.require_embedding()
    if len(post) != len(emb):
        raise DimensionMismatchError(
            f"posterior has {len(post)} entries for {len(emb)} states"
        )
    return weighted_median(*post.scaled, space.embedding_order())


def weighted_median(w: Sequence[int], d: int, order: Sequence[int]) -> int:
    """First index in ``order`` where the cumulative weight reaches d / 2."""
    cum = 0
    for idx in order:
        cum += w[idx]
        if 2 * cum >= d:
            return idx
    return order[-1]  # unreachable: weights sum to d


class BayesResult(NamedTuple):
    state: int
    cost: float


def bayes_estimate_exact(post: Posterior, cost: CostMatrix) -> tuple[int, Fraction]:
    """Lowest-index expected-cost minimizer and its exact expected cost."""
    _check_sizes(post, cost)
    rows, L = cost.scaled
    w, d = post.scaled
    dots = [sum(map(mul, row, w)) for row in rows]
    low = min(dots)
    return dots.index(low), Fraction(low, L * d)


def bayes_estimate(post: Posterior, cost: CostMatrix) -> BayesResult:
    """Brute-force expected-cost minimizer; ties go to the lowest index.

    This enumeration is the oracle every other estimator is judged
    against.
    """
    state, c = bayes_estimate_exact(post, cost)
    return BayesResult(state, float(c))


def nearest_state(space: StateSpace, value: float) -> int:
    """Embedded state closest to ``value``; ties go to the lower position."""
    emb = space.require_embedding()
    best = None
    best_dist = math.inf
    for idx in space.embedding_order():
        d = abs(emb[idx] - value)
        if d < best_dist:
            best, best_dist = idx, d
    assert best is not None
    return best

