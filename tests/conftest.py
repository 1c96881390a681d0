"""Shared fixtures and independent oracles for the test suite.

The brute-force helpers here deliberately avoid the library's own code
paths so they can serve as oracles: plain Python sums for expected
costs, a numpy grid scan for continuous cost minimization.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import costrisk as cr


def rational_posterior(rng: random.Random, n: int, den: int = 1000) -> cr.Posterior:
    """Random exact-rational posterior."""
    weights = [rng.randint(0, den) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return cr.Posterior(tuple(Fraction(w, total) for w in weights))


def random_valid_cost(rng: random.Random, n: int, den: int = 20) -> cr.CostMatrix:
    """Random matrix with each diagonal forced down to its column minimum."""
    entries = [
        [Fraction(rng.randint(-5, 15), den) for _ in range(n)] for _ in range(n)
    ]
    for t in range(n):
        entries[t][t] = min(entries[s][t] for s in range(n))
    return cr.validate_cost(entries)


def random_float_cost(rng: random.Random, n: int) -> cr.CostMatrix:
    """Random matrix of float entries, which become large-denominator
    Fractions, with every diagonal entry strictly below its column."""
    return cr.validate_cost(
        [[rng.uniform(-1.0, 0.0) if s == t else rng.uniform(0.0, 3.0)
          for t in range(n)] for s in range(n)]
    )


def brute_expected_cost(s, probs, entries):
    """Oracle: expected cost as a plain sum, independent of the library."""
    return sum(entries[s][t] * probs[t] for t in range(len(probs)))


def brute_argmin_state(probs, entries):
    """Oracle: lowest-index expected-cost minimizer by exhaustive scan."""
    n = len(probs)
    costs = [brute_expected_cost(s, probs, entries) for s in range(n)]
    best = 0
    for s in range(1, n):
        if costs[s] < costs[best]:
            best = s
    return best, costs


def grid_cost_minimizer(probs, embedding, vector_profile, points=10_000):
    """Oracle: scan the expected distance cost on a dense grid.

    Returns (minimizing point, minimal cost, grid step).  Ties resolve
    to the lowest grid point.
    """
    emb = np.asarray(embedding, dtype=float)
    p = np.asarray(probs, dtype=float)
    grid = np.linspace(emb.min(), emb.max(), points)
    costs = (vector_profile(np.abs(grid[:, None] - emb[None, :])) * p[None, :]).sum(axis=1)
    k = int(np.argmin(costs))
    return float(grid[k]), float(costs[k]), float(grid[1] - grid[0])


@pytest.fixture
def coin_cost():
    """Unfair-coin guessing game, winnings negated into costs."""
    return cr.normalize_cost(cr.validate_cost([[-1, 2], [1, -1]]))


@pytest.fixture
def two_coin_raw():
    """Dependent two-coin guessing game with a zero-cost pair."""
    return cr.validate_cost(
        [[0, 0, 1, 1], [0, 0, 2, 1], [1, 2, 0, 1], [1, 1, 1, 0]]
    )


@pytest.fixture
def two_coin_cost(two_coin_raw):
    return cr.normalize_cost(two_coin_raw)


@pytest.fixture
def three_space():
    return cr.StateSpace(("0", "1", "2"), (0.0, 1.0, 2.0))


@pytest.fixture
def three_abs_cost(three_space):
    return cr.normalize_cost(cr.distance_to_matrix(cr.abs_profile(), three_space))


@pytest.fixture
def zero_class_cost():
    """Zero-cost pair {a, b} with unit costs to and from c."""
    return cr.CostMatrix(
        [[0, 0, 1], [0, 0, 1], [1, 1, 0]], normalized=True
    )
