"""Estimator behavior against brute-force and grid oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costrisk as cr
from costrisk.errors import DimensionMismatchError, MissingEmbeddingError
from costrisk.estimators import bayes_estimate_exact, expected_cost_exact

from conftest import (
    brute_argmin_state,
    brute_expected_cost,
    grid_cost_minimizer,
    random_float_cost,
    random_valid_cost,
    rational_posterior,
)


class TestExpectedCost:
    def test_two_coin_example(self, two_coin_raw):
        post = cr.Posterior((0.39, 0.40, 0.21, 0.0))
        # brute-force: 0*0.39 + 0*0.40 + 1*0.21 + 1*0
        assert cr.expected_cost(0, post, two_coin_raw) == pytest.approx(0.21, abs=1e-12)

    def test_all_zero_cost(self):
        cost = cr.validate_cost([[0, 0], [0, 0]])
        post = cr.Posterior((0.3, 0.7))
        assert cr.expected_cost(0, post, cost) == 0.0

    def test_single_state(self):
        cost = cr.normalize_cost(cr.validate_cost([[5]]))
        assert cr.expected_cost(0, cr.Posterior((1.0,)), cost) == 0.0

    def test_dimension_mismatch(self):
        cost = cr.validate_cost([[0, 1], [1, 0]])
        with pytest.raises(DimensionMismatchError):
            cr.expected_cost(0, cr.Posterior((0.2, 0.3, 0.5)), cost)
        with pytest.raises(DimensionMismatchError):
            cr.expected_cost(2, cr.Posterior((0.5, 0.5)), cost)


class TestModeEstimate:
    @pytest.mark.parametrize(
        "probs,expected",
        [
            ((0.5, 0.3, 0.2), 0),
            ((0.333, 0.333, 0.334), 2),
            ((0.5, 0.5), 0),  # documented tie rule: lowest index
        ],
    )
    def test_examples(self, probs, expected):
        assert cr.mode_estimate(cr.Posterior(probs)) == expected


class TestMeanEstimate:
    def test_uniform_symmetric(self, three_space):
        post = cr.Posterior((Fraction(1, 3),) * 3)
        assert cr.mean_estimate(post, three_space) == 1.0

    def test_lopsided_split_balances(self):
        # two-thirds of the mass at -1, one third at 2
        space = cr.StateSpace(("lo", "hi"), (-1.0, 2.0))
        post = cr.Posterior((Fraction(2, 3), Fraction(1, 3)))
        assert cr.mean_estimate(post, space) == 0.0

    def test_point_mass(self):
        space = cr.StateSpace(("a", "b"), (0.7, 1.5))
        assert cr.mean_estimate(cr.Posterior((1.0, 0.0)), space) == 0.7

    def test_needs_embedding(self):
        with pytest.raises(MissingEmbeddingError):
            cr.mean_estimate(cr.Posterior((1.0,)), cr.StateSpace(("a",)))


class TestMedianEstimate:
    def test_uniform_middle(self, three_space):
        post = cr.Posterior((Fraction(1, 3),) * 3)
        assert cr.median_estimate(post, three_space) == 1

    def test_cdf_first_crossing(self, three_space):
        # cumulative mass 0.2, 0.4, 1.0: first at or above one half is state 2
        post = cr.Posterior((0.2, 0.2, 0.6))
        assert cr.median_estimate(post, three_space) == 2

    def test_point_mass(self, three_space):
        for idx in range(3):
            probs = [0.0] * 3
            probs[idx] = 1.0
            assert cr.median_estimate(cr.Posterior(tuple(probs)), three_space) == idx

    def test_uses_embedding_order(self):
        space = cr.StateSpace(("a", "b", "c"), (5.0, -1.0, 2.0))
        post = cr.Posterior((Fraction(1, 3),) * 3)
        # embedding order is b, c, a; the half point lands on c
        assert cr.median_estimate(post, space) == 2


class TestBayesEstimate:
    def test_two_coin_mode_disagreement(self, two_coin_raw):
        post = cr.Posterior((0.39, 0.40, 0.21, 0.0))
        # brute-force enumeration of all four expected costs
        costs = [
            sum(
                float(two_coin_raw.entries[s][t]) * p
                for t, p in enumerate((0.39, 0.40, 0.21, 0.0))
            )
            for s in range(4)
        ]
        assert costs.index(min(costs)) == 0
        result = cr.bayes_estimate(post, two_coin_raw)
        assert result.state == 0
        assert result.cost == pytest.approx(0.21, abs=1e-12)
        # the mode picks HT although HH is the better report
        assert cr.mode_estimate(post) == 1
        assert cr.expected_cost(1, post, two_coin_raw) == pytest.approx(0.42, abs=1e-12)

    def test_uniform_absolute_distance(self, three_space):
        raw = cr.distance_to_matrix(cr.abs_profile(), three_space)
        post = cr.Posterior((Fraction(1, 3),) * 3)
        state, cost = bayes_estimate_exact(post, raw)
        assert (state, cost) == (1, Fraction(2, 3))

    @given(st.integers(2, 6), st.lists(st.integers(0, 9), min_size=2, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_zero_one_agrees_with_mode(self, n, weights):
        weights = (weights + [1] * n)[:n]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        post = cr.Posterior(tuple(Fraction(w, total) for w in weights))
        cost = cr.zero_one_cost(n)
        assert cr.bayes_estimate(post, cost).state == cr.mode_estimate(post)

    def test_oracle_consistency_random(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 8)
            cost = random_valid_cost(rng, n)
            post = rational_posterior(rng, n)
            _, best = bayes_estimate_exact(post, cost)
            for s in range(n):
                assert best <= sum(
                    cost.entries[s][t] * post.probs[t] for t in range(n)
                )


class TestMatchesBruteForce:
    """The exact estimators, which read the integer forms of cost and
    posterior, against plain Fraction sums over the stored probabilities."""

    @staticmethod
    def _check(post, cost, space):
        n = cost.size
        for s in range(n):
            assert expected_cost_exact(s, post, cost) == brute_expected_cost(
                s, post.probs, cost.entries
            )
        best, costs = brute_argmin_state(post.probs, cost.entries)
        assert bayes_estimate_exact(post, cost) == (best, costs[best])
        emb = space.embedding
        assert cr.mean_estimate(post, space) == math.fsum(
            float(p) * x for p, x in zip(post.probs, emb)
        )
        cum = Fraction(0)
        for idx in space.embedding_order():
            cum += post.probs[idx]
            if cum >= Fraction(1, 2):
                break
        assert cr.median_estimate(post, space) == idx

    def test_float_posterior_is_rescaled(self, two_coin_raw):
        probs = (0.1, 0.2, 0.3, 0.4)
        assert sum(map(Fraction, probs)) != 1
        post = cr.Posterior(probs)
        assert sum(post.probs) == 1
        space = cr.StateSpace(("a", "b", "c", "d"), (0.0, 1.0, 3.0, 7.0))
        self._check(post, two_coin_raw, space)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), floats=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random(self, seed, n, floats):
        rng = random.Random(seed)
        cost = random_float_cost(rng, n) if floats else random_valid_cost(rng, n)
        if rng.random() < 0.5:
            cost = cr.normalize_cost(cost)
        # float probabilities: zeros make ties, and the sum is rarely 1
        xs = [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
        if not any(xs):
            xs[0] = 1.0
        total = sum(xs)
        post = cr.Posterior(tuple(x / total for x in xs))
        space = cr.StateSpace(
            tuple(f"s{i}" for i in range(n)), tuple(rng.sample(range(-9, 10), n))
        )
        self._check(post, cost, space)


class TestNearestState:
    def test_snap_and_tie_to_lower(self):
        space = cr.StateSpace(("a", "b", "c"), (0.0, 1.0, 3.0))
        assert cr.nearest_state(space, 0.4) == 0
        assert cr.nearest_state(space, 2.6) == 2
        assert cr.nearest_state(space, 0.5) == 0  # tie goes to the lower position
        assert cr.nearest_state(space, 2.0) == 1

    def test_tie_lower_position_not_lower_index(self):
        space = cr.StateSpace(("a", "b"), (1.0, 0.0))
        assert cr.nearest_state(space, 0.5) == 1


class TestStationarityResidual:
    def test_quadratic_residual_is_twice_distance_from_mean(self):
        rng = random.Random(5)
        space = cr.StateSpace(
            ("a", "b", "c", "d"), (-1.0, -0.25, 0.4, 0.9)
        )
        squared = cr.squared_profile()
        for _ in range(20):
            post = rational_posterior(rng, 4)
            mean = cr.mean_estimate(post, space)
            e = rng.uniform(-1.0, 0.9)
            res = cr.stationarity_residual(e, post, space, squared)
            assert res == pytest.approx(2 * (e - mean), abs=1e-12)
            assert abs(cr.stationarity_residual(mean, post, space, squared)) < 1e-12

    def test_absolute_cost_just_below_top_atom(self, three_space):
        post = cr.Posterior((0.2, 0.2, 0.6))
        res = cr.stationarity_residual(1.999, post, three_space, cr.abs_profile())
        assert res == pytest.approx(-0.2, abs=1e-12)

    def test_point_mass_at_e(self):
        space = cr.StateSpace(("a", "b"), (0.3, 0.8))
        post = cr.Posterior((1.0, 0.0))
        assert cr.stationarity_residual(0.3, post, space, cr.abs_profile()) == 0.0

    def test_sign_change_brackets_grid_minimizer(self):
        # convex increasing profile: residual is nondecreasing in e and
        # changes sign at the expected-cost minimizer
        rng = random.Random(9)
        space = cr.StateSpace(
            ("a", "b", "c", "d", "e"), (-1.0, -0.5, 0.1, 0.55, 1.0)
        )
        profile = cr.squared_profile()
        for _ in range(10):
            post = rational_posterior(rng, 5)
            e_star, _, step = grid_cost_minimizer(
                post.as_floats(), space.embedding, lambda d: d**2
            )
            lo, hi = -1.0, 1.0
            assert cr.stationarity_residual(lo, post, space, profile) <= 1e-12
            assert cr.stationarity_residual(hi, post, space, profile) >= -1e-12
            # first grid point with nonnegative residual sits next to the minimizer
            grid = [lo + k * step for k in range(int((hi - lo) / step) + 1)]
            crossing = next(
                (e for e in grid if cr.stationarity_residual(e, post, space, profile) >= 0),
                hi,
            )
            assert abs(crossing - e_star) <= 2 * step


class TestMeanMedianOptimality:
    def test_mean_minimizes_quadratic_cost_on_grid(self):
        rng = random.Random(31)
        space = cr.StateSpace(
            ("a", "b", "c", "d", "e"), (-1.0, -0.3, 0.2, 0.6, 1.0)
        )
        for _ in range(20):
            post = rational_posterior(rng, 5)
            mean = cr.mean_estimate(post, space)
            e_star, _, step = grid_cost_minimizer(
                post.as_floats(), space.embedding, lambda d: d**2
            )
            assert abs(e_star - mean) <= step + 1e-12

    def test_median_minimizes_absolute_cost_on_grid(self):
        rng = random.Random(37)
        space = cr.StateSpace(
            ("a", "b", "c", "d", "e"), (-1.0, -0.3, 0.2, 0.6, 1.0)
        )
        for _ in range(20):
            post = rational_posterior(rng, 5)
            med = space.embedding[cr.median_estimate(post, space)]
            e_star, _, step = grid_cost_minimizer(
                post.as_floats(), space.embedding, lambda d: d
            )
            assert abs(e_star - med) <= step + 1e-12
