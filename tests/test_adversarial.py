"""Relative error and the worst-case posterior search."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costrisk as cr
from costrisk.adversarial import ESTIMATORS, MAX_REFINE_ITERATIONS, MIN_RESOLUTION
from costrisk.errors import (
    CostRiskError,
    DimensionMismatchError,
    MissingEmbeddingError,
    NotNormalizedError,
)

from conftest import random_float_cost, random_valid_cost
from reference_search import reference_worst_case


def _distinct_embedding(rng, n):
    """Distinct positions: uniform floats, or small integers whose
    midpoints make exact ties for the snapped mean."""
    if rng.random() < 0.5:
        return tuple(float(x) for x in rng.sample(range(-3, 4), n))
    while True:
        emb = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        if len(set(emb)) == n:
            return emb


class TestRelativeError:
    def test_coin_game_tie(self, coin_cost):
        post = cr.Posterior((0.5, 0.5))
        mode = cr.mode_estimate(post)
        assert mode == 0
        assert cr.relative_error(mode, post, coin_cost) == 0.5

    def test_optimal_estimate_has_zero_error(self, two_coin_cost):
        rng = random.Random(17)
        for _ in range(20):
            weights = [rng.randint(0, 10) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = 1
            post = cr.Posterior(
                tuple(Fraction(w, sum(weights)) for w in weights)
            )
            best = cr.bayes_estimate(post, two_coin_cost).state
            assert cr.relative_error(best, post, two_coin_cost) == 0.0

    def test_two_coin_mode_pays_double(self, two_coin_cost):
        post = cr.Posterior((0.39, 0.40, 0.21, 0.0))
        assert cr.relative_error(1, post, two_coin_cost) == 1.0

    def test_zero_over_zero_is_zero(self):
        trivial = cr.normalize_cost(cr.validate_cost([[0, 0], [0, 0]]))
        post = cr.Posterior((0.5, 0.5))
        assert cr.relative_error(1, post, trivial) == 0.0

    def test_positive_over_zero_is_unbounded(self):
        cost = cr.CostMatrix([[0, 0], [1, 0]], normalized=True)
        post = cr.Posterior((0.4, 0.6))
        assert cr.relative_error(1, post, cost) == math.inf

    def test_requires_normalized(self, two_coin_raw):
        with pytest.raises(NotNormalizedError):
            cr.relative_error(0, cr.Posterior((0.25,) * 4), two_coin_raw)

    def test_dimension_mismatch(self, coin_cost):
        with pytest.raises(DimensionMismatchError):
            cr.relative_error(0, cr.Posterior((0.2, 0.3, 0.5)), coin_cost)


class TestWorstCase:
    def test_coin_game_half(self, coin_cost):
        wc = cr.worst_case(
            "mode", coin_cost, config=cr.SearchConfig(resolution=1e-3)
        )
        assert 0.499 <= wc.value <= 0.5
        assert wc.estimator_state == 0
        assert wc.optimal_state == 1

    def test_three_state_near_uniform_witness(self, three_abs_cost, three_space):
        wc = cr.worst_case(
            "mode",
            three_abs_cost,
            three_space,
            cr.SearchConfig(resolution=0.01, refine_iterations=10),
        )
        assert wc.value >= 0.49
        l1 = sum(abs(p - 1 / 3) for p in wc.witness.as_floats())
        assert l1 <= 0.02

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("resolution", [0.1, 0.05])
    def test_appropriate_cost_never_loses(self, n, resolution):
        cfg = cr.SearchConfig(resolution=resolution, refine_iterations=5)
        assert cr.worst_case("mode", cr.zero_one_cost(n), config=cfg).value == 0.0
        trivial = cr.normalize_cost(cr.validate_cost([[3] * n] * n))
        assert trivial.trivial
        assert cr.worst_case("mode", trivial, config=cfg).value == 0.0

    def test_zero_pair_with_unit_third(self, zero_class_cost):
        wc = cr.worst_case(
            "mode",
            zero_class_cost,
            config=cr.SearchConfig(resolution=0.01, refine_iterations=10),
        )
        assert wc.value >= 0.99

    def test_unbounded_dominates(self):
        cost = cr.CostMatrix([[0, 0], [1, 0]], normalized=True)
        wc = cr.worst_case("mode", cost, config=cr.SearchConfig(resolution=0.1))
        assert wc.unbounded
        assert wc.value == math.inf

    def test_witness_value_reproducible(
        self, coin_cost, two_coin_cost, three_abs_cost, zero_class_cost, three_space
    ):
        for cost, space in (
            (coin_cost, None),
            (two_coin_cost, None),
            (three_abs_cost, three_space),
            (zero_class_cost, None),
        ):
            wc = cr.worst_case(
                "mode", cost, space, cr.SearchConfig(resolution=0.05, refine_iterations=8)
            )
            replay = cr.relative_error(wc.estimator_state, wc.witness, cost)
            assert replay == wc.value

    def test_dominates_closed_form_bounds(
        self, coin_cost, two_coin_cost, three_abs_cost, zero_class_cost
    ):
        for cost in (coin_cost, two_coin_cost, three_abs_cost, zero_class_cost):
            bound = cr.mode_error_lower_bound(cost)
            wc = cr.worst_case(
                "mode", cost, config=cr.SearchConfig(resolution=0.02, refine_iterations=10)
            )
            assert wc.value >= 0.9 * bound.value

    def test_monotone_in_resolution(
        self, coin_cost, two_coin_cost, three_abs_cost, zero_class_cost
    ):
        for cost in (coin_cost, two_coin_cost, three_abs_cost, zero_class_cost):
            values = [
                cr.worst_case(
                    "mode",
                    cost,
                    config=cr.SearchConfig(resolution=r, refine_iterations=6),
                ).value
                for r in (0.1, 0.05, 0.025)
            ]
            assert values[0] <= values[1] <= values[2]

    def test_deterministic(self, two_coin_cost):
        cfg = cr.SearchConfig(resolution=0.05, refine_iterations=8)
        a = cr.worst_case("mode", two_coin_cost, config=cfg)
        b = cr.worst_case("mode", two_coin_cost, config=cfg)
        assert a == b

    def test_median_appropriate_for_absolute(self, three_abs_cost, three_space):
        wc = cr.worst_case(
            "median",
            three_abs_cost,
            three_space,
            cr.SearchConfig(resolution=0.02, refine_iterations=6),
        )
        assert wc.value == 0.0

    def test_snapped_mean_appropriate_for_squared(self):
        space = cr.StateSpace(("a", "b", "c", "d"), (-1.0, 0.0, 0.5, 2.0))
        cost = cr.normalize_cost(cr.distance_to_matrix(cr.squared_profile(), space))
        wc = cr.worst_case(
            "mean_snapped",
            cost,
            space,
            cr.SearchConfig(resolution=0.05, refine_iterations=6),
        )
        assert wc.value == 0.0

    def test_bayes_estimator_is_always_optimal(self, two_coin_cost):
        wc = cr.worst_case(
            "bayes", two_coin_cost, config=cr.SearchConfig(resolution=0.1)
        )
        assert wc.value == 0.0

    def test_single_state_space(self):
        cost = cr.CostMatrix([[0]], normalized=True)
        wc = cr.worst_case("mode", cost)
        assert wc.value == 0.0
        assert wc.witness.probs == (Fraction(1),)

    def test_requires_embedding_for_median(self, coin_cost):
        with pytest.raises((MissingEmbeddingError, CostRiskError)):
            cr.worst_case("median", coin_cost, cr.StateSpace(("h", "t")))

    def test_space_size_must_match_cost(self, coin_cost, three_space):
        with pytest.raises(DimensionMismatchError):
            cr.worst_case("median", coin_cost, three_space)

    def test_requires_normalized(self, two_coin_raw):
        with pytest.raises(NotNormalizedError):
            cr.worst_case("mode", two_coin_raw)

    def test_unknown_estimator(self, coin_cost):
        with pytest.raises(CostRiskError):
            cr.worst_case("mediane", coin_cost)

    def test_support_cap_two_still_finds_grid_candidates(self, zero_class_cost):
        wc = cr.worst_case(
            "mode",
            zero_class_cost,
            config=cr.SearchConfig(resolution=0.01, support_cap=2, refine_iterations=5),
        )
        assert wc.value >= 0.99  # grid phase covers what triples would have

    def test_grid_skip_notice_for_large_spaces(self):
        cost = cr.zero_one_cost(7)
        with pytest.warns(UserWarning, match="grid skipped"):
            wc = cr.worst_case(
                "mode", cost, config=cr.SearchConfig(resolution=0.1, refine_iterations=2)
            )
        assert wc.value == 0.0


class TestKernelMatchesReference:
    """The integer kernel against the Fraction search it replaced."""

    @staticmethod
    def _check(cost, space, cfg):
        for est in ESTIMATORS:
            assert cr.worst_case(est, cost, space, cfg) == reference_worst_case(
                est, cost, space, cfg
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        floats=st.booleans(),
        resolution=st.sampled_from((0.1, 0.2, 0.25)),
        epsilon=st.sampled_from((1e-4, 0.01, 0.3)),
        support_cap=st.sampled_from((2, 3)),
        refine_iterations=st.integers(0, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_costs(
        self, seed, n, floats, resolution, epsilon, support_cap, refine_iterations
    ):
        rng = random.Random(seed)
        raw = random_float_cost(rng, n) if floats else random_valid_cost(rng, n)
        space = cr.StateSpace(
            tuple(f"s{i}" for i in range(n)), _distinct_embedding(rng, n)
        )
        cfg = cr.SearchConfig(
            resolution=resolution,
            support_cap=support_cap,
            refine_iterations=refine_iterations,
            epsilon=epsilon,
        )
        self._check(cr.normalize_cost(raw), space, cfg)

    def test_seven_states_skip_the_grid(self):
        rng = random.Random(7)
        space = cr.StateSpace(tuple("abcdefg"), _distinct_embedding(rng, 7))
        cost = cr.normalize_cost(random_valid_cost(rng, 7))
        cfg = cr.SearchConfig(resolution=0.25, refine_iterations=3)
        with pytest.warns(UserWarning, match="grid skipped"):
            self._check(cost, space, cfg)


class TestSearchConfig:
    def test_budgets_reject_past_the_boundary(self):
        cr.SearchConfig(resolution=MIN_RESOLUTION)
        cr.SearchConfig(refine_iterations=MAX_REFINE_ITERATIONS)
        with pytest.raises(CostRiskError, match="resolution"):
            cr.SearchConfig(resolution=math.nextafter(MIN_RESOLUTION, 0))
        with pytest.raises(CostRiskError, match="refine_iterations"):
            cr.SearchConfig(refine_iterations=MAX_REFINE_ITERATIONS + 1)

    def test_validation(self):
        with pytest.raises(CostRiskError):
            cr.SearchConfig(resolution=0.7)
        with pytest.raises(CostRiskError):
            cr.SearchConfig(support_cap=1)
        with pytest.raises(CostRiskError):
            cr.SearchConfig(refine_iterations=-1)
        with pytest.raises(CostRiskError):
            cr.SearchConfig(epsilon=0.0)
