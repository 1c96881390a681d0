"""Appropriateness verdicts, lower-bound constructions, profile checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costrisk as cr
from costrisk.errors import NotNormalizedError
from costrisk.model import ENTRY_TOL

from conftest import random_float_cost, random_valid_cost, rational_posterior
from reference_appropriateness import (
    reference_check_mode_appropriate,
    reference_mode_error_lower_bound,
)

_ETA = Fraction(1, 2**60)
#: Entries at, just inside and just outside ENTRY_TOL of 0, 1/2 and 1.
_NEAR_TOL = sorted(
    {
        min(max(base + sign * off, Fraction(0)), Fraction(1))
        for base in (Fraction(0), Fraction(1, 2), Fraction(1))
        for off in (0, ENTRY_TOL, ENTRY_TOL - _ETA, ENTRY_TOL + _ETA)
        for sign in (1, -1)
    }
)
#: The floats nearest the same points: their common denominator L is a
#: power of two, so L * ENTRY_TOL is not an integer and a float just
#: past the tolerance sits one unit above floor(L * ENTRY_TOL).
_NEAR_TOL_FLOATS = sorted(
    {Fraction(0)}
    | {
        Fraction(min(x, 1.0))
        for v in _NEAR_TOL
        if v
        for x in (math.nextafter(float(v), 0.0), float(v), math.nextafter(float(v), 2.0))
    }
)


class TestCheckModeAppropriate:
    def test_zero_one_is_appropriate(self):
        verdict = cr.check_mode_appropriate(cr.zero_one_cost(4))
        assert verdict.appropriate
        assert verdict.classification == "zero_one"
        assert verdict.violations == ()

    def test_trivial_is_appropriate(self):
        trivial = cr.normalize_cost(cr.validate_cost([[2, 2], [2, 2]]))
        verdict = cr.check_mode_appropriate(trivial)
        assert verdict.appropriate
        assert verdict.classification == "trivial"

    def test_coin_game_asymmetry(self, coin_cost):
        verdict = cr.check_mode_appropriate(coin_cost)
        assert not verdict.appropriate
        assert verdict.classification == "inappropriate"
        asym = [v for v in verdict.violations if v.condition == "asymmetry"]
        assert len(asym) == 1
        assert asym[0].states == (0, 1)
        assert asym[0].bound == 0.5  # exactly 1/(2/3) - 1

    def test_two_coin_equivalence(self, two_coin_cost):
        verdict = cr.check_mode_appropriate(two_coin_cost)
        assert not verdict.appropriate
        equiv = [v for v in verdict.violations if v.condition == "equivalence"]
        # reporting HH is free when HT holds, yet they price TH differently
        assert any(v.states == (0, 1, 2) and v.bound == 1.0 for v in equiv)

    def test_three_state_unequal_positive(self, three_abs_cost):
        verdict = cr.check_mode_appropriate(three_abs_cost)
        assert not verdict.appropriate
        uneq = [v for v in verdict.violations if v.condition == "unequal_positive"]
        assert len(uneq) == 1
        assert uneq[0].bound == 0.5

    def test_zero_class_flagged(self, zero_class_cost):
        verdict = cr.check_mode_appropriate(zero_class_cost)
        assert not verdict.appropriate
        zero = [v for v in verdict.violations if v.condition == "zero_class"]
        assert len(zero) == 1
        assert zero[0].bound == 1.0
        # the clean pair itself raises no asymmetry or equivalence flags
        assert all(v.condition in ("zero_class",) for v in verdict.violations)

    def test_violation_bounds_positive(self, coin_cost, two_coin_cost, three_abs_cost):
        for cost in (coin_cost, two_coin_cost, three_abs_cost):
            for violation in cr.check_mode_appropriate(cost).violations:
                assert violation.bound > 0

    def test_requires_normalized(self, two_coin_raw):
        with pytest.raises(NotNormalizedError):
            cr.check_mode_appropriate(two_coin_raw)

    def test_permutation_invariance(self, two_coin_cost):
        entries = two_coin_cost.entries
        n = two_coin_cost.size
        base = cr.check_mode_appropriate(two_coin_cost)
        rng = random.Random(13)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = cr.CostMatrix(
                tuple(
                    tuple(entries[perm[s]][perm[t]] for t in range(n))
                    for s in range(n)
                ),
                normalized=True,
            )
            verdict = cr.check_mode_appropriate(permuted)
            assert verdict.classification == base.classification
            assert verdict.appropriate == base.appropriate
            assert sorted(
                (v.condition, v.bound) for v in verdict.violations
            ) == sorted((v.condition, v.bound) for v in base.violations)

    def test_soundness_on_appropriate_costs(self):
        rng = random.Random(41)
        for n in range(2, 7):
            cost = cr.zero_one_cost(n)
            assert cr.check_mode_appropriate(cost).appropriate
            for _ in range(100):
                post = rational_posterior(rng, n)
                mode = cr.mode_estimate(post)
                assert mode == cr.bayes_estimate(post, cost).state
                assert cr.relative_error(mode, post, cost) == 0.0


class TestModeErrorLowerBound:
    def test_coin_game(self, coin_cost):
        bound = cr.mode_error_lower_bound(coin_cost)
        assert bound.value == 0.5
        assert bound.construction == "asymmetry"
        assert bound.states == (0, 1)

    def test_three_state_triple(self, three_abs_cost):
        bound = cr.mode_error_lower_bound(three_abs_cost)
        assert bound.value == 0.5
        assert bound.construction == "unequal_positive"
        assert bound.states == (1, 0, 2)

    def test_two_coin_zero_substitute(self, two_coin_cost):
        bound = cr.mode_error_lower_bound(two_coin_cost)
        assert bound.value == 1.0
        assert bound.construction == "equivalence"
        # mode HT, free substitute HH, separated on TH
        assert bound.states == (1, 0, 2)

    def test_zero_one_no_construction(self):
        bound = cr.mode_error_lower_bound(cr.zero_one_cost(4))
        assert bound.value == 0.0
        assert bound.construction == "none"
        assert bound.witness is None

    def test_zero_class_limit(self, zero_class_cost):
        bound = cr.mode_error_lower_bound(zero_class_cost)
        assert bound.value == 1.0
        assert bound.construction == "zero_class"
        assert bound.states == (0, 1, 2)

    def test_requires_normalized(self, two_coin_raw):
        with pytest.raises(NotNormalizedError):
            cr.mode_error_lower_bound(two_coin_raw)

    def test_two_state_one_way_zero_pair(self):
        # a normalized 2x2 with an off-diagonal zero is necessarily
        # asymmetric; the checks flag it (unbounded) even though none of
        # the closed-form constructions needs to fire
        cost = cr.CostMatrix([[0, 0], [1, 0]], normalized=True)
        verdict = cr.check_mode_appropriate(cost)
        assert not verdict.appropriate
        conditions = {v.condition for v in verdict.violations}
        assert "asymmetry" in conditions and "zero_class" in conditions
        assert any(v.bound == math.inf for v in verdict.violations)
        bound = cr.mode_error_lower_bound(cost)
        assert bound.value == 0.0 and bound.construction == "none"
        # the search still certifies the unbounded worst case
        wc = cr.worst_case("mode", cost, config=cr.SearchConfig(resolution=0.1))
        assert wc.unbounded

    def test_witness_families_realize_bounds(
        self, coin_cost, two_coin_cost, three_abs_cost, zero_class_cost
    ):
        # limits are approached, never attained: at eps = 1e-4 the witness
        # must already collect at least 90% of the claimed bound
        for cost in (coin_cost, two_coin_cost, three_abs_cost, zero_class_cost):
            bound = cr.mode_error_lower_bound(cost)
            post = bound.witness.posterior(Fraction(1, 10000))
            achieved = cr.relative_error(cr.mode_estimate(post), post, cost)
            assert achieved >= 0.9 * bound.value


class TestMatchesReference:
    """The integer checks against their plain Fraction reference."""

    @staticmethod
    def _check(cost):
        assert cr.check_mode_appropriate(cost) == reference_check_mode_appropriate(cost)
        assert cr.mode_error_lower_bound(cost) == reference_mode_error_lower_bound(cost)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), floats=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_costs(self, seed, n, floats):
        rng = random.Random(seed)
        raw = random_float_cost(rng, n) if floats else random_valid_cost(rng, n)
        self._check(cr.normalize_cost(raw))

    @given(n=st.integers(2, 4), near=st.sampled_from([_NEAR_TOL, _NEAR_TOL_FLOATS]),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_entries_at_the_tolerance(self, n, near, data):
        values = data.draw(
            st.lists(st.sampled_from(near), min_size=n * n, max_size=n * n)
        )
        entries = [
            [Fraction(0) if s == t else values[s * n + t] for t in range(n)]
            for s in range(n)
        ]
        if max(max(row) for row in entries) != 1:
            entries[0][1] = Fraction(1)
        self._check(cr.CostMatrix(entries, normalized=True))

    @pytest.mark.parametrize("off", [ENTRY_TOL - _ETA, ENTRY_TOL, ENTRY_TOL + _ETA])
    def test_zero_class_unit_at_the_tolerance(self, off):
        # the zero pair {a, b} trades with c at 1 or within off of it
        near = 1 - off
        self._check(cr.CostMatrix([[0, 0, near], [0, 0, 1], [1, near, 0]], normalized=True))


class TestMeanCheck:
    def test_squared_passes(self):
        verdict = cr.check_mean_appropriate(cr.squared_profile(), diameter=2.0)
        assert verdict.appropriate
        assert verdict.max_residual == 0.0

    def test_scaled_squared_passes(self):
        # power-of-two scale: float multiplication commutes, residual exact 0
        profile = cr.DistanceCost(lambda d: 4.0 * d * d, lambda d: 8.0 * d)
        verdict = cr.check_mean_appropriate(profile, diameter=2.0)
        assert verdict.appropriate
        assert verdict.max_residual == 0.0
        # arbitrary scale: one ulp of evaluation noise is all that remains
        profile = cr.DistanceCost(lambda d: 3.5 * d * d, lambda d: 7.0 * d)
        verdict = cr.check_mean_appropriate(profile, diameter=2.0)
        assert verdict.appropriate
        assert verdict.max_residual < 1e-14

    def test_absolute_fails(self):
        verdict = cr.check_mean_appropriate(cr.abs_profile(), diameter=2.0)
        assert not verdict.appropriate
        # constant slope: scaling by n misses by n - 1, already 1 at n = 2
        assert verdict.max_residual >= 1.0
        assert cr.mean_scaling_residual(cr.abs_profile(), 0.5, 2) == 1.0

    def test_quartic_residual_value(self):
        quartic = cr.DistanceCost(lambda d: d**4, lambda d: 4 * d**3)
        assert cr.mean_scaling_residual(quartic, 1.0, 2) == 0.75
        verdict = cr.check_mean_appropriate(quartic, diameter=2.0)
        assert not verdict.appropriate

    def test_numeric_derivative_tolerance(self):
        # central differences are exact on quadratics, so the numeric
        # route passes at its looser tolerance
        numeric = cr.DistanceCost(lambda d: d * d, "numeric")
        verdict = cr.check_mean_appropriate(numeric, diameter=2.0)
        assert verdict.tolerance == 1e-3
        assert verdict.appropriate
        numeric_quartic = cr.DistanceCost(lambda d: d**4, "numeric")
        assert not cr.check_mean_appropriate(numeric_quartic, diameter=2.0).appropriate

    def test_bad_diameter(self):
        with pytest.raises(cr.CostRiskError):
            cr.check_mean_appropriate(cr.squared_profile(), diameter=0.0)


class TestMedianCheck:
    def test_absolute_passes(self):
        verdict = cr.check_median_appropriate(cr.abs_profile(), diameter=2.0)
        assert verdict.appropriate
        assert verdict.max_residual == 0.0

    def test_scaled_absolute_passes(self):
        profile = cr.DistanceCost(lambda d: 3 * d, lambda d: 3.0)
        assert cr.check_median_appropriate(profile, diameter=2.0).appropriate

    def test_squared_fails(self):
        verdict = cr.check_median_appropriate(cr.squared_profile(), diameter=2.0)
        assert not verdict.appropriate
