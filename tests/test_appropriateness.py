"""Appropriateness verdicts, the exact mode supremum, profile checks."""

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
    LOCAL_CONDITIONS,
    reference_check_mode_appropriate,
    reference_supremum,
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


#: Matrices whose closed-form bounds overstated the supremum, with the
#: exact supremum after normalization.
OVERSTATED_MATRICES = [
    ([[0, 3, 13], [2, 0, 14], [11, 13, 0]], Fraction(1, 2)),
    ([[0, 16, 0], [6, 0, 5], [0, 6, 0]], Fraction(5, 3)),
]


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
        # reporting HH is free when HT holds, yet they price TH differently;
        # on those three states the mode can overpay by 2x
        assert any(v.states == (0, 1, 2) and v.bound == 2.0 for v in equiv)

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
        assert bound.construction == "vertex"
        assert bound.states == (0, 1)

    def test_three_state_triple(self, three_abs_cost):
        bound = cr.mode_error_lower_bound(three_abs_cost)
        assert bound.value == 0.5
        assert bound.construction == "vertex"
        # the three-way tie with an end state on top
        assert bound.states == (0, 1, 2)

    def test_two_coin_zero_substitute(self, two_coin_cost):
        bound = cr.mode_error_lower_bound(two_coin_cost)
        assert bound.value == 2.0
        assert bound.construction == "vertex"
        # mode TH over the free pair HH, HT: summed over the face, HH
        # costs 1/2 and TH 3/2
        assert bound.states == (2, 0, 1)

    def test_zero_one_no_construction(self):
        bound = cr.mode_error_lower_bound(cr.zero_one_cost(4))
        assert bound.value == 0.0
        assert bound.construction == "none"
        assert bound.witness is None

    def test_zero_class_limit(self, zero_class_cost):
        bound = cr.mode_error_lower_bound(zero_class_cost)
        assert bound.value == 1.0
        assert bound.construction == "vertex"
        assert bound.states == (2, 0, 1)

    def test_requires_normalized(self, two_coin_raw):
        with pytest.raises(NotNormalizedError):
            cr.mode_error_lower_bound(two_coin_raw)

    def test_two_state_one_way_zero_pair(self):
        # a normalized 2x2 with an off-diagonal zero is necessarily
        # asymmetric: near the tie the mode reports the state whose cost
        # is positive while the other report costs nothing
        cost = cr.CostMatrix([[0, 0], [1, 0]], normalized=True)
        verdict = cr.check_mode_appropriate(cost)
        assert not verdict.appropriate
        conditions = {v.condition for v in verdict.violations}
        assert "asymmetry" in conditions and "zero_class" in conditions
        assert all(v.bound == math.inf for v in verdict.violations)
        bound = cr.mode_error_lower_bound(cost)
        assert bound.value == math.inf and bound.construction == "vertex"
        assert bound.states == (1, 0)
        # the search still certifies the unbounded worst case
        wc = cr.worst_case("mode", cost, config=cr.SearchConfig(resolution=0.1))
        assert wc.unbounded

    @pytest.mark.parametrize("raw, exact", OVERSTATED_MATRICES)
    def test_formerly_overstated_bounds(self, raw, exact):
        # closed forms once reported 0.923 and 2.2 here
        cost = cr.normalize_cost(cr.validate_cost(raw))
        assert cr.mode_error_lower_bound(cost).value == float(exact)
        assert max(v.bound for v in cr.check_mode_appropriate(cost).violations) == float(exact)

    def test_witness_families_realize_bounds(
        self, coin_cost, two_coin_cost, three_abs_cost, zero_class_cost
    ):
        # limits are approached, never attained: at eps = 1e-4 the witness
        # must already collect at least 90% of the claimed bound, and an
        # unbounded one must stay unbounded
        costs = [coin_cost, two_coin_cost, three_abs_cost, zero_class_cost]
        costs += [cr.normalize_cost(cr.validate_cost(raw)) for raw, _ in OVERSTATED_MATRICES]
        costs.append(cr.CostMatrix([[0, 0], [1, 0]], normalized=True))
        for cost in costs:
            bound = cr.mode_error_lower_bound(cost)
            post = bound.witness.posterior(Fraction(1, 10000))
            mode = cr.mode_estimate(post)
            assert mode == bound.states[0]
            achieved = cr.relative_error(mode, post, cost)
            if bound.value == math.inf:
                assert achieved == math.inf
            else:
                assert 0.9 * bound.value <= achieved <= bound.value


def _zero_pair_cost(rng: random.Random, n: int) -> cr.CostMatrix:
    """Matrix of small integers with at least one zero-cost pair."""
    n = max(n, 2)
    entries = [[0 if s == t else rng.choice((0, 1, 1, 2, 3)) for t in range(n)]
               for s in range(n)]
    i, j = rng.sample(range(n), 2)
    entries[i][j] = 0
    if rng.random() < 0.5:
        entries[j][i] = 0
    return cr.validate_cost(entries)


_COST_MAKERS = {
    "valid": random_valid_cost,
    "float": random_float_cost,
    "zero_pair": _zero_pair_cost,
}


def _random_cost(kind: str, seed: int, n: int) -> cr.CostMatrix:
    return cr.normalize_cost(_COST_MAKERS[kind](random.Random(seed), n))


class TestExactSupremum:
    """The exact core against the 2^n face enumeration."""

    @staticmethod
    def _check(cost):
        exact = reference_supremum(cost)
        bound = cr.mode_error_lower_bound(cost)
        verdict = cr.check_mode_appropriate(cost)
        assert bound.value == float(exact)
        # the mode theorem: the mode never overpays exactly on trivial and 0-1 costs
        assert (exact == 0) == verdict.appropriate
        if exact == 0:
            assert (bound.construction, bound.states, bound.witness) == ("none", (), None)
        else:
            assert bound.construction == "vertex"
            # the witness face attains the supremum on its own
            assert reference_supremum(cost, bound.states) == exact
        for v in verdict.violations:
            # sound by construction: the supremum over the violation's states
            assert v.bound == float(reference_supremum(cost, v.states))
            assert 0 < v.bound <= bound.value
            if v.condition not in LOCAL_CONDITIONS:
                assert v.bound == bound.value

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           kind=st.sampled_from(sorted(_COST_MAKERS)))
    @settings(max_examples=200, deadline=None)
    def test_random_costs(self, seed, n, kind):
        self._check(_random_cost(kind, seed, n))

    @pytest.mark.parametrize("kind", sorted(_COST_MAKERS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_eight_states(self, kind, seed):
        self._check(_random_cost(kind, seed, 8))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_appropriate_costs(self, n):
        trivial = cr.normalize_cost(cr.validate_cost([[1] * n for _ in range(n)]))
        for cost in (cr.zero_one_cost(n), trivial):
            self._check(cost)


class TestMatchesReference:
    """The integer conditions against their plain Fraction reference."""

    @staticmethod
    def _check(cost):
        verdict = cr.check_mode_appropriate(cost)
        classification, violations = reference_check_mode_appropriate(cost)
        assert verdict.classification == classification
        assert verdict.appropriate == (classification in ("zero_one", "trivial"))
        assert [
            (v.condition, v.states if v.condition in LOCAL_CONDITIONS else None)
            for v in verdict.violations
        ] == violations
        for v in verdict.violations:
            assert v.bound == float(reference_supremum(cost, v.states)) > 0

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
