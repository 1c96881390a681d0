"""Cost model: construction, validation, normalization, distance costs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import costrisk as cr
from costrisk.errors import (
    CostRiskError,
    DiagonalNotMinimalError,
    DimensionMismatchError,
    MissingEmbeddingError,
    NonFiniteError,
    NotNormalizedError,
)

from conftest import brute_argmin_state, rational_posterior, random_valid_cost


class TestStateSpace:
    def test_basic(self):
        space = cr.StateSpace(("a", "b", "c"))
        assert len(space) == 3
        assert space.index_of("b") == 1

    def test_labels_must_be_distinct(self):
        with pytest.raises(CostRiskError):
            cr.StateSpace(("a", "a"))

    def test_labels_must_be_nonempty(self):
        with pytest.raises(CostRiskError):
            cr.StateSpace(())
        with pytest.raises(CostRiskError):
            cr.StateSpace(("a", ""))

    def test_embedding_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            cr.StateSpace(("a", "b"), (0.0,))

    def test_embedding_values_distinct(self):
        with pytest.raises(CostRiskError):
            cr.StateSpace(("a", "b"), (1.0, 1.0))

    def test_embedding_order_and_diameter(self):
        space = cr.StateSpace(("a", "b", "c"), (2.0, -1.0, 0.5))
        order = space.embedding_order()
        assert order == (1, 2, 0)
        # the order's ends span the embedding
        assert space.embedding[order[-1]] - space.embedding[order[0]] == 3.0

    def test_missing_embedding(self):
        with pytest.raises(MissingEmbeddingError):
            cr.StateSpace(("a", "b")).require_embedding()

    def test_immutable(self):
        space = cr.StateSpace(("a", "b"))
        with pytest.raises(AttributeError):
            space.labels = ("x", "y")


class TestPosterior:
    def test_exact_renormalization(self):
        post = cr.Posterior((0.333, 0.333, 0.334))
        assert sum(post.probs) == 1

    def test_rejects_negative(self):
        with pytest.raises(CostRiskError):
            cr.Posterior((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(CostRiskError):
            cr.Posterior((0.5, 0.4))

    def test_tolerates_tiny_drift(self):
        post = cr.Posterior((0.5, 0.5 + 4e-10))
        assert sum(post.probs) == 1

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            cr.Posterior((float("nan"), 1.0))


class TestValidateCost:
    def test_zero_one_matrix_valid(self):
        cost = cr.validate_cost([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert cost.size == 3
        assert not cost.normalized

    def test_two_coin_matrix_valid(self, two_coin_raw):
        assert two_coin_raw.size == 4

    def test_diagonal_above_column_rejected(self):
        with pytest.raises(DiagonalNotMinimalError) as err:
            cr.validate_cost([[1, 0], [0, 1]])
        assert err.value.column == 0
        assert err.value.row == 1

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            cr.validate_cost([[0, float("inf")], [1, 0]])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cr.validate_cost([[0, 1], [1, 0, 2]])


class TestNormalizeCost:
    def test_coin_game_regrets(self):
        norm = cr.normalize_cost(cr.validate_cost([[-1, 2], [1, -1]]))
        assert norm.entries == (
            (Fraction(0), Fraction(1)),
            (Fraction(2, 3), Fraction(0)),
        )
        assert norm.normalized

    def test_zero_one_fixed_point(self):
        cost = cr.validate_cost([[0, 1], [1, 0]])
        assert cr.normalize_cost(cost).entries == cost.entries

    def test_distance_matrix_halved(self, three_space):
        # hand-checked regret transform: diagonal already zero, max is 2
        raw = cr.distance_to_matrix(cr.abs_profile(), three_space)
        expected = tuple(
            tuple(Fraction(v) / 2 for v in row) for row in raw.entries
        )
        assert cr.normalize_cost(raw).entries == expected

    def test_trivial_cost_flagged(self):
        norm = cr.normalize_cost(cr.validate_cost([[5, 5], [5, 5]]))
        assert norm.trivial
        assert norm.entries == ((0, 0), (0, 0))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            cost = random_valid_cost(rng, rng.randint(1, 5))
            once = cr.normalize_cost(cost)
            assert cr.normalize_cost(once).entries == once.entries

    def test_normalized_flag_enforced(self):
        with pytest.raises(NotNormalizedError):
            cr.CostMatrix([[0, 2], [1, 0]], normalized=True)
        with pytest.raises(NotNormalizedError):
            cr.CostMatrix([[1, 1], [1, 1]], normalized=True)


@st.composite
def cost_and_weights(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[draw(st.integers(0, 12)) for _ in range(n)] for _ in range(n)]
    for t in range(n):
        rows[t][t] = min(rows[s][t] for s in range(n))
    weights = [draw(st.integers(0, 9)) for _ in range(n)]
    if sum(weights) == 0:
        weights[0] = 1
    return rows, weights


class TestNormalizationPreservesOrder:
    @given(cost_and_weights())
    @settings(max_examples=200, deadline=None)
    def test_expected_cost_inequalities_survive(self, data):
        rows, weights = data
        total = sum(weights)
        probs = [Fraction(w, total) for w in weights]
        raw = cr.validate_cost(rows)
        norm = cr.normalize_cost(raw)
        n = raw.size

        def sign(x):
            return (x > 0) - (x < 0)

        for s in range(n):
            for u in range(n):
                before = sum(raw.entries[s][t] * probs[t] for t in range(n)) - sum(
                    raw.entries[u][t] * probs[t] for t in range(n)
                )
                after = sum(norm.entries[s][t] * probs[t] for t in range(n)) - sum(
                    norm.entries[u][t] * probs[t] for t in range(n)
                )
                assert sign(before) == sign(after)

    def test_argmin_identical_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 5)
            raw = random_valid_cost(rng, n)
            norm = cr.normalize_cost(raw)
            post = rational_posterior(rng, n)
            before, _ = brute_argmin_state(post.probs, raw.entries)
            after, _ = brute_argmin_state(post.probs, norm.entries)
            assert before == after


class TestDistanceToMatrix:
    def test_abs_on_integer_line(self, three_space):
        cost = cr.distance_to_matrix(cr.abs_profile(), three_space)
        assert cost.as_floats() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_squared_two_states(self):
        space = cr.StateSpace(("a", "b"), (0.0, 1.0))
        cost = cr.distance_to_matrix(cr.squared_profile(), space)
        assert cost.as_floats() == [[0, 1], [1, 0]]

    def test_single_state(self):
        space = cr.StateSpace(("a",), (0.0,))
        cost = cr.distance_to_matrix(cr.abs_profile(), space)
        assert cost.as_floats() == [[0]]

    def test_embedding_required(self):
        with pytest.raises(MissingEmbeddingError):
            cr.distance_to_matrix(cr.abs_profile(), cr.StateSpace(("a", "b")))

    def test_symmetric_profile_gives_symmetric_matrix(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 6)
            emb = rng.sample(range(-50, 50), n)
            space = cr.StateSpace(
                tuple(f"s{k}" for k in range(n)), tuple(float(x) for x in emb)
            )
            cost = cr.distance_to_matrix(cr.squared_profile(), space)
            for i in range(n):
                assert cost.entries[i][i] == 0
                for j in range(n):
                    assert cost.entries[i][j] == cost.entries[j][i]


class TestDistanceCost:
    def test_profile_must_vanish_at_zero(self):
        # |d|^0 is 1 at d = 0, so power 0 is no distance cost
        with pytest.raises(CostRiskError):
            cr.DistanceCost(0)
        for power in (1, 2, 3, 4):
            assert cr.DistanceCost(power).value(0.0) == 0.0

    @pytest.mark.parametrize("power", [0, -1, 1.5, True])
    def test_power_must_be_a_whole_number_at_least_1(self, power):
        with pytest.raises(CostRiskError):
            cr.DistanceCost(power)

    def test_value_multiplies(self):
        # d * d, not d ** 2: the two differ in the last bit for some doubles
        assert 4.536**2 != 4.536 * 4.536
        assert cr.squared_profile().value(4.536) == 4.536 * 4.536
        assert cr.squared_profile().value(-4.536) == 4.536 * 4.536
        assert cr.abs_profile().value(-4.536) == 4.536
        assert cr.DistanceCost(3).value(-2.0) == 8.0

    def test_overflowing_distance_rejected(self):
        space = cr.StateSpace(("a", "b"), (-1e200, 1e200))
        with pytest.raises(NonFiniteError):
            cr.distance_to_matrix(cr.squared_profile(), space)
