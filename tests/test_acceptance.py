"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import pytest

import costrisk as cr

from conftest import grid_cost_minimizer, rational_posterior, random_valid_cost

def _random_float_posterior(rng, n):
    weights = [rng.random() for _ in range(n)]
    total = sum(weights)
    return cr.Posterior(tuple(w / total for w in weights))

def _random_embedding(rng, n):
    while True:
        emb = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        if len(set(emb)) == n:
            return emb

def test_criterion_1_coin_game():
    start = time.perf_counter()
    cost = cr.normalize_cost(cr.validate_cost([[-1, 2], [1, -1]]))
    bound = cr.mode_error_lower_bound(cost)
    assert bound.value == 0.5
    wc = cr.worst_case("mode", cost, config=cr.SearchConfig(resolution=1e-3))
    assert 0.499 <= wc.value <= 0.5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"criterion 1 (coin game): PASS worst={wc.value} bound={bound.value} "
        f"elapsed={elapsed:.3f}s"
    )

def test_criterion_2_three_state_absolute_difference():
    start = time.perf_counter()
    space = cr.StateSpace(("0", "1", "2"), (0.0, 1.0, 2.0))
    cost = cr.normalize_cost(cr.distance_to_matrix(cr.abs_profile(), space))
    bound = cr.mode_error_lower_bound(cost)
    assert bound.value == 0.5
    assert bound.construction == "vertex"
    assert bound.states == (0, 1, 2)
    wc = cr.worst_case(
        "mode", cost, space, cr.SearchConfig(resolution=1e-2, refine_iterations=10)
    )
    assert wc.value >= 0.49
    l1 = sum(abs(p - 1 / 3) for p in wc.witness.as_floats())
    assert l1 <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 2 (three-state absolute): PASS worst={wc.value} L1={l1:.6f} "
        f"elapsed={elapsed:.3f}s"
    )

def test_criterion_3_two_coin_game():
    cost = cr.normalize_cost(
        cr.validate_cost([[0, 0, 1, 1], [0, 0, 2, 1], [1, 2, 0, 1], [1, 1, 1, 0]])
    )
    verdict = cr.check_mode_appropriate(cost)
    assert not verdict.appropriate
    # zero pair (HH, HT) priced apart by TH
    assert any(
        v.condition == "equivalence" and v.states == (0, 1, 2)
        for v in verdict.violations
    )
    bound = cr.mode_error_lower_bound(cost)
    assert bound.value == 2.0  # the exact supremum
    assert bound.construction == "vertex"
    wc = cr.worst_case(
        "mode", cost, config=cr.SearchConfig(resolution=0.05, refine_iterations=10)
    )
    assert wc.value >= 0.9
    post = cr.Posterior((0.39, 0.40, 0.21, 0.0))
    assert cr.mode_estimate(post) == 1  # HT
    assert cr.bayes_estimate(post, cost).state == 0  # HH
    assert cr.relative_error(1, post, cost) == 1.0
    print(f"criterion 3 (two-coin game): PASS worst={wc.value} bound={bound.value}")

def test_criterion_4_zero_class_construction():
    cost = cr.CostMatrix([[0, 0, 1], [0, 0, 1], [1, 1, 0]], normalized=True)
    post = cr.Posterior((0.333, 0.333, 0.334))
    mode = cr.mode_estimate(post)
    value = cr.relative_error(mode, post, cost)
    assert value == pytest.approx(0.666 / 0.334 - 1, abs=1e-9)
    wc = cr.worst_case(
        "mode", cost, config=cr.SearchConfig(resolution=0.01, refine_iterations=10)
    )
    assert wc.value >= 0.99
    print(f"criterion 4 (zero-class): PASS value={value} worst={wc.value}")

def test_criterion_5_mode_soundness_on_zero_one():
    rng = random.Random(20260809)
    checked = 0
    for n in range(2, 7):
        cost = cr.zero_one_cost(n)
        for _ in range(1000):
            post = rational_posterior(rng, n)
            mode = cr.mode_estimate(post)
            assert mode == cr.bayes_estimate(post, cost).state
            assert cr.relative_error(mode, post, cost) == 0.0
            checked += 1
    assert checked == 5000
    print(f"criterion 5 (mode soundness): PASS cases={checked}")

def test_criterion_6_mean_optimality_for_quadratic():
    rng = random.Random(6)
    emb = _random_embedding(rng, 5)
    space = cr.StateSpace(tuple(f"s{k}" for k in range(5)), emb)
    for _ in range(100):
        post = _random_float_posterior(rng, 5)
        mean = cr.mean_estimate(post, space)
        e_star, _, step = grid_cost_minimizer(post.as_floats(), emb, lambda d: d**2)
        assert abs(e_star - mean) <= step + 1e-12

    # the verdict is the theorem: power 2 and no other
    assert cr.check_mean_appropriate(cr.squared_profile()).appropriate
    for power in (1, 3, 4):
        assert not cr.check_mean_appropriate(cr.DistanceCost(power)).appropriate
    print("criterion 6 (mean/quadratic): PASS grid checks on 100 posteriors")

def test_criterion_7_median_optimality_for_absolute():
    rng = random.Random(7)
    emb = _random_embedding(rng, 5)
    space = cr.StateSpace(tuple(f"s{k}" for k in range(5)), emb)
    for _ in range(100):
        post = _random_float_posterior(rng, 5)
        med = emb[cr.median_estimate(post, space)]
        e_star, _, step = grid_cost_minimizer(post.as_floats(), emb, lambda d: d)
        assert abs(e_star - med) <= step + 1e-12

    assert cr.check_median_appropriate(cr.abs_profile()).appropriate
    for power in (2, 3, 4):
        assert not cr.check_median_appropriate(cr.DistanceCost(power)).appropriate
    print("criterion 7 (median/absolute): PASS grid checks on 100 posteriors")

def test_criterion_8_normalization_preserves_argmin():
    rng = random.Random(8)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        raw = random_valid_cost(rng, n)
        norm = cr.normalize_cost(raw)
        for _ in range(200):
            post = rational_posterior(rng, n, den=100)
            before = cr.bayes_estimate(post, raw).state
            after = cr.bayes_estimate(post, norm).state
            assert before == after
            checked += 1
    print(f"criterion 8 (normalization equivalence): PASS cases={checked}")

def test_criterion_9_builtin_reports_deterministic():
    for name, scenario in cr.builtin_scenarios().items():
        first = cr.render_report(cr.run_scenario(scenario), "json")
        second = cr.render_report(cr.run_scenario(scenario), "json")
        assert first == second, f"builtin {name} not byte-identical"
        json.loads(first)  # machine readable
    print("criterion 9 (determinism): PASS all builtins byte-identical")
