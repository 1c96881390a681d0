"""Test-only reference for the worst-case search.

This is the straightforward Fraction implementation of the search that
``costrisk.worst_case`` runs as an integer kernel: every candidate is
built as a ``Posterior`` and scored with the brute-force Fraction sums
of ``conftest``, not with the package's estimators (which share the
kernel's integer view), and the Bayes estimator is searched like any
other.  It visits the same candidates in the same order with the same
strict comparison, so the two must agree field for field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from costrisk.adversarial import MAX_GRID_POINTS, SearchConfig, WorstCase
from costrisk.estimators import mode_estimate, nearest_state
from costrisk.model import Posterior, to_fraction

from conftest import brute_argmin_state


def _median(post, space):
    cum = Fraction(0)
    for idx in space.embedding_order():
        cum += post.probs[idx]
        if cum >= Fraction(1, 2):
            return idx


def _mean(post, space):
    return math.fsum(float(p) * x for p, x in zip(post.probs, space.embedding))


def _estimator_fn(name, cost, space):
    if name == "mode":
        return mode_estimate
    if name == "bayes":
        return lambda post: brute_argmin_state(post.probs, cost.entries)[0]
    if name == "median":
        return lambda post: _median(post, space)
    assert name == "mean_snapped"
    return lambda post: nearest_state(space, _mean(post, space))


def _relative_error(estimate, post, cost):
    """(value, optimal state) from the brute-force expected costs."""
    optimal, costs = brute_argmin_state(post.probs, cost.entries)
    low, c = costs[optimal], costs[estimate]
    if low == 0:
        return (Fraction(0) if c == 0 else math.inf), optimal
    return (c - low) / low, optimal


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def reference_worst_case(estimator, cost, space=None, config=None) -> WorstCase:
    cfg = config or SearchConfig()
    est = _estimator_fn(estimator, cost, space)
    n = cost.size
    eps = to_fraction(cfg.epsilon)
    best = {"value": -1, "probs": None, "estimate": 0, "optimal": 0, "method": "grid"}

    def consider(probs, method):
        post = Posterior(probs)
        e_state = est(post)
        val, optimal = _relative_error(e_state, post, cost)
        if val > best["value"]:
            best.update(
                value=val,
                probs=post.probs,
                estimate=e_state,
                optimal=optimal,
                method=method,
            )

    def point(assignment):
        return tuple(assignment.get(i, Fraction(0)) for i in range(n))

    if n == 1:
        consider((Fraction(1),), "grid")
    else:
        den = max(2, round(1 / float(cfg.resolution)))
        qs = sorted(
            {Fraction(k, den) for k in range(1, den)}
            | {Fraction(1, 2), (1 + eps) / 2, (1 - eps) / 2, eps, 1 - eps}
        )
        for i in range(n):
            for j in range(i + 1, n):
                for q in qs:
                    consider(point({i: q, j: 1 - q}), "structured_pair")

        if cfg.support_cap >= 3 and n >= 3:
            third = Fraction(1, 3)
            near = (1 - eps) / 3
            top = (1 + 2 * eps) / 3
            for trio in combinations(range(n), 3):
                consider(point({s: third for s in trio}), "structured_triple")
                for m in trio:
                    rest = [s for s in trio if s != m]
                    consider(
                        point({m: top, rest[0]: near, rest[1]: near}),
                        "structured_triple",
                    )
                for t in trio:
                    pair = [s for s in trio if s != t]
                    scale = 1 - eps
                    for s, u in (pair, pair[::-1]):
                        consider(
                            point(
                                {
                                    t: eps,
                                    s: scale * (1 + eps) / 2,
                                    u: scale * (1 - eps) / 2,
                                }
                            ),
                            "structured_triple",
                        )

        # the grid runs for at most six states and MAX_GRID_POINTS points
        if n <= 6 and math.comb(den + n - 1, n - 1) <= MAX_GRID_POINTS:
            for comp in _compositions(den, n):
                consider(tuple(Fraction(k, den) for k in comp), "grid")

        if best["probs"] is not None and cfg.refine_iterations > 0:
            step = Fraction(1, den)
            for _ in range(cfg.refine_iterations):
                moved = True
                guard = 0
                while moved and guard < 200:
                    moved = False
                    guard += 1
                    current = best["probs"]
                    for i in range(n):
                        for j in range(n):
                            if i == j or current[j] < step:
                                continue
                            cand = list(current)
                            cand[i] += step
                            cand[j] -= step
                            before = best["value"]
                            consider(tuple(cand), "refined")
                            if best["value"] > before:
                                moved = True
                                break
                        if moved:
                            break
                step /= 2

    value = best["value"]
    return WorstCase(
        value=value if value == math.inf else float(value),
        witness=Posterior(best["probs"]),
        estimator_state=best["estimate"],
        optimal_state=best["optimal"],
        method=best["method"],
    )
