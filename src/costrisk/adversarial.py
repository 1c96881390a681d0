"""Relative error of an estimate and the worst-case posterior search.

The search is fully deterministic: structured two- and three-point
families first (near-uniform posteriors on two or three states, where
the mode's worst cases often sit, including the exact ties that our
lowest-index tie-breaking turns into attained maxima), then a full
simplex grid for small spaces, then coordinate hill climbing with a
halving step.

Candidates are scored by an exact integer kernel.  The normalized cost
matrix's integer form (``CostMatrix.scaled``, its entries times the
least common denominator) is computed once per matrix, and each
candidate posterior is a vector of integer weights over a
common denominator, so one pass of integer dot products gives all n
expected costs up to a shared positive factor.  Their lowest-index
minimum is the Bayes report and its cost; relative errors are compared
by cross-multiplication.  Only the winning candidate becomes a
``Posterior``, and it is re-scored with ``relative_error_exact`` and
``bayes_estimate_exact``, which must agree with the kernel, so
re-evaluating a witness reproduces its value bit for bit.

The Bayes report has relative error 0 at every posterior, so no later
candidate can beat the first one under the search's strict comparison:
its worst case is that first candidate, returned without a search.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Callable, Sequence

from .errors import CostRiskError, DimensionMismatchError, NotNormalizedError
from .estimators import (
    bayes_estimate_exact,
    expected_cost_exact,
    nearest_state,
    weighted_mean,
    weighted_median,
)
from .model import CostMatrix, Posterior, StateSpace, to_fraction

#: Grid sizes beyond this are skipped with a notice rather than attempted.
MAX_GRID_POINTS = 2_000_000

#: Search budgets: a finer grid step or more refinement rounds than these
#: is rejected up front instead of exhausting time or memory.
MIN_RESOLUTION = 1e-4
MAX_REFINE_ITERATIONS = 64
#: Scenario documents with more states than this are rejected: a mode
#: worst case takes about 0.06 s at 12 states and 1.2 s at 24.
MAX_STATES = 32

ESTIMATORS = ("mode", "mean_snapped", "median", "bayes")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the worst-case search.

    resolution is the coarse simplex grid step; epsilon parameterizes
    the limit-construction witnesses; support_cap bounds the structured
    support size (2 = pairs only, >= 3 adds triples).  resolution and
    refine_iterations are capped by MIN_RESOLUTION and
    MAX_REFINE_ITERATIONS.  support_cap and refine_iterations must be
    ints, resolution and epsilon real numbers; bools are neither.
    """

    resolution: float = 0.05
    support_cap: int = 3
    refine_iterations: int = 20
    epsilon: float = 1e-4

    def __post_init__(self):
        for name in ("support_cap", "refine_iterations"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise CostRiskError(f"{name} must be a whole number, got {value!r}")
        for name in ("resolution", "epsilon"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise CostRiskError(f"{name} must be a number, got {value!r}")
        if not MIN_RESOLUTION <= self.resolution <= 0.5:
            raise CostRiskError(f"resolution must be in [{MIN_RESOLUTION}, 0.5]")
        if self.support_cap < 2:
            raise CostRiskError("support_cap must be at least 2")
        if not 0 <= self.refine_iterations <= MAX_REFINE_ITERATIONS:
            raise CostRiskError(
                f"refine_iterations must be in [0, {MAX_REFINE_ITERATIONS}]"
            )
        if not 0 < self.epsilon < 1:
            raise CostRiskError("epsilon must be in (0, 1)")


@dataclass(frozen=True)
class WorstCase:
    """Best adversarial posterior found, with its audit trail."""

    value: float
    witness: Posterior
    estimator_state: int
    optimal_state: int
    method: str  # structured_pair | structured_triple | grid | refined

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.value)


def relative_error_exact(
    estimate: int, post: Posterior, cost: CostMatrix
) -> Fraction | float:
    """Exact relative error as a Fraction, or math.inf when unbounded."""
    if not cost.normalized:
        raise NotNormalizedError("relative error is defined on normalized costs")
    if len(post) != cost.size:
        raise DimensionMismatchError(
            f"posterior has {len(post)} entries, cost matrix is {cost.size}x{cost.size}"
        )
    _, minimum = bayes_estimate_exact(post, cost)
    c = expected_cost_exact(estimate, post, cost)
    if minimum == 0:
        return Fraction(0) if c == 0 else math.inf
    return (c - minimum) / minimum


def relative_error(estimate: int, post: Posterior, cost: CostMatrix) -> float:
    """Extra expected cost of the estimate relative to the best estimate.

    Returns math.inf when the best estimate costs nothing but this one
    does (the flagged unbounded case) and 0 when both cost nothing.
    """
    val = relative_error_exact(estimate, post, cost)
    return val if val == math.inf else float(val)


def _estimator_kernel(
    name: str, space: StateSpace | None
) -> Callable[[Sequence[int], int], int]:
    """The estimator as a function of integer weights w over denominator d.

    Each agrees with its counterpart in ``estimators`` on the posterior
    w / d, tie-breaking included.
    """
    if name == "mode":
        return lambda w, d: w.index(max(w))
    if name in ("mean_snapped", "median"):
        if space is None:
            raise CostRiskError(f"{name} estimation needs a state space")
        emb = space.require_embedding()
        if name == "mean_snapped":
            return lambda w, d: nearest_state(space, weighted_mean(w, d, emb))
        order = space.embedding_order()
        return lambda w, d: weighted_median(w, d, order)
    raise CostRiskError(f"unknown estimator {name!r}; expected one of {ESTIMATORS}")


def _grid_denominator(resolution: float) -> int:
    return max(2, round(1 / float(resolution)))


def _special_masses(eps: Fraction) -> set[Fraction]:
    """Pair masses added to the swept ones: exact and near ties, slivers."""
    return {Fraction(1, 2), (1 + eps) / 2, (1 - eps) / 2, eps, 1 - eps}


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head, *tail)


def worst_case(
    estimator: str,
    cost: CostMatrix,
    space: StateSpace | None = None,
    config: SearchConfig | None = None,
) -> WorstCase:
    """Search the probability simplex for the posterior that maximizes the
    estimator's relative error.

    Three deterministic phases: structured two- and three-point families
    (near-ties, exact ties, and vanishing-sliver patterns), a full
    simplex grid at the configured resolution for up to six states, and
    coordinate-wise hill climbing from the best candidate with a halving
    step.  The supremum is typically approached rather than attained, so
    the returned value is a certified lower bound on it; an unbounded
    estimate (math.inf) dominates any finite value.  The Bayes
    estimator's worst case is 0 at the first candidate, without a search.
    """
    cfg = config or SearchConfig()
    if not cost.normalized:
        raise NotNormalizedError("worst-case search needs a normalized cost matrix")
    if space is not None and len(space) != cost.size:
        raise DimensionMismatchError(
            f"state space has {len(space)} states, cost matrix is "
            f"{cost.size}x{cost.size}"
        )
    n = cost.size
    eps = to_fraction(cfg.epsilon)

    if estimator == "bayes":
        if n == 1:
            weights, denom, method = (1,), 1, "grid"
        else:
            q = min(Fraction(1, _grid_denominator(cfg.resolution)), *_special_masses(eps))
            weights = (q.numerator, q.denominator - q.numerator) + (0,) * (n - 2)
            denom, method = q.denominator, "structured_pair"
        post = Posterior(tuple(Fraction(w, denom) for w in weights))
        state = bayes_estimate_exact(post, cost)[0]
        value = float(relative_error_exact(state, post, cost))
        return WorstCase(value, post, state, state, method)

    pick = _estimator_kernel(estimator, space)
    rows = cost.scaled[0]
    # (gain, base, weights, denominator, estimate, optimal, method); the
    # running best relative error is gain / base, and base 0 means inf
    best: tuple = (-1, 1, (), 1, 0, 0, "grid")

    def consider(w: Sequence[int], d: int, method: str) -> bool:
        nonlocal best
        dots = [sum(map(mul, row, w)) for row in rows]
        low = min(dots)
        e_state = pick(w, d)
        if low:
            gain, base = dots[e_state] - low, low
        else:
            gain, base = (1, 0) if dots[e_state] else (0, 1)
        if best[1] == 0 or (base and gain * best[1] <= best[0] * base):
            return False
        best = (gain, base, w, d, e_state, dots.index(low), method)
        return True

    def point(assignment: dict[int, int]) -> list[int]:
        return [assignment.get(i, 0) for i in range(n)]

    if n == 1:
        consider((1,), 1, "grid")
    else:
        den = _grid_denominator(cfg.resolution)

        # phase 1a: two-point supports, swept plus near-tie and sliver masses
        qs = sorted({Fraction(k, den) for k in range(1, den)} | _special_masses(eps))
        masses = [(q.numerator, q.denominator) for q in qs]
        for i in range(n):
            for j in range(i + 1, n):
                for a, b in masses:
                    consider(point({i: a, j: b - a}), b, "structured_pair")

        # phase 1b: three-point supports with the limit patterns:
        # thirds, (1 + 2 eps) / 3 against two (1 - eps) / 3, and a sliver
        # eps beside the near tie (1 - eps)(1 +- eps) / 2
        if cfg.support_cap >= 3 and n >= 3:
            en, ed = eps.numerator, eps.denominator
            top, near = ed + 2 * en, ed - en
            sliver = (2 * en * ed, (ed - en) * (ed + en), (ed - en) ** 2)
            for trio in combinations(range(n), 3):
                consider(point({s: 1 for s in trio}), 3, "structured_triple")
                for m in trio:
                    rest = [s for s in trio if s != m]
                    consider(
                        point({m: top, rest[0]: near, rest[1]: near}),
                        3 * ed,
                        "structured_triple",
                    )
                # vanishing sliver on t, near-tie between the other two
                for t in trio:
                    pair = [s for s in trio if s != t]
                    for s, u in (pair, pair[::-1]):
                        consider(
                            point({t: sliver[0], s: sliver[1], u: sliver[2]}),
                            2 * ed * ed,
                            "structured_triple",
                        )

        # phase 2: full simplex grid
        if n > 6:
            warnings.warn(
                f"simplex grid skipped for {n} states; "
                "using structured families and refinement only",
                stacklevel=2,
            )
        elif math.comb(den + n - 1, n - 1) > MAX_GRID_POINTS:
            warnings.warn(
                f"simplex grid at resolution {cfg.resolution} would need "
                f"{math.comb(den + n - 1, n - 1)} points; skipped",
                stacklevel=2,
            )
        else:
            for comp in _compositions(den, n):
                consider(comp, den, "grid")

        # phase 3: coordinate hill climbing with halving step 1 / steps
        if cfg.refine_iterations > 0:
            steps = den
            for _ in range(cfg.refine_iterations):
                moved = True
                guard = 0
                while moved and guard < 200:
                    moved = False
                    guard += 1
                    d = math.lcm(best[3], steps)
                    current = [w * (d // best[3]) for w in best[2]]
                    step = d // steps
                    for i in range(n):
                        for j in range(n):
                            if i == j or current[j] < step:
                                continue
                            cand = list(current)
                            cand[i] += step
                            cand[j] -= step
                            if consider(cand, d, "refined"):
                                moved = True
                                break
                        if moved:
                            break
                steps *= 2

    gain, base, weights, denom, e_state, optimal, method = best
    witness = Posterior(tuple(Fraction(w, denom) for w in weights))
    value = relative_error_exact(e_state, witness, cost)
    if value != (Fraction(gain, base) if base else math.inf) or (
        bayes_estimate_exact(witness, cost)[0] != optimal
    ):
        raise AssertionError("integer kernel disagrees with the exact re-evaluation")
    return WorstCase(
        value=value if value == math.inf else float(value),
        witness=witness,
        estimator_state=e_state,
        optimal_state=optimal,
        method=method,
    )
