"""Classify cost functions by whether an estimator can safely use them.

A cost function is appropriate for an estimation technique when the
technique always returns the expected-cost-minimizing estimate.  For
mode estimation the only appropriate costs are the trivial all-zero
cost and the 0-1 cost; any other normalized matrix fails at least one
of four structural conditions, and each failure comes with a
constructive lower bound on the worst-case relative error plus the
point-mass family that approaches it.

The mode checks run on the matrix's cached integer form
(``CostMatrix.scaled``: entries V / L over one denominator L).  Each
ENTRY_TOL test is an integer test against floor(L * ENTRY_TOL), each
bound is an exact (num, den) pair compared by cross-multiplication,
and only a reported bound is converted to float.

For distance-form costs, mean estimation is cost minimizing only for
quadratic profiles (the slope must scale exactly: n*f'(x) = f'(n*x))
and median estimation only for constant-slope profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import CostRiskError, NotNormalizedError
from .model import ENTRY_TOL, CostMatrix, DistanceCost, Posterior, to_fraction

#: Residual tolerance for closed-form derivatives.
CLOSED_FORM_TOL = 1e-6
#: Residual tolerance for numerically differenced profiles.
NUMERIC_TOL = 1e-3
#: Mass-split factors probed by the mean check.
SCALING_FACTORS = (2, 3, 5, 10)

#: An exact nonnegative ratio as (num, den): num / den, or inf when den
#: is 0.  Every such pair has den > 0 or equals INF, so a > b exactly
#: when a[0] * b[1] > b[0] * a[1], with inf above every finite value.
INF = (1, 0)
ZERO = (0, 1)


def _integer_view(cost: CostMatrix) -> tuple[tuple[tuple[int, ...], ...], int, int]:
    """(rows, L, tol): the normalized cost's integer form and ENTRY_TOL on
    its scale.

    For integers, |V| <= L * ENTRY_TOL exactly when |V| <= floor(L *
    ENTRY_TOL) = tol, so "entries v = V / L and w = W / L differ by at
    most ENTRY_TOL" is abs(V - W) <= tol.  Normalized entries are
    nonnegative, so "v is zero within ENTRY_TOL" is V <= tol.
    """
    if not cost.normalized:
        raise NotNormalizedError("this check needs a normalized cost matrix")
    rows, L = cost.scaled
    return rows, L, L * ENTRY_TOL.numerator // ENTRY_TOL.denominator


def _exceeds(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] > b[0] * a[1]


def _ratio_bound(hi: int, lo: int, tol: int) -> tuple[int, int]:
    """hi/lo - 1, the two-point relative-error limit; inf when lo is zero."""
    if lo <= tol:
        return INF
    return hi - lo, lo


def _as_float(v: tuple[int, int]) -> float:
    return v[0] / v[1] if v[1] else math.inf


@dataclass(frozen=True)
class Violation:
    """One failed mode-appropriateness condition.

    ``bound`` is a lower bound (> 0, possibly inf) on the worst-case
    relative error that the violation forces on mode estimation.
    """

    condition: str  # asymmetry | equivalence | unequal_positive | zero_class
    states: tuple[int, ...]
    bound: float


@dataclass(frozen=True)
class ModeVerdict:
    appropriate: bool
    classification: str  # zero_one | trivial | inappropriate
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class WitnessFamily:
    """Point-mass posterior family approaching a worst case as eps -> 0.

    ``kind`` matches the construction name; ``states`` carry the roles in
    construction order.  ``posterior(eps)`` builds the concrete member.
    """

    kind: str
    states: tuple[int, ...]
    space_size: int

    def posterior(self, epsilon: Union[float, str, Fraction] = Fraction(1, 10000)) -> Posterior:
        eps = to_fraction(epsilon)
        if not 0 < eps < 1:
            raise CostRiskError("epsilon must be in (0, 1)")
        probs = [Fraction(0)] * self.space_size
        if self.kind == "asymmetry":
            s, t = self.states
            probs[s] = (1 + eps) / 2
            probs[t] = (1 - eps) / 2
        elif self.kind == "equivalence":
            # mode s, free substitute u, tiny mass on the separating state t
            s, u, t = self.states
            rest = 1 - eps
            probs[t] = eps
            probs[s] = rest * (1 + eps) / 2
            probs[u] = rest * (1 - eps) / 2
        elif self.kind in ("unequal_positive", "zero_class"):
            # two states approach the mode u from below
            *others, u = self.states[-3:]
            s, t = others
            probs[u] = (1 + 2 * eps) / 3
            probs[s] = (1 - eps) / 3
            probs[t] = (1 - eps) / 3
        else:
            raise CostRiskError(f"unknown witness family {self.kind!r}")
        return Posterior(tuple(probs))


@dataclass(frozen=True)
class ModeErrorBound:
    """Best closed-form lower bound on mode estimation's relative error."""

    value: float
    construction: str  # asymmetry | equivalence | unequal_positive | zero_class | none
    states: tuple[int, ...]
    witness: WitnessFamily | None


def _asymmetry_bounds(rows, L, tol):
    """Two-point constructions for asymmetric positive pairs.

    With all mass nearly tied between s and t, the mode is forced onto
    the costlier report; the relative error approaches the cost ratio
    minus one.
    """
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = rows[i][j], rows[j][i]
            if a <= tol or b <= tol or abs(a - b) <= tol:
                continue
            if a > b:
                yield (a - b, b), (i, j)
            else:
                yield (b - a, a), (j, i)


def _equivalence_bounds(rows, L, tol):
    """Free-substitute constructions: reporting s costs nothing when u is
    true, yet s and u price some third state t differently.

    Mass concentrates on s (the mode) and u with a vanishing sliver on
    t; the substitute u then beats the mode by the row ratio.
    """
    n = len(rows)
    for s in range(n):
        row_s = rows[s]
        for u in range(n):
            if s == u or row_s[u] > tol:
                continue
            row_u = rows[u]
            for t in range(n):
                if t == s or t == u:
                    continue
                a, b = row_s[t], row_u[t]
                if a - b > tol:
                    yield _ratio_bound(a, b, tol), (s, u, t)


def _unequal_positive_bounds(rows, L, tol):
    """Near-tie triple constructions for two unequal positive costs.

    All three states approach equal probability with u on top, so the
    mode reports u while a cheaper estimate exists; which of s or t is
    the minimizer depends on how u prices against them.  The bound is
    num / den - 1, and den >= E[s][t] > 0.
    """
    n = len(rows)
    for s in range(n):
        row_s = rows[s]
        for t in range(n):
            a = row_s[t]
            if t == s or a <= tol:
                continue
            row_t = rows[t]
            for u in range(n):
                c = row_t[u]
                if u == s or u == t or c - a <= tol:
                    continue
                su, ut = row_s[u], rows[u][t]
                num = su + ut
                den = su + a if su < c else a + ut
                if num > den:
                    yield (num - den, den), (s, t, u)


def _zero_class_bounds(rows, L, tol):
    """Zero-pair-plus-unit-state constructions.

    When s and t substitute for each other for free and a third state u
    trades with both at the maximum cost, pushing the pair toward a
    three-way tie drives the relative error to 1.
    """
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] > tol or rows[j][i] > tol:
                continue
            for u in range(n):
                if u in (i, j):
                    continue
                if all(
                    abs(v - L) <= tol
                    for v in (rows[i][u], rows[j][u], rows[u][i], rows[u][j])
                ):
                    yield (1, 1), (i, j, u)


def mode_error_lower_bound(cost: CostMatrix) -> ModeErrorBound:
    """Largest relative-error lower bound over the known constructions.

    Enumerates every ordered pair and triple of states, evaluates each
    applicable construction, and returns the maximum with the states and
    the point-mass witness family that approaches it.  Appropriate
    matrices (trivial or 0-1) admit no construction and get value 0.
    """
    view = _integer_view(cost)
    best = ZERO
    best_kind = "none"
    best_states: tuple[int, ...] = ()
    generators = (
        ("asymmetry", _asymmetry_bounds),
        ("equivalence", _equivalence_bounds),
        ("unequal_positive", _unequal_positive_bounds),
        ("zero_class", _zero_class_bounds),
    )
    for kind, gen in generators:
        for val, states in gen(*view):
            if _exceeds(val, best):
                best, best_kind, best_states = val, kind, states
    witness = None
    if best_kind != "none":
        witness = WitnessFamily(best_kind, best_states, cost.size)
    return ModeErrorBound(_as_float(best), best_kind, best_states, witness)


def check_mode_appropriate(cost: CostMatrix) -> ModeVerdict:
    """Run the four necessary conditions for mode estimation in order.

    (a) symmetry; (b) zero-cost pairs must make the two states fully
    interchangeable (identical rows and identical columns); (c) all
    strictly positive entries equal; (d) no zero-cost pair may coexist
    with positive entries.  Every failure is reported, not just the
    first.  A matrix passing all four is either trivial (all zero) or a
    0-1 cost, the only two classifications mode estimation can trust.
    """
    view = _integer_view(cost)
    E, L, tol = view
    n = cost.size
    violations: list[Violation] = []

    # (a) symmetry
    for i in range(n):
        for j in range(i + 1, n):
            a, b = E[i][j], E[j][i]
            if abs(a - b) > tol:
                hi, lo = (a, b) if a > b else (b, a)
                violations.append(
                    Violation("asymmetry", (i, j), _as_float(_ratio_bound(hi, lo, tol)))
                )

    # (b) zero-cost equivalence: either direction of a zero pair demands
    # identical rows and identical columns for the pair
    for i in range(n):
        for j in range(i + 1, n):
            if E[i][j] > tol and E[j][i] > tol:
                continue
            for t in range(n):
                row_a, row_b = E[i][t], E[j][t]
                col_a, col_b = E[t][i], E[t][j]
                row_bad = abs(row_a - row_b) > tol
                col_bad = abs(col_a - col_b) > tol
                if not (row_bad or col_bad):
                    continue
                bound = ZERO
                if row_bad:
                    bound = _ratio_bound(max(row_a, row_b), min(row_a, row_b), tol)
                if col_bad:
                    col = _ratio_bound(max(col_a, col_b), min(col_a, col_b), tol)
                    if _exceeds(col, bound):
                        bound = col
                violations.append(Violation("equivalence", (i, j, t), _as_float(bound)))

    # (c) all strictly positive entries share one value
    positives = [(E[s][t], s, t) for s in range(n) for t in range(n) if E[s][t] > tol]
    if positives:
        lo = min(positives)
        hi = max(positives)
        if hi[0] - lo[0] > tol:
            triple = None
            for bound_val, states in _unequal_positive_bounds(*view):
                if triple is None or _exceeds(bound_val, triple[0]):
                    triple = (bound_val, states)
            if triple is not None:
                violations.append(
                    Violation("unequal_positive", triple[1], _as_float(triple[0]))
                )
            else:
                # no linking triple (disjoint unequal pairs): fall back to
                # the two-point ratio of the extreme values
                violations.append(
                    Violation(
                        "unequal_positive",
                        (hi[1], hi[2], lo[1], lo[2]),
                        _as_float(_ratio_bound(hi[0], lo[0], tol)),
                    )
                )

    # (d) a zero-cost pair alongside any positive entry
    zero_pair = next(
        ((i, j) for i in range(n) for j in range(n) if i != j and E[i][j] <= tol),
        None,
    )
    if zero_pair is not None and positives:
        unit = next(
            ((s, t) for v, s, t in positives if abs(v - L) <= tol),
            (positives[0][1], positives[0][2]),
        )
        violations.append(
            Violation("zero_class", (*zero_pair, *unit), 1.0)
        )

    if max(v for row in E for v in row) <= tol:
        classification = "trivial"
    else:
        off_diag = [E[s][t] for s in range(n) for t in range(n) if s != t]
        all_equal = max(off_diag) - min(off_diag) <= tol
        no_zeros = all(v > tol for v in off_diag)
        classification = "zero_one" if (all_equal and no_zeros) else "inappropriate"
    appropriate = classification in ("zero_one", "trivial")
    return ModeVerdict(appropriate, classification, tuple(violations))


@dataclass(frozen=True)
class DistanceVerdict:
    """Outcome of a distance-profile suitability check."""

    appropriate: bool
    max_residual: float
    worst_x: float
    worst_scale: int | None
    tolerance: float


def mean_scaling_residual(profile: DistanceCost, x: float, n: int) -> float:
    """Mismatch between scaling the slope by n and evaluating it at n*x.

    Zero for every x and n exactly when the profile is quadratic, which
    is the condition for the posterior mean to minimize expected cost.
    Normalized by the larger slope magnitude, floored at 1.
    """
    fp_x = profile.slope(x)
    fp_nx = profile.slope(n * x)
    return abs(n * fp_x - fp_nx) / max(1.0, abs(fp_nx))


def _log_grid(diameter: float, samples: int) -> list[float]:
    # three decades up to the diameter
    lo = diameter * 1e-3
    if samples == 1:
        return [lo]
    return [lo * (diameter / lo) ** (k / (samples - 1)) for k in range(samples)]


def _profile_tolerance(profile: DistanceCost) -> float:
    return CLOSED_FORM_TOL if profile.closed_form else NUMERIC_TOL


def check_mean_appropriate(
    profile: DistanceCost, diameter: float, samples: int = 50
) -> DistanceVerdict:
    """Decide whether mean estimation can trust this distance profile.

    Probes the slope-scaling residual on a logarithmic grid of x in
    (0, diameter] against mass-split factors {2, 3, 5, 10} with
    n*x <= diameter; the profile passes when the worst residual stays
    under tolerance (1e-6 closed form, 1e-3 numeric).
    """
    if diameter <= 0:
        raise CostRiskError("diameter must be positive")
    if samples < 1:
        raise CostRiskError("samples must be at least 1")
    tol = _profile_tolerance(profile)
    worst = 0.0
    worst_x = 0.0
    worst_n: int | None = None
    for x in _log_grid(diameter, samples):
        for k in SCALING_FACTORS:
            if k * x > diameter * (1 + 1e-12):
                continue
            r = mean_scaling_residual(profile, x, k)
            if r > worst:
                worst, worst_x, worst_n = r, x, k
    return DistanceVerdict(worst < tol, worst, worst_x, worst_n, tol)


def check_median_appropriate(
    profile: DistanceCost, diameter: float, samples: int = 50
) -> DistanceVerdict:
    """Decide whether median estimation can trust this distance profile.

    The slope must be constant: every grid point is compared against the
    first one, normalized by its magnitude floored at 1.
    """
    if diameter <= 0:
        raise CostRiskError("diameter must be positive")
    if samples < 1:
        raise CostRiskError("samples must be at least 1")
    tol = _profile_tolerance(profile)
    grid = _log_grid(diameter, samples)
    base = profile.slope(grid[0])
    worst = 0.0
    worst_x = grid[0]
    for x in grid[1:]:
        r = abs(profile.slope(x) - base) / max(1.0, abs(base))
        if r > worst:
            worst, worst_x = r, x
    return DistanceVerdict(worst < tol, worst, worst_x, None, tol)
