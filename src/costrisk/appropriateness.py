"""Classify cost functions by whether an estimator can safely use them.

A cost function is appropriate for an estimation technique when the
technique always returns the expected-cost-minimizing estimate.  For
mode estimation the only appropriate costs are the trivial all-zero
cost and the 0-1 cost; any other normalized matrix fails at least one
of four structural conditions, which say why it fails.

How much the mode can overpay is computed exactly.  Relative error is a
maximum of linear-fractional functions of the posterior, so it is
quasiconvex, and its supremum over the posteriors whose mode is m is
reached at a vertex of that region: the uniform posterior on a face, a
subset S of the states that contains m.  A face's value is

    max over m in S of sum_S c[m]  /  min over all o of sum_S c[o]  -  1

(inf when only the denominator is 0), the limit of the relative error
at the uniform posterior on S with m on top.  The supremum over all
posteriors is the largest face value; for each pair (m, o) the best
face is found by Dinkelbach's ratio iteration.

Everything runs on the matrix's cached integer form
(``CostMatrix.scaled``: entries V / L over one denominator L).  Each
ENTRY_TOL test of the conditions is an integer test against
floor(L * ENTRY_TOL), each value is an exact (num, den) pair compared
by cross-multiplication, and only a reported value is converted to
float.

For distance-form costs, mean estimation is cost minimizing only for
quadratic profiles (the slope must scale exactly: n*f'(x) = f'(n*x))
and median estimation only for constant-slope profiles.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
#: Points of the logarithmic grid the profile checks probe.
GRID_POINTS = 50

#: An exact nonnegative ratio as (num, den): num / den, or inf when den
#: is 0.  Every such pair has den > 0 or equals INF, so a > b exactly
#: when a[0] * b[1] > b[0] * a[1], with inf above every finite value.
INF = (1, 0)
ZERO = (0, 1)


def _integer_view(cost: CostMatrix) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, tol): the normalized cost's integer rows (entries V / L over
    one denominator L) and ENTRY_TOL on their scale.

    For integers, |V| <= L * ENTRY_TOL exactly when |V| <= floor(L *
    ENTRY_TOL) = tol, so "entries v = V / L and w = W / L differ by at
    most ENTRY_TOL" is abs(V - W) <= tol.  Normalized entries are
    nonnegative, so "v is zero within ENTRY_TOL" is V <= tol.
    """
    if not cost.normalized:
        raise NotNormalizedError("this check needs a normalized cost matrix")
    rows, L = cost.scaled
    return rows, L * ENTRY_TOL.numerator // ENTRY_TOL.denominator


def _exceeds(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] * b[1] > b[0] * a[1]


def _as_float(v: tuple[int, int]) -> float:
    return v[0] / v[1] if v[1] else math.inf


def _excess(num: int, den: int) -> tuple[int, int]:
    """num / den - 1 as an exact pair: inf when only den is 0, and 0 when
    both are (the relative-error convention)."""
    if den == 0:
        return INF if num else ZERO
    return num - den, den


def _subface_supremum(cols, states: tuple[int, ...], memo: dict) -> tuple[int, int]:
    """Exact supremum over the posteriors supported on ``states``: the
    best value among its faces of two or more states (a one-state face is
    worth 0).  ``cols`` are the matrix's columns; ``memo`` maps each face
    seen on this matrix to its sums (sum_S c[o] for every o) and value,
    and a face's sums extend its prefix's by one column."""
    best = ZERO
    states = tuple(sorted(set(states)))
    for size in range(2, len(states) + 1):
        for face in itertools.combinations(states, size):
            hit = memo.get(face)
            if hit is None:
                prefix = memo[face[:-1]][0] if size > 2 else cols[face[0]]
                sums = list(map(operator.add, prefix, cols[face[-1]]))
                hit = memo[face] = sums, _excess(max(map(sums.__getitem__, face)), min(sums))
            if _exceeds(hit[1], best):
                best = hit[1]
    return best


@functools.lru_cache(maxsize=1)
def _supremum(rows) -> tuple[tuple[int, int], tuple[int, ...]]:
    """(value, face): the exact supremum of the mode's relative error over
    all posteriors, and a face that attains it with its mode first; the
    face is () when the value is 0.

    For each pair (m, o), Dinkelbach's iteration maximizes sum_S c[m] /
    sum_S c[o] over the faces S that contain m.  At the best ratio P / Q
    so far, m plus the states t with c[m][t] * Q > P * c[o][t] (never m
    itself, whose cost is 0) maximize sum_S (c[m] * Q - P * c[o]); if
    that face beats P / Q it becomes the new best and the pair goes
    again, otherwise no face of the pair can beat it.  Starting each
    pair at the best ratio so far, most pairs stop after one pass.

    Cached for the last matrix: ``CostMatrix.scaled`` hands out the same
    rows every time, so the verdict and the bound of one report share
    one computation.
    """
    states = range(len(rows))
    if all(row[t] == rows[0][-1] for s, row in enumerate(rows) for t in states if t != s):
        # all off-diagonal costs equal: the trivial and the 0-1 cost, the
        # two costs on which the mode never overpays
        return ZERO, ()
    P, Q = 1, 1
    best: tuple[int, ...] = ()
    for m, a in enumerate(rows):
        for o, b in enumerate(rows):
            if o == m:
                continue
            while True:
                others = [t for t, x, y in zip(states, a, b) if x * Q > P * y]
                num = sum(map(a.__getitem__, others))
                den = b[m] + sum(map(b.__getitem__, others))
                if den == 0 and num:
                    return INF, (m, *others)
                if num * Q <= P * den:
                    break
                P, Q, best = num, den, (m, *others)
    return (_excess(P, Q) if best else ZERO), best


@dataclass(frozen=True)
class Violation:
    """One failed mode-appropriateness condition.

    ``bound`` is the exact supremum of the mode's relative error over the
    posteriors supported on ``states`` (> 0, possibly inf), so it never
    exceeds the supremum over all posteriors.  Asymmetry names its pair
    and equivalence its zero pair plus the separating state; the
    whole-matrix conditions, unequal_positive and zero_class, carry the
    full supremum and its face (mode first) as their states.
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
    """Posteriors approaching a face's value as eps -> 0: the uniform
    posterior on ``states`` moved eps toward ``states[0]``, which keeps
    that state the unique mode."""

    states: tuple[int, ...]
    space_size: int

    def posterior(self, epsilon: Union[float, str, Fraction] = Fraction(1, 10000)) -> Posterior:
        eps = to_fraction(epsilon)
        if not 0 < eps < 1:
            raise CostRiskError("epsilon must be in (0, 1)")
        probs = [Fraction(0)] * self.space_size
        for t in self.states:
            probs[t] = (1 - eps) / len(self.states)
        probs[self.states[0]] += eps
        return Posterior(tuple(probs))


@dataclass(frozen=True)
class ModeErrorBound:
    """The exact supremum of mode estimation's relative error, with the
    face that attains it (mode first) and its witness family; a lower
    bound on the mode's worst case that the worst case reaches."""

    value: float
    construction: str  # vertex | none
    states: tuple[int, ...]
    witness: WitnessFamily | None


def mode_error_lower_bound(cost: CostMatrix) -> ModeErrorBound:
    """The exact supremum of the mode's relative error over all posteriors.

    Appropriate matrices (trivial or 0-1) have value 0, construction
    "none" and no witness; every other normalized matrix has a value > 0,
    attained in the limit by the uniform posterior on the returned face.
    """
    rows, _ = _integer_view(cost)
    value, face = _supremum(rows)
    if not face:
        return ModeErrorBound(0.0, "none", (), None)
    return ModeErrorBound(_as_float(value), "vertex", face, WitnessFamily(face, cost.size))


def check_mode_appropriate(cost: CostMatrix) -> ModeVerdict:
    """Run the four necessary conditions for mode estimation in order.

    (a) symmetry; (b) zero-cost pairs must make the two states fully
    interchangeable (identical rows and identical columns); (c) all
    strictly positive entries equal; (d) no zero-cost pair may coexist
    with positive entries.  Every failure is reported, not just the
    first.  A matrix passing all four is either trivial (all zero) or a
    0-1 cost, the only two classifications mode estimation can trust.
    """
    E, tol = _integer_view(cost)
    n = cost.size
    violations: list[Violation] = []
    cols = tuple(zip(*E))
    faces: dict = {}

    def bound(states: tuple[int, ...]) -> float:
        return _as_float(_subface_supremum(cols, states, faces))

    # (a) symmetry
    for i in range(n):
        for j in range(i + 1, n):
            if abs(E[i][j] - E[j][i]) > tol:
                violations.append(Violation("asymmetry", (i, j), bound((i, j))))

    # (b) zero-cost equivalence: either direction of a zero pair demands
    # identical rows and identical columns for the pair
    for i in range(n):
        for j in range(i + 1, n):
            if E[i][j] > tol and E[j][i] > tol:
                continue
            for t in range(n):
                if abs(E[i][t] - E[j][t]) > tol or abs(E[t][i] - E[t][j]) > tol:
                    violations.append(Violation("equivalence", (i, j, t), bound((i, j, t))))

    # (c) all strictly positive entries share one value, and (d) no
    # zero-cost pair alongside a positive entry: both concern the whole
    # matrix, so both carry the full supremum
    positives = [v for row in E for v in row if v > tol]
    zero_pair = any(E[i][j] <= tol for i in range(n) for j in range(n) if i != j)
    for condition, failed in (
        ("unequal_positive", positives and max(positives) - min(positives) > tol),
        ("zero_class", positives and zero_pair),
    ):
        if failed:
            value, face = _supremum(E)
            violations.append(Violation(condition, face, _as_float(value)))

    if not positives:
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


def _log_grid(diameter: float) -> list[float]:
    # three decades up to the diameter
    lo = diameter * 1e-3
    return [lo * (diameter / lo) ** (k / (GRID_POINTS - 1)) for k in range(GRID_POINTS)]


def _profile_tolerance(profile: DistanceCost) -> float:
    return CLOSED_FORM_TOL if profile.closed_form else NUMERIC_TOL


def check_mean_appropriate(profile: DistanceCost, diameter: float) -> DistanceVerdict:
    """Decide whether mean estimation can trust this distance profile.

    Probes the slope-scaling residual on a logarithmic grid of x in
    (0, diameter] against mass-split factors {2, 3, 5, 10} with
    n*x <= diameter; the profile passes when the worst residual stays
    under tolerance (1e-6 closed form, 1e-3 numeric).
    """
    if diameter <= 0:
        raise CostRiskError("diameter must be positive")
    tol = _profile_tolerance(profile)
    worst = 0.0
    worst_x = 0.0
    worst_n: int | None = None
    for x in _log_grid(diameter):
        for k in SCALING_FACTORS:
            if k * x > diameter * (1 + 1e-12):
                continue
            r = mean_scaling_residual(profile, x, k)
            if r > worst:
                worst, worst_x, worst_n = r, x, k
    return DistanceVerdict(worst < tol, worst, worst_x, worst_n, tol)


def check_median_appropriate(profile: DistanceCost, diameter: float) -> DistanceVerdict:
    """Decide whether median estimation can trust this distance profile.

    The slope must be constant: every grid point is compared against the
    first one, normalized by its magnitude floored at 1.
    """
    if diameter <= 0:
        raise CostRiskError("diameter must be positive")
    tol = _profile_tolerance(profile)
    grid = _log_grid(diameter)
    base = profile.slope(grid[0])
    worst = 0.0
    worst_x = grid[0]
    for x in grid[1:]:
        r = abs(profile.slope(x) - base) / max(1.0, abs(base))
        if r > worst:
            worst, worst_x = r, x
    return DistanceVerdict(worst < tol, worst, worst_x, None, tol)
