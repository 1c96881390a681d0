"""Classify cost functions by whether an estimator can safely use them.

A cost function is appropriate for an estimation technique when the
technique always returns the expected-cost-minimizing estimate.  Each
verdict is the paper's theorem, decided exactly:

- Mode estimation is appropriate only for the trivial all-zero cost and
  the 0-1 cost, that is, exactly when the supremum of its relative error,
  computed below, is 0.  Every other normalized matrix fails at least one of four
  structural conditions, which say why it fails.
- For the distance costs |d|^p, mean estimation is appropriate only for
  p = 2 and median estimation only for p = 1.

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
(``CostMatrix.scaled``: entries V / L over one denominator L).  The
conditions compare those integers for exact equality, each value is an
exact (num, den) pair compared by cross-multiplication, and only a
reported value is converted to float.
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
from .model import CostMatrix, DistanceCost, Posterior, to_fraction

#: An exact nonnegative ratio as (num, den): num / den, or inf when den
#: is 0.  Every such pair has den > 0 or equals INF, so a > b exactly
#: when a[0] * b[1] > b[0] * a[1], with inf above every finite value.
INF = (1, 0)
ZERO = (0, 1)


def _integer_rows(cost: CostMatrix) -> tuple[tuple[int, ...], ...]:
    """The normalized cost's integer rows: entries V / L over one
    denominator L, so two entries are equal exactly when their V are."""
    if not cost.normalized:
        raise NotNormalizedError("this check needs a normalized cost matrix")
    return cost.scaled[0]


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
    value, face = _supremum(_integer_rows(cost))
    if not face:
        return ModeErrorBound(0.0, "none", (), None)
    return ModeErrorBound(_as_float(value), "vertex", face, WitnessFamily(face, cost.size))


def check_mode_appropriate(cost: CostMatrix) -> ModeVerdict:
    """Decide mode appropriateness and run the four necessary conditions.

    The verdict is the mode theorem: mode estimation always reports a
    cost-minimizing state exactly when the supremum of its relative
    error is 0, so it agrees with ``mode_error_lower_bound`` by
    construction.  The classification is trivial when no entry is
    positive, zero_one when the supremum is 0 otherwise, and
    inappropriate else.

    The conditions, compared exactly and run in order, say why a matrix
    fails: (a) symmetry; (b) zero-cost pairs must make the two states
    fully interchangeable (identical rows and identical columns); (c)
    all strictly positive entries equal; (d) no zero-cost pair may
    coexist with positive entries.  Every failure is reported, not just
    the first.
    """
    E = _integer_rows(cost)
    n = cost.size
    violations: list[Violation] = []
    cols = tuple(zip(*E))
    faces: dict = {}

    def bound(states: tuple[int, ...]) -> float:
        return _as_float(_subface_supremum(cols, states, faces))

    # (a) symmetry
    for i in range(n):
        for j in range(i + 1, n):
            if E[i][j] != E[j][i]:
                violations.append(Violation("asymmetry", (i, j), bound((i, j))))

    # (b) zero-cost equivalence: either direction of a zero pair demands
    # identical rows and identical columns for the pair
    for i in range(n):
        for j in range(i + 1, n):
            if E[i][j] and E[j][i]:
                continue
            for t in range(n):
                if E[i][t] != E[j][t] or E[t][i] != E[t][j]:
                    violations.append(Violation("equivalence", (i, j, t), bound((i, j, t))))

    # (c) all strictly positive entries share one value, and (d) no
    # zero-cost pair alongside a positive entry: both concern the whole
    # matrix, so both carry the full supremum
    value, face = _supremum(E)
    positives = [v for row in E for v in row if v]
    zero_pair = any(E[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    for condition, failed in (
        ("unequal_positive", positives and max(positives) != min(positives)),
        ("zero_class", positives and zero_pair),
    ):
        if failed:
            violations.append(Violation(condition, face, _as_float(value)))

    appropriate = value == ZERO
    if not positives:
        classification = "trivial"
    else:
        classification = "zero_one" if appropriate else "inappropriate"
    return ModeVerdict(appropriate, classification, tuple(violations))


@dataclass(frozen=True)
class DistanceVerdict:
    """Whether an estimator suits the distance cost |d|^power: exactly
    when ``power`` equals the estimator's ``required_power`` (2 for the
    mean, 1 for the median), or when the realized cost leaves nothing to
    get wrong."""

    appropriate: bool
    power: int
    required_power: int


def _settled(cost: CostMatrix | None) -> bool:
    """On at most two states the snapped mean and the median both report
    the more probable state, which the realized 0-1 cost rewards, and on
    a trivial realized cost (every distance underflows to 0) any report
    is optimal: either way the estimator's worst case is 0."""
    return cost is not None and (cost.size <= 2 or cost.trivial)


def check_mean_appropriate(profile: DistanceCost, cost=None) -> DistanceVerdict:
    """Mean estimation minimizes expected |d|^p for every posterior only
    at p = 2, where the expected cost is a parabola centred on the mean;
    for any other p some posterior has its minimizer elsewhere.  ``cost``
    is the profile's realized CostMatrix, if any: on one that leaves
    nothing to get wrong (see ``_settled``) every power is appropriate."""
    return DistanceVerdict(profile.power == 2 or _settled(cost), profile.power, 2)


def check_median_appropriate(profile: DistanceCost, cost=None) -> DistanceVerdict:
    """Median estimation minimizes expected |d|^p for every posterior only
    at p = 1, where moving the estimate costs every state's mass at the
    same rate; any other p weighs far mass more or less than near mass.
    ``cost`` is read as in ``check_mean_appropriate``."""
    return DistanceVerdict(profile.power == 1 or _settled(cost), profile.power, 1)
