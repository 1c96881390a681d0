"""Test-only reference for the mode appropriateness checks.

This is the straightforward Fraction implementation of
``check_mode_appropriate`` and ``mode_error_lower_bound`` that the
package runs on the integer view of the cost matrix: every
tolerance test subtracts Fractions and every bound divides them.  It
visits the same pairs and triples in the same order with the same
strict comparisons, so the two must agree field for field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from costrisk.appropriateness import ModeErrorBound, ModeVerdict, Violation, WitnessFamily
from costrisk.errors import NotNormalizedError
from costrisk.model import ENTRY_TOL, CostMatrix

ExactValue = Union[Fraction, float]  # Fraction, or math.inf for unbounded


def _require_normalized(cost: CostMatrix) -> None:
    if not cost.normalized:
        raise NotNormalizedError("this check needs a normalized cost matrix")


def _is_zero(v: Fraction) -> bool:
    return abs(v) <= ENTRY_TOL


def _ratio_bound(hi: Fraction, lo: Fraction) -> ExactValue:
    """hi/lo - 1, the two-point relative-error limit; inf when lo is zero."""
    if _is_zero(lo):
        return math.inf
    return hi / lo - 1


def _asymmetry_bounds(cost: CostMatrix):
    """Two-point constructions for asymmetric positive pairs.

    With all mass nearly tied between s and t, the mode is forced onto
    the costlier report; the relative error approaches the cost ratio
    minus one.
    """
    E = cost.entries
    n = cost.size
    for i in range(n):
        for j in range(i + 1, n):
            a, b = E[i][j], E[j][i]
            if _is_zero(a) or _is_zero(b):
                continue
            if abs(a - b) <= ENTRY_TOL:
                continue
            if a > b:
                yield _ratio_bound(a, b), (i, j)
            else:
                yield _ratio_bound(b, a), (j, i)


def _equivalence_bounds(cost: CostMatrix):
    """Free-substitute constructions: reporting s costs nothing when u is
    true, yet s and u price some third state t differently.

    Mass concentrates on s (the mode) and u with a vanishing sliver on
    t; the substitute u then beats the mode by the row ratio.
    """
    E = cost.entries
    n = cost.size
    for s in range(n):
        for u in range(n):
            if s == u or not _is_zero(E[s][u]):
                continue
            for t in range(n):
                if t in (s, u):
                    continue
                a, b = E[s][t], E[u][t]
                if a > b + ENTRY_TOL:
                    yield _ratio_bound(a, b), (s, u, t)


def _unequal_positive_bounds(cost: CostMatrix):
    """Near-tie triple constructions for two unequal positive costs.

    All three states approach equal probability with u on top, so the
    mode reports u while a cheaper estimate exists; which of s or t is
    the minimizer depends on how u prices against them.
    """
    E = cost.entries
    n = cost.size
    for s in range(n):
        for t in range(n):
            if t == s:
                continue
            for u in range(n):
                if u in (s, t):
                    continue
                a, c = E[s][t], E[t][u]
                if _is_zero(a) or _is_zero(c):
                    continue
                if c - a <= ENTRY_TOL:
                    continue
                num = E[s][u] + E[u][t]
                if E[s][u] < E[t][u]:
                    den = E[s][u] + E[s][t]
                else:
                    den = E[s][t] + E[u][t]
                if den == 0:
                    continue
                val = num / den - 1
                if val > 0:
                    yield val, (s, t, u)


def _zero_class_bounds(cost: CostMatrix):
    """Zero-pair-plus-unit-state constructions.

    When s and t substitute for each other for free and a third state u
    trades with both at the maximum cost, pushing the pair toward a
    three-way tie drives the relative error to 1.
    """
    E = cost.entries
    n = cost.size
    one = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            if not (_is_zero(E[i][j]) and _is_zero(E[j][i])):
                continue
            for u in range(n):
                if u in (i, j):
                    continue
                if all(
                    abs(v - one) <= ENTRY_TOL
                    for v in (E[i][u], E[j][u], E[u][i], E[u][j])
                ):
                    yield Fraction(1), (i, j, u)


def reference_mode_error_lower_bound(cost: CostMatrix) -> ModeErrorBound:
    """Largest relative-error lower bound over the known constructions.

    Enumerates every ordered pair and triple of states, evaluates each
    applicable construction, and returns the maximum with the states and
    the point-mass witness family that approaches it.  Appropriate
    matrices (trivial or 0-1) admit no construction and get value 0.
    """
    _require_normalized(cost)
    best: ExactValue = Fraction(0)
    best_kind = "none"
    best_states: tuple[int, ...] = ()
    generators = (
        ("asymmetry", _asymmetry_bounds),
        ("equivalence", _equivalence_bounds),
        ("unequal_positive", _unequal_positive_bounds),
        ("zero_class", _zero_class_bounds),
    )
    for kind, gen in generators:
        for val, states in gen(cost):
            if val > best:
                best, best_kind, best_states = val, kind, states
    witness = None
    if best_kind != "none":
        witness = WitnessFamily(best_kind, best_states, cost.size)
    value = math.inf if best == math.inf else float(best)
    return ModeErrorBound(value, best_kind, best_states, witness)


def reference_check_mode_appropriate(cost: CostMatrix) -> ModeVerdict:
    """Run the four necessary conditions for mode estimation in order.

    (a) symmetry; (b) zero-cost pairs must make the two states fully
    interchangeable (identical rows and identical columns); (c) all
    strictly positive entries equal; (d) no zero-cost pair may coexist
    with positive entries.  Every failure is reported, not just the
    first.  A matrix passing all four is either trivial (all zero) or a
    0-1 cost, the only two classifications mode estimation can trust.
    """
    _require_normalized(cost)
    E = cost.entries
    n = cost.size
    violations: list[Violation] = []

    def as_float(v: ExactValue) -> float:
        return math.inf if v == math.inf else float(v)

    # (a) symmetry
    for i in range(n):
        for j in range(i + 1, n):
            a, b = E[i][j], E[j][i]
            if abs(a - b) > ENTRY_TOL:
                hi, lo = (a, b) if a > b else (b, a)
                violations.append(
                    Violation("asymmetry", (i, j), as_float(_ratio_bound(hi, lo)))
                )

    # (b) zero-cost equivalence: either direction of a zero pair demands
    # identical rows and identical columns for the pair
    for i in range(n):
        for j in range(i + 1, n):
            if not (_is_zero(E[i][j]) or _is_zero(E[j][i])):
                continue
            for t in range(n):
                row_a, row_b = E[i][t], E[j][t]
                col_a, col_b = E[t][i], E[t][j]
                row_bad = abs(row_a - row_b) > ENTRY_TOL
                col_bad = abs(col_a - col_b) > ENTRY_TOL
                if not (row_bad or col_bad):
                    continue
                bound: ExactValue = Fraction(0)
                if row_bad:
                    bound = max(bound, _ratio_bound(max(row_a, row_b), min(row_a, row_b)))
                if col_bad:
                    bound = max(bound, _ratio_bound(max(col_a, col_b), min(col_a, col_b)))
                violations.append(Violation("equivalence", (i, j, t), as_float(bound)))

    # (c) all strictly positive entries share one value
    positives = [
        (E[s][t], s, t) for s in range(n) for t in range(n) if E[s][t] > ENTRY_TOL
    ]
    if positives:
        lo = min(positives)
        hi = max(positives)
        if hi[0] - lo[0] > ENTRY_TOL:
            triple = None
            for bound_val, states in _unequal_positive_bounds(cost):
                if triple is None or bound_val > triple[0]:
                    triple = (bound_val, states)
            if triple is not None:
                violations.append(
                    Violation("unequal_positive", triple[1], as_float(triple[0]))
                )
            else:
                # no linking triple (disjoint unequal pairs): fall back to
                # the two-point ratio of the extreme values
                violations.append(
                    Violation(
                        "unequal_positive",
                        (hi[1], hi[2], lo[1], lo[2]),
                        as_float(_ratio_bound(hi[0], lo[0])),
                    )
                )

    # (d) a zero-cost pair alongside any positive entry
    zero_pair = next(
        (
            (i, j)
            for i in range(n)
            for j in range(n)
            if i != j and _is_zero(E[i][j])
        ),
        None,
    )
    if zero_pair is not None and positives:
        unit = next(
            ((s, t) for v, s, t in positives if abs(v - 1) <= ENTRY_TOL),
            (positives[0][1], positives[0][2]),
        )
        violations.append(
            Violation("zero_class", (*zero_pair, *unit), 1.0)
        )

    top = max((v for row in E for v in row), default=Fraction(0))
    if top <= ENTRY_TOL:
        classification = "trivial"
    else:
        off_diag = [E[s][t] for s in range(n) for t in range(n) if s != t]
        all_equal = max(off_diag) - min(off_diag) <= ENTRY_TOL
        no_zeros = all(v > ENTRY_TOL for v in off_diag)
        classification = "zero_one" if (all_equal and no_zeros) else "inappropriate"
    appropriate = classification in ("zero_one", "trivial")
    return ModeVerdict(appropriate, classification, tuple(violations))
