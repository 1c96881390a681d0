"""Test-only references for the mode appropriateness checks.

``reference_check_mode_appropriate`` is the straightforward Fraction
implementation of the four conditions that the package runs on the
integer view of the cost matrix: every tolerance test subtracts
Fractions.  It visits the same pairs and triples in the same order, so
the two must agree on the classification, on the sequence of failed
conditions and on the states of the asymmetry and equivalence
violations.

``reference_supremum`` is the mode's worst-case relative error by
enumerating every face (nonempty subset of the allowed states), in
Fractions; the package must match it without enumerating.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Union

from costrisk.errors import NotNormalizedError
from costrisk.model import ENTRY_TOL, CostMatrix

ExactValue = Union[Fraction, float]  # Fraction, or math.inf for unbounded

#: The conditions whose states name the entries that fail them.
LOCAL_CONDITIONS = ("asymmetry", "equivalence")


def _require_normalized(cost: CostMatrix) -> None:
    if not cost.normalized:
        raise NotNormalizedError("this check needs a normalized cost matrix")


def _is_zero(v: Fraction) -> bool:
    return abs(v) <= ENTRY_TOL


def reference_supremum(cost: CostMatrix, support: Iterable[int] | None = None) -> ExactValue:
    """Supremum of the mode's relative error over posteriors supported on
    ``support`` (default: all states), by enumerating its 2^k faces.

    A face S is worth max over m in S of sum_S c[m], over min over every
    state o of sum_S c[o], minus 1: inf when only the denominator is 0,
    0 when both are.
    """
    _require_normalized(cost)
    E = cost.entries
    n = cost.size
    states = sorted(set(range(n) if support is None else support))
    best: ExactValue = Fraction(0)
    for size in range(1, len(states) + 1):
        for face in itertools.combinations(states, size):
            sums = [sum(E[o][t] for t in face) for o in range(n)]
            top = max(sums[m] for m in face)
            low = min(sums)
            if low == 0:
                if top > 0:
                    return math.inf
                continue
            best = max(best, top / low - 1)
    return best


def reference_check_mode_appropriate(
    cost: CostMatrix,
) -> tuple[str, list[tuple[str, tuple[int, ...] | None]]]:
    """(classification, [(condition, states)]): the four necessary
    conditions for mode estimation in order, with states only for the
    local conditions (None for unequal_positive and zero_class).

    (a) symmetry; (b) zero-cost pairs must make the two states fully
    interchangeable (identical rows and identical columns); (c) all
    strictly positive entries equal; (d) no zero-cost pair may coexist
    with positive entries.
    """
    _require_normalized(cost)
    E = cost.entries
    n = cost.size
    violations: list[tuple[str, tuple[int, ...] | None]] = []

    # (a) symmetry
    for i in range(n):
        for j in range(i + 1, n):
            if abs(E[i][j] - E[j][i]) > ENTRY_TOL:
                violations.append(("asymmetry", (i, j)))

    # (b) zero-cost equivalence
    for i in range(n):
        for j in range(i + 1, n):
            if not (_is_zero(E[i][j]) or _is_zero(E[j][i])):
                continue
            for t in range(n):
                row_bad = abs(E[i][t] - E[j][t]) > ENTRY_TOL
                col_bad = abs(E[t][i] - E[t][j]) > ENTRY_TOL
                if row_bad or col_bad:
                    violations.append(("equivalence", (i, j, t)))

    # (c) all strictly positive entries share one value
    positives = [E[s][t] for s in range(n) for t in range(n) if E[s][t] > ENTRY_TOL]
    if positives and max(positives) - min(positives) > ENTRY_TOL:
        violations.append(("unequal_positive", None))

    # (d) a zero-cost pair alongside any positive entry
    zero_pair = any(_is_zero(E[i][j]) for i in range(n) for j in range(n) if i != j)
    if zero_pair and positives:
        violations.append(("zero_class", None))

    top = max((v for row in E for v in row), default=Fraction(0))
    if top <= ENTRY_TOL:
        classification = "trivial"
    else:
        off_diag = [E[s][t] for s in range(n) for t in range(n) if s != t]
        all_equal = max(off_diag) - min(off_diag) <= ENTRY_TOL
        no_zeros = all(v > ENTRY_TOL for v in off_diag)
        classification = "zero_one" if (all_equal and no_zeros) else "inappropriate"
    return classification, violations
