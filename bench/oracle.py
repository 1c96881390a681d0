"""Exact reference values the benchmark checks costrisk's outputs against.

Everything here is written from the definitions and shares no code with
the package: normalization, the point estimators, relative error, and the
exact supremum of the mode estimator's relative error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

HALF = Fraction(1, 2)


def raw_cost(kind: str, data, embedding: Sequence[float] | None, n: int) -> list[list[Fraction]]:
    """A scenario's cost matrix before normalization, in exact rationals.

    ``kind`` is matrix, payoff or profile; ``data`` is the matrix or the
    profile name.  Numbers enter exactly as the float the JSON parser gives.
    """
    if kind == "profile" and data == "zero_one":
        return [[Fraction(int(s != t)) for t in range(n)] for s in range(n)]
    if kind == "profile":
        xs = [float(x) for x in embedding]
        dist = [[abs(xs[s] - xs[t]) for t in range(n)] for s in range(n)]
        return [[Fraction(d if data == "abs" else d * d) for d in row] for row in dist]
    sign = -1 if kind == "payoff" else 1
    return [[Fraction(float(v)) * sign for v in row] for row in data]


def normalize(raw: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Canonical regret form: zero diagonal, largest entry 1 (or all zero)."""
    n = len(raw)
    regret = [[raw[s][t] - raw[t][t] for t in range(n)] for s in range(n)]
    top = max(v for row in regret for v in row)
    if top > 0:
        regret = [[v / top for v in row] for row in regret]
    return regret


def _integer_rows(cost: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    scale = math.lcm(*(v.denominator for row in cost for v in row))
    return [[int(v * scale) for v in row] for row in cost]


def mode_supremum(cost: Sequence[Sequence[Fraction]]) -> Fraction | float:
    """Exact supremum of the mode estimator's relative error.

    Where the mode is m the posterior lies in {p : p_m >= p_i}, whose
    vertices are the uniform distributions on subsets S containing m, and
    relative error is quasiconvex, so the supremum is

        max over S, m in S, o of  sum_S c[m] / sum_S c[o]  - 1

    (math.inf when some sum_S c[o] is 0 while sum_S c[m] is not).  For a
    fixed (m, o) the best S adds the other states in decreasing order of
    c[m][t] / c[o][t], so scanning those prefixes replaces the 2^n subset
    enumeration.  Entries are scaled to integers first.
    """
    rows = _integer_rows(cost)
    n = len(rows)
    best = Fraction(1)
    for m in range(n):
        a = rows[m]
        for o in range(n):
            if o == m:
                continue
            b = rows[o]
            # states o prices at zero always help m's ratio
            num = a[m] + sum(a[t] for t in range(n) if t != m and b[t] == 0)
            den = b[m]
            if den == 0:
                if num > 0:
                    return math.inf
            elif Fraction(num, den) > best:
                best = Fraction(num, den)
            ranked = sorted(
                ((a[t], b[t]) for t in range(n) if t != m and b[t] > 0),
                key=lambda ab: Fraction(*ab),
                reverse=True,
            )
            for at, bt in ranked:
                num += at
                den += bt
                if num * best.denominator > best.numerator * den:
                    best = Fraction(num, den)
    return best - 1


def posterior(probs: Sequence[float]) -> list[Fraction]:
    """Exact posterior from JSON floats, rescaled to sum to exactly 1."""
    ps = [Fraction(float(p)) for p in probs]
    total = sum(ps)
    return ps if total == 1 else [p / total for p in ps]


def expected_costs(cost: Sequence[Sequence[Fraction]], p: Sequence[Fraction]) -> list[Fraction]:
    return [sum(row[t] * p[t] for t in range(len(p))) for row in cost]


def relative_error(cost, state: int, p) -> Fraction | float:
    """(E[cost of state] - min E[cost]) / min E[cost]; inf when only the
    minimum is 0, and 0 when both are."""
    costs = expected_costs(cost, p)
    low = min(costs)
    if low == 0:
        return Fraction(0) if costs[state] == 0 else math.inf
    return (costs[state] - low) / low


def mode_state(p) -> int:
    return max(range(len(p)), key=lambda i: (p[i], -i))


def bayes_state(cost, p) -> int:
    costs = expected_costs(cost, p)
    return min(range(len(p)), key=lambda i: (costs[i], i))


def median_state(p, embedding: Sequence[float]) -> int:
    cum = Fraction(0)
    order = sorted(range(len(p)), key=lambda i: embedding[i])
    for i in order:
        cum += p[i]
        if cum >= HALF:
            return i
    raise ValueError("posterior does not sum to 1")


def mean_value(p, embedding: Sequence[float]) -> float:
    return math.fsum(float(pi) * x for pi, x in zip(p, embedding))


def nearest_state(embedding: Sequence[float], value: float) -> int:
    return min(range(len(embedding)), key=lambda i: (abs(embedding[i] - value), embedding[i]))


def fmt9(x) -> float | str:
    """A number as a report renders it: 9 significant digits, or "unbounded"."""
    if x == math.inf:
        return "unbounded"
    return float(format(float(x), ".9g"))


def estimate_blocks(cost, p, embedding, estimators, labels) -> dict[str, dict]:
    """What a report's estimates section must say for an explicit posterior."""
    out = {}
    for name in estimators:
        block = {}
        if name == "mode":
            s = mode_state(p)
        elif name == "bayes":
            s = bayes_state(cost, p)
        elif name == "median":
            s = median_state(p, embedding)
        else:
            raw = mean_value(p, embedding)
            block["raw_mean"] = fmt9(raw)
            s = nearest_state(embedding, raw)
        block["estimate"] = labels[s]
        block["expected_cost"] = fmt9(expected_costs(cost, p)[s])
        block["relative_error"] = fmt9(relative_error(cost, s, p))
        out[name] = block
    return out
