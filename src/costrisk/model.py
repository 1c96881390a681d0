"""State spaces, posteriors, and cost functions.

The discrete decision core works in exact rational arithmetic
(``fractions.Fraction``).  Tie-breaking, regret normalization, and the
worst-case search all hinge on exact comparisons, and the inputs people
actually feed in (matrices of small decimals, probability vectors) are
rationals anyway.  Floats are accepted everywhere and converted exactly;
only the continuous distance-cost machinery (embeddings, derivatives)
stays in floating point.

``CostMatrix.scaled`` and ``Posterior.scaled`` give the same values as
integers over one common denominator each, computed once per object.
The appropriateness checks, the exact estimators and the worst-case
kernel all decide on these integer forms: an expected cost is one
integer dot product, and comparisons of ratios are cross-multiplied,
so no per-entry Fraction arithmetic is needed.

All types are immutable after construction and safe to share across
threads; the cached integer forms are derived data and never change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence, Union

from .errors import (
    CostRiskError,
    DerivativeUnavailableError,
    DiagonalNotMinimalError,
    DimensionMismatchError,
    MissingEmbeddingError,
    NegativeCostError,
    NonFiniteError,
    NotNormalizedError,
)

NumberLike = Union[int, float, str, Fraction]

#: Absolute tolerance for "these probabilities sum to 1".
PROB_SUM_TOL = Fraction(1, 10**9)

#: Absolute tolerance for treating two normalized matrix entries as equal.
ENTRY_TOL = Fraction(1, 10**9)

#: Relative step for central finite differences.
FD_STEP = 1e-5

NUMERIC = "numeric"


def to_fraction(value: NumberLike) -> Fraction:
    """Convert a number to an exact Fraction, rejecting NaN/inf floats."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteError(f"non-finite value {value!r}")
        return Fraction(value)
    return Fraction(value)


@dataclass(frozen=True)
class StateSpace:
    """A finite set of labeled states, optionally placed on the real line.

    The optional embedding assigns each state a distinct position, which
    is what makes mean and median estimation meaningful.  States keep
    their declaration order for indexing; :meth:`embedding_order` gives
    the permutation sorted by position.
    """

    labels: tuple[str, ...]
    embedding: tuple[float, ...] | None = None

    def __post_init__(self):
        labels = tuple(str(label) for label in self.labels)
        if not labels:
            raise CostRiskError("a state space needs at least one state")
        if any(not label for label in labels):
            raise CostRiskError("state labels must be non-empty")
        if len(set(labels)) != len(labels):
            raise CostRiskError("state labels must be distinct")
        object.__setattr__(self, "labels", labels)
        if self.embedding is not None:
            emb = tuple(float(x) for x in self.embedding)
            if len(emb) != len(labels):
                raise DimensionMismatchError(
                    f"embedding has {len(emb)} values for {len(labels)} states"
                )
            if any(not math.isfinite(x) for x in emb):
                raise NonFiniteError("embedding values must be finite")
            if len(set(emb)) != len(emb):
                raise CostRiskError("embedding values must be distinct")
            object.__setattr__(self, "embedding", emb)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise CostRiskError(f"unknown state label {label!r}") from None

    def require_embedding(self) -> tuple[float, ...]:
        if self.embedding is None:
            raise MissingEmbeddingError("state space has no embedding")
        return self.embedding

    def embedding_order(self) -> tuple[int, ...]:
        """State indices sorted by ascending embedded position."""
        emb = self.require_embedding()
        return tuple(sorted(range(len(emb)), key=emb.__getitem__))

    def diameter(self) -> float:
        emb = self.require_embedding()
        return max(emb) - min(emb)


@dataclass(frozen=True)
class Posterior:
    """A probability assignment over the states, stored exactly.

    Entries must be nonnegative and sum to 1 within 1e-9; the stored
    probabilities are rescaled by the actual sum so they add up to
    exactly 1.
    """

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(to_fraction(p) for p in self.probs)
        if not probs:
            raise CostRiskError("a posterior needs at least one entry")
        if any(p < 0 for p in probs):
            raise CostRiskError("probabilities must be nonnegative")
        total = sum(probs)
        if abs(total - 1) > PROB_SUM_TOL:
            raise CostRiskError(
                f"probabilities sum to {float(total)!r}, expected 1 within 1e-9"
            )
        if total != 1:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.probs)

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """(w, d): integer weights with probs[t] == w[t] / d exactly, d the
        least common denominator of the probabilities; sum(w) == d."""
        d = math.lcm(*(p.denominator for p in self.probs))
        return tuple(p.numerator * (d // p.denominator) for p in self.probs), d

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(p) for p in self.probs)


@dataclass(frozen=True)
class CostMatrix:
    """Square matrix of costs: entry[s][t] is the cost of reporting s
    when t is the true state.

    Construction enforces the diagonal-minimum rule (reporting the truth
    is never beaten in its own column).  When ``normalized`` is set the
    matrix must additionally be in canonical regret form: zero diagonal,
    nonnegative entries, and maximum entry exactly 1 unless the matrix
    is all zero (the trivial cost).
    """

    entries: tuple[tuple[Fraction, ...], ...]
    normalized: bool = False

    def __post_init__(self):
        entries = tuple(tuple(to_fraction(v) for v in row) for row in self.entries)
        n = len(entries)
        if n == 0:
            raise CostRiskError("cost matrix cannot be empty")
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("cost matrix must be square")
        for t in range(n):
            diag = entries[t][t]
            for s in range(n):
                if entries[s][t] < diag:
                    raise DiagonalNotMinimalError(column=t, row=s)
        if self.normalized:
            flat = [v for row in entries for v in row]
            if any(entries[t][t] != 0 for t in range(n)):
                raise NotNormalizedError("normalized matrix must have a zero diagonal")
            if any(v < 0 for v in flat):
                raise NotNormalizedError("normalized matrix must be nonnegative")
            top = max(flat)
            if top != 0 and top != 1:
                raise NotNormalizedError(
                    f"normalized matrix must have maximum entry 1, got {float(top)!r}"
                )
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def trivial(self) -> bool:
        """True when every entry is zero (the useless all-zero cost)."""
        return all(v == 0 for row in self.entries for v in row)

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, L): integer rows with entries[s][t] == rows[s][t] / L
        exactly, L the least common denominator of all entries."""
        L = math.lcm(*(v.denominator for row in self.entries for v in row))
        rows = tuple(
            tuple(v.numerator * (L // v.denominator) for v in row) for row in self.entries
        )
        return rows, L

    def as_floats(self) -> list[list[float]]:
        return [[float(v) for v in row] for row in self.entries]


def validate_cost(entries: Sequence[Sequence[NumberLike]]) -> CostMatrix:
    """Wrap raw entries as a cost matrix, checking the diagonal-minimum rule.

    Parameters
    ----------
    entries : n x n array of finite numbers
        entries[s][t] is the cost of reporting s when t is true.

    Returns
    -------
    CostMatrix with ``normalized=False``.

    Raises
    ------
    NonFiniteError on NaN or infinite input, DiagonalNotMinimalError when
    some column has an entry below its diagonal, DimensionMismatchError
    for ragged input.
    """
    return CostMatrix(tuple(tuple(row) for row in entries), normalized=False)


def normalize_cost(cost: CostMatrix) -> CostMatrix:
    """Rewrite a cost in its canonical equivalent regret form.

    Subtracting each column's diagonal shifts every report's expected
    cost by the same amount (the expected cost of always being right),
    and dividing by the maximum rescales uniformly; neither step changes
    any inequality between expected costs.  The result has a zero
    diagonal and maximum entry exactly 1; an all-zero regret matrix is
    returned as the trivial cost.

    Idempotent: normalizing a normalized matrix returns it unchanged.
    """
    n = cost.size
    regrets = [
        [cost.entries[s][t] - cost.entries[t][t] for t in range(n)] for s in range(n)
    ]
    top = max(v for row in regrets for v in row)
    if top > 0:
        regrets = [[v / top for v in row] for row in regrets]
    return CostMatrix(tuple(tuple(row) for row in regrets), normalized=True)


def zero_one_cost(n: int) -> CostMatrix:
    """The n-state cost that charges 1 for any wrong report, 0 otherwise."""
    if n < 1:
        raise CostRiskError("need at least one state")
    entries = tuple(
        tuple(Fraction(0) if s == t else Fraction(1) for t in range(n))
        for s in range(n)
    )
    return CostMatrix(entries, normalized=True)


@dataclass(frozen=True)
class DistanceCost:
    """Scalar cost profile f(d) for distance-form costs.

    ``profile`` maps a nonnegative distance to a cost and must vanish at
    zero.  ``derivative`` is a closed-form scalar function, or the string
    ``"numeric"`` to use central finite differences with relative step
    1e-5.  Distance profiles are even by definition, so evaluation takes
    the absolute value of its argument; numeric differencing relies on
    that reflection near zero.
    """

    profile: Callable[[float], float]
    derivative: Callable[[float], float] | str = NUMERIC
    name: str = ""

    def __post_init__(self):
        at_zero = float(self.profile(0.0))
        if abs(at_zero) > 1e-12:
            raise CostRiskError(f"distance profile must vanish at 0, got {at_zero!r}")

    @property
    def closed_form(self) -> bool:
        return callable(self.derivative)

    def value(self, d: float) -> float:
        return float(self.profile(abs(d)))

    def slope(self, x: float) -> float:
        """f'(x): closed form when available, else central differences."""
        if callable(self.derivative):
            return float(self.derivative(x))
        if self.derivative != NUMERIC:
            raise DerivativeUnavailableError(
                f"derivative must be callable or {NUMERIC!r}, got {self.derivative!r}"
            )
        h = FD_STEP * max(1.0, abs(x))
        return (self.value(x + h) - self.value(x - h)) / (2.0 * h)


def abs_profile() -> DistanceCost:
    """f(d) = d, the absolute-difference cost."""
    return DistanceCost(lambda d: d, lambda d: 1.0, name="abs")


def squared_profile() -> DistanceCost:
    """f(d) = d^2, the squared-difference cost."""
    return DistanceCost(lambda d: d * d, lambda d: 2.0 * d, name="squared")


def distance_to_matrix(profile: DistanceCost, space: StateSpace) -> CostMatrix:
    """Realize a distance profile as an explicit cost matrix.

    entry[s][t] = f(|x_s - x_t|) over the embedded positions.  The
    profile must be nonnegative on the realized distances; the diagonal
    is exactly zero by the f(0) = 0 requirement.
    """
    emb = space.require_embedding()
    n = len(emb)
    rows = []
    for s in range(n):
        row = []
        for t in range(n):
            if s == t:
                row.append(Fraction(0))
                continue
            v = profile.value(emb[s] - emb[t])
            if not math.isfinite(v):
                raise NonFiniteError(
                    f"profile produced non-finite cost at distance {abs(emb[s] - emb[t])!r}"
                )
            if v < 0:
                raise NegativeCostError(
                    f"profile produced negative cost {v!r} at distance "
                    f"{abs(emb[s] - emb[t])!r}"
                )
            row.append(to_fraction(v))
        rows.append(tuple(row))
    return CostMatrix(tuple(rows), normalized=False)
