"""Exception types shared across the package."""


class CostRiskError(Exception):
    """Base class for every validation or computation error raised here."""


class NonFiniteError(CostRiskError):
    """A matrix entry or probability is NaN or infinite."""


class DiagonalNotMinimalError(CostRiskError):
    """A cost matrix column has an entry below its diagonal.

    Reporting the true state must never cost more than reporting some
    other state, so entry[t][t] has to be the minimum of column t.
    """

    def __init__(self, column: int, row: int):
        self.column = column
        self.row = row
        super().__init__(
            f"cost[{row}][{column}] is below the diagonal cost[{column}][{column}]; "
            "the diagonal must be the minimum of its column"
        )


class MissingEmbeddingError(CostRiskError):
    """The operation needs states embedded on the real line."""


class DimensionMismatchError(CostRiskError):
    """Posterior, cost matrix, or state index sizes disagree."""


class NotNormalizedError(CostRiskError):
    """The operation requires a normalized (regret-form) cost matrix."""
