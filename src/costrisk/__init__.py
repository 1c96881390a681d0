"""costrisk: cost-minimizing estimation analysis.

Given a posterior over finitely many states and a cost function, this
package computes mode/mean/median and Bayes-optimal estimates, measures
the extra expected cost (relative error) each estimator incurs, searches
for worst-case adversarial posteriors, and classifies cost functions as
appropriate or inappropriate for each estimation technique.
"""

from .adversarial import (
    SearchConfig,
    WorstCase,
    relative_error,
    relative_error_exact,
    worst_case,
)
from .appropriateness import (
    DistanceVerdict,
    ModeErrorBound,
    ModeVerdict,
    Violation,
    WitnessFamily,
    check_mean_appropriate,
    check_median_appropriate,
    check_mode_appropriate,
    mode_error_lower_bound,
)
from .errors import (
    CostRiskError,
    DiagonalNotMinimalError,
    DimensionMismatchError,
    MissingEmbeddingError,
    NonFiniteError,
    NotNormalizedError,
)
from .estimators import (
    BayesResult,
    bayes_estimate,
    expected_cost,
    mean_estimate,
    median_estimate,
    mode_estimate,
    nearest_state,
)
from .model import (
    CostMatrix,
    DistanceCost,
    Posterior,
    StateSpace,
    abs_profile,
    distance_to_matrix,
    normalize_cost,
    squared_profile,
    validate_cost,
    zero_one_cost,
)
from .scenario import (
    RiskReport,
    Scenario,
    SchemaError,
    builtin_scenarios,
    parse_scenario,
    render_report,
    report_to_dict,
    run_scenario,
)

__version__ = "0.1.0"
