"""Scenario files, risk reports, and the built-in examples.

Scenarios are JSON documents:

    {
      "name": "coin_game",
      "states": ["heads", "tails"],
      "embedding": [0.0, 1.0],                      // optional
      "cost": {"payoff": [[1, -2], [-1, 1]]},       // or {"matrix": ...}
                                                    // or {"profile": "zero_one" | "abs" | "squared"}
      "distribution": [0.5, 0.5],                   // or "worst_case"
      "estimators": ["mode", "bayes"],              // any of mode, mean, median, bayes
      "search": {"resolution": 0.01}                // optional SearchConfig overrides
    }

``scenario_from_dict`` is the one place a document, built-ins included
(``BUILTIN_DOCS``), is checked and built into the model (state space,
normalized cost, posterior): a model constructor's error is a
SchemaError at the document path, and a parsed scenario always runs.

Payoff matrices are winnings; they are negated into costs and then
normalized, so games can be typed in verbatim.  Reports are rendered
deterministically (sorted keys, 9-significant-digit numbers), so
identical scenarios produce byte-identical output.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from .adversarial import MAX_STATES, SearchConfig, WorstCase, relative_error, worst_case
from .appropriateness import (
    DistanceVerdict,
    ModeErrorBound,
    ModeVerdict,
    check_mean_appropriate,
    check_median_appropriate,
    check_mode_appropriate,
    mode_error_lower_bound,
)
from .errors import CostRiskError
from .estimators import (
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

ESTIMATOR_NAMES = ("mode", "mean", "median", "bayes")
PROFILE_NAMES = ("zero_one", "abs", "squared")
WORST_CASE_TOKEN = "worst_case"


class SchemaError(CostRiskError):
    """A scenario document does not match the schema."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@dataclass(frozen=True)
class Scenario:
    """A checked scenario document and the model it builds.

    Built only by ``scenario_from_dict``.  ``cost_matrix`` and
    ``distribution`` keep the numbers as typed (a payoff is not negated);
    ``cost`` is the normalized matrix and ``posterior`` the exact,
    rescaled distribution (None for worst_case).
    """

    name: str
    space: StateSpace
    cost_kind: str  # matrix | payoff | profile
    cost_matrix: tuple[tuple[float, ...], ...] | None
    cost_profile: str | None
    cost: CostMatrix
    distribution: tuple[float, ...] | None  # None means worst_case
    posterior: Posterior | None
    estimators: tuple[str, ...]
    search: SearchConfig

    @property
    def states(self) -> tuple[str, ...]:
        return self.space.labels

    @property
    def embedding(self) -> tuple[float, ...] | None:
        return self.space.embedding


def _expect(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise SchemaError(path, reason)


@contextlib.contextmanager
def _errors_at(path: str, *kinds: type[Exception]):
    """Report a model constructor's error as a schema error at ``path``."""
    try:
        yield
    except (CostRiskError, *kinds) as exc:
        raise SchemaError(path, str(exc)) from exc


def _number_list(value: Any, path: str) -> tuple[float, ...]:
    _expect(isinstance(value, list) and value, path, "expected a non-empty list of numbers")
    out = []
    for k, v in enumerate(value):
        _expect(
            isinstance(v, (int, float)) and not isinstance(v, bool),
            f"{path}[{k}]",
            "expected a number",
        )
        try:
            v = float(v)
        except OverflowError:  # an integer literal beyond the largest double
            v = math.inf
        _expect(math.isfinite(v), f"{path}[{k}]", "number must be finite")
        out.append(v)
    return tuple(out)


def _matrix(value: Any, n: int, path: str) -> tuple[tuple[float, ...], ...]:
    _expect(isinstance(value, list) and len(value) == n, path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(value):
        parsed = _number_list(row, f"{path}[{i}]")
        _expect(len(parsed) == n, f"{path}[{i}]", f"expected {n} entries")
        rows.append(parsed)
    return tuple(rows)


def _profile_object(name: str) -> DistanceCost:
    return abs_profile() if name == "abs" else squared_profile()


def _build_cost(kind: str, matrix, profile: str | None, space: StateSpace) -> CostMatrix:
    """The normalized cost: payoffs are negated into costs first."""
    if profile == "zero_one":
        return zero_one_cost(len(space))
    if profile is not None:
        return normalize_cost(distance_to_matrix(_profile_object(profile), space))
    if kind == "payoff":
        matrix = tuple(tuple(-v for v in row) for row in matrix)
    return normalize_cost(validate_cost(matrix))


def scenario_from_dict(doc: Any, path: str = "$") -> Scenario:
    """Check a decoded scenario document and build its model: the state
    space, the normalized cost and, for an explicit distribution, the
    posterior.  Every failure, a model constructor's included, is a
    SchemaError carrying the path of the offending key."""
    _expect(isinstance(doc, dict), path, "expected a JSON object")
    known = {"name", "states", "embedding", "cost", "distribution", "estimators", "search"}
    for key in doc:
        _expect(key in known, f"{path}.{key}", "unknown key")
    for key in ("name", "states", "cost", "distribution"):
        _expect(key in doc, f"{path}.{key}", "missing required key")

    name = doc["name"]
    _expect(isinstance(name, str) and bool(name), f"{path}.name", "expected a non-empty string")

    states = doc["states"]
    _expect(
        isinstance(states, list) and states,
        f"{path}.states",
        "expected a non-empty list of labels",
    )
    _expect(len(states) <= MAX_STATES, f"{path}.states", f"at most {MAX_STATES} states")
    for k, s in enumerate(states):
        _expect(isinstance(s, str) and bool(s), f"{path}.states[{k}]", "expected a non-empty string")
    _expect(len(set(states)) == len(states), f"{path}.states", "labels must be distinct")
    n = len(states)

    embedding = doc.get("embedding")
    if embedding is not None:
        embedding = _number_list(embedding, f"{path}.embedding")
    with _errors_at(f"{path}.embedding"):
        space = StateSpace(tuple(states), embedding)

    cost = doc["cost"]
    _expect(isinstance(cost, dict), f"{path}.cost", "expected an object")
    kinds = [k for k in ("matrix", "payoff", "profile") if k in cost]
    _expect(len(kinds) == 1, f"{path}.cost", "expected exactly one of matrix, payoff, profile")
    _expect(set(cost) <= {"matrix", "payoff", "profile"}, f"{path}.cost", "unknown key")
    cost_kind = kinds[0]
    cost_path = f"{path}.cost.{cost_kind}"
    cost_matrix = cost_profile = None
    if cost_kind == "profile":
        cost_profile = cost["profile"]
        _expect(
            cost_profile in PROFILE_NAMES,
            cost_path,
            f"unknown profile; expected one of {', '.join(PROFILE_NAMES)}",
        )
    else:
        cost_matrix = _matrix(cost[cost_kind], n, cost_path)
    with _errors_at(cost_path):
        normalized = _build_cost(cost_kind, cost_matrix, cost_profile, space)

    dist_raw = doc["distribution"]
    distribution = posterior = None
    if dist_raw != WORST_CASE_TOKEN:
        distribution = _number_list(dist_raw, f"{path}.distribution")
        _expect(len(distribution) == n, f"{path}.distribution", f"expected {n} probabilities")
        with _errors_at(f"{path}.distribution"):
            posterior = Posterior(distribution)

    default_estimators = (
        list(ESTIMATOR_NAMES) if embedding is not None else ["mode", "bayes"]
    )
    estimators_raw = doc.get("estimators", default_estimators)
    _expect(
        isinstance(estimators_raw, list) and estimators_raw,
        f"{path}.estimators",
        "expected a non-empty list",
    )
    seen = []
    for k, e in enumerate(estimators_raw):
        _expect(
            e in ESTIMATOR_NAMES,
            f"{path}.estimators[{k}]",
            f"unknown estimator; expected one of {', '.join(ESTIMATOR_NAMES)}",
        )
        _expect(e not in seen, f"{path}.estimators[{k}]", "duplicate estimator")
        if e in ("mean", "median"):
            _expect(
                embedding is not None,
                f"{path}.estimators[{k}]",
                f"estimator {e!r} needs an embedding",
            )
        seen.append(e)

    search_doc = doc.get("search", {})
    _expect(isinstance(search_doc, dict), f"{path}.search", "expected an object")
    knobs = {"resolution", "support_cap", "refine_iterations", "epsilon"}
    for key in search_doc:
        _expect(key in knobs, f"{path}.search.{key}", "unknown key")
    with _errors_at(f"{path}.search", TypeError):
        search = SearchConfig(**search_doc)

    return Scenario(
        name=name,
        space=space,
        cost_kind=cost_kind,
        cost_matrix=cost_matrix,
        cost_profile=cost_profile,
        cost=normalized,
        distribution=distribution,
        posterior=posterior,
        estimators=tuple(seen),
        search=search,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document, raising SchemaError with the path
    of the offending key on any mismatch."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer literal too long to convert
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


@dataclass(frozen=True)
class RiskReport:
    """Everything run_scenario computed, ready for rendering.

    Every number is reproducible by re-running the referenced operations
    on the scenario inputs.
    """

    scenario: Scenario
    mode_verdict: ModeVerdict
    mode_bound: ModeErrorBound
    mean_check: DistanceVerdict | None
    median_check: DistanceVerdict | None
    estimates: dict[str, dict[str, Any]]

    @property
    def normalized_cost(self) -> CostMatrix:
        return self.scenario.cost


def _estimate_block(name: str, sc: Scenario) -> dict[str, Any]:
    post, cost, space = sc.posterior, sc.cost, sc.space
    block: dict[str, Any] = {}
    if name == "mode":
        state = mode_estimate(post)
    elif name == "median":
        state = median_estimate(post, space)
    elif name == "bayes":
        state = bayes_estimate(post, cost).state
    else:  # mean
        block["raw_mean"] = mean_estimate(post, space)
        state = nearest_state(space, block["raw_mean"])
    block["estimate"] = sc.states[state]
    block["expected_cost"] = expected_cost(state, post, cost)
    block["relative_error"] = relative_error(state, post, cost)
    return block


def _worst_block(name: str, sc: Scenario) -> dict[str, Any]:
    search_name = {"mean": "mean_snapped"}.get(name, name)
    wc: WorstCase = worst_case(search_name, sc.cost, sc.space, sc.search)
    block: dict[str, Any] = {
        "value": wc.value,
        "witness": list(wc.witness.as_floats()),
        "estimate": sc.states[wc.estimator_state],
        "optimal": sc.states[wc.optimal_state],
        "method": wc.method,
    }
    if name == "mean":
        block["raw_mean"] = mean_estimate(wc.witness, sc.space)
    return block


def run_scenario(sc: Scenario) -> RiskReport:
    """Run the requested estimators on a parsed scenario and attach the
    appropriateness verdicts; every input was checked by the parser."""
    mean_check = median_check = None
    if sc.cost_profile in ("abs", "squared"):
        profile = _profile_object(sc.cost_profile)
        mean_check = check_mean_appropriate(profile, sc.cost)
        median_check = check_median_appropriate(profile, sc.cost)
    block = _worst_block if sc.posterior is None else _estimate_block
    return RiskReport(
        scenario=sc,
        mode_verdict=check_mode_appropriate(sc.cost),
        mode_bound=mode_error_lower_bound(sc.cost),
        mean_check=mean_check,
        median_check=median_check,
        estimates={name: block(name, sc) for name in sc.estimators},
    )


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _num(x: float) -> Any:
    """Round to 9 significant digits; inf becomes the string "unbounded"."""
    if math.isinf(x):
        return "unbounded"
    return float(_fmt(x))


def _verdict_dict(v: ModeVerdict, labels: tuple[str, ...]) -> dict[str, Any]:
    return {
        "appropriate": v.appropriate,
        "classification": v.classification,
        "violations": [
            {
                "condition": viol.condition,
                "states": [labels[s] for s in viol.states],
                "bound": _num(viol.bound),
            }
            for viol in v.violations
        ],
    }


def report_to_dict(report: RiskReport) -> dict[str, Any]:
    sc = report.scenario
    labels = sc.states
    out: dict[str, Any] = {
        "name": sc.name,
        "states": list(labels),
        "distribution": (
            WORST_CASE_TOKEN
            if sc.distribution is None
            else [_num(p) for p in sc.distribution]
        ),
        "normalized_cost": [
            [_num(v) for v in row] for row in report.normalized_cost.as_floats()
        ],
        "trivial_cost": report.normalized_cost.trivial,
        "mode_appropriateness": _verdict_dict(report.mode_verdict, labels),
        "mode_error_lower_bound": {
            "value": _num(report.mode_bound.value),
            "construction": report.mode_bound.construction,
            "states": [labels[s] for s in report.mode_bound.states],
        },
        "estimates": {
            name: {
                k: (
                    _num(v)
                    if isinstance(v, float)
                    else [_num(p) for p in v] if isinstance(v, list) else v
                )
                for k, v in block.items()
            }
            for name, block in report.estimates.items()
        },
    }
    if sc.embedding is not None:
        out["embedding"] = [_num(x) for x in sc.embedding]
    if report.mean_check is not None:
        out["mean_profile_check"] = asdict(report.mean_check)
    if report.median_check is not None:
        out["median_profile_check"] = asdict(report.median_check)
    return out


def _render_text(report: RiskReport) -> str:
    d = report_to_dict(report)
    lines = [f"scenario: {d['name']}"]
    lines.append(f"states: {', '.join(d['states'])}")
    if "embedding" in d:
        lines.append(f"embedding: {', '.join(_fmt(x) for x in d['embedding'])}")
    lines.append(f"distribution: {d['distribution']}")
    lines.append("normalized cost:")
    for row in d["normalized_cost"]:
        lines.append("  " + "  ".join(_fmt(v) for v in row))
    verdict = d["mode_appropriateness"]
    tag = " (appropriate)" if verdict["appropriate"] else ""
    lines.append(f"mode appropriateness: {verdict['classification']}{tag}")
    for viol in verdict["violations"]:
        lines.append(
            f"  violation: {viol['condition']} on ({', '.join(viol['states'])})"
            f" bound {viol['bound']}"
        )
    bound = d["mode_error_lower_bound"]
    lines.append(
        f"mode error lower bound: {bound['value']}"
        f" via {bound['construction']}"
        + (f" on ({', '.join(bound['states'])})" if bound["states"] else "")
    )
    for key in ("mean_profile_check", "median_profile_check"):
        if key in d:
            check = d[key]
            which = key.split("_")[0]
            lines.append(
                f"{which} profile check: "
                f"{'appropriate' if check['appropriate'] else 'inappropriate'}"
                f" (power {check['power']}, needs {check['required_power']})"
            )
    lines.append("estimates:")
    for name, block in d["estimates"].items():
        lines.append(f"  {name}:")
        for k, v in block.items():
            if isinstance(v, list):
                v = "(" + ", ".join(_fmt(p) for p in v) + ")"
            lines.append(f"    {k}: {v}")
    return "\n".join(lines) + "\n"


def render_report(report: RiskReport, format: str = "text") -> str:
    """Render a report as text or JSON; both renderings are deterministic
    (stable key order, 9-significant-digit numbers)."""
    if format == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if format == "text":
        return _render_text(report)
    raise CostRiskError(f"unknown format {format!r}; expected text or json")


#: The worked examples shipped with the package, as scenario documents
#: (each runs the default estimators: all four with an embedding).
BUILTIN_DOCS: dict[str, dict[str, Any]] = {
    "coin_game": {
        "name": "coin_game", "states": ["heads", "tails"],
        "cost": {"payoff": [[1, -2], [-1, 1]]},
        "distribution": "worst_case",
        "search": {"resolution": 1e-3, "refine_iterations": 10},
    },
    "two_coin": {
        "name": "two_coin", "states": ["HH", "HT", "TH", "TT"],
        "cost": {"matrix": [[0, 0, 1, 1], [0, 0, 2, 1], [1, 2, 0, 1], [1, 1, 1, 0]]},
        "distribution": "worst_case",
        "search": {"resolution": 0.05, "refine_iterations": 10},
    },
    "three_state_abs": {
        "name": "three_state_abs", "states": ["0", "1", "2"],
        "embedding": [0, 1, 2],
        "cost": {"profile": "abs"},
        "distribution": "worst_case",
        "search": {"resolution": 0.01, "refine_iterations": 10},
    },
    "zero_class": {
        "name": "zero_class", "states": ["a", "b", "c"],
        "cost": {"matrix": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]},
        "distribution": "worst_case",
        "search": {"resolution": 0.01, "refine_iterations": 10},
    },
}


def builtin_scenarios() -> dict[str, Scenario]:
    """The built-in examples, each parsed from its document."""
    return {name: scenario_from_dict(doc) for name, doc in BUILTIN_DOCS.items()}


def with_search_overrides(
    sc: Scenario, resolution: float | None = None, epsilon: float | None = None
) -> Scenario:
    """Return the scenario with CLI search overrides applied."""
    updates = {}
    if resolution is not None:
        updates["resolution"] = resolution
    if epsilon is not None:
        updates["epsilon"] = epsilon
    if not updates:
        return sc
    return replace(sc, search=replace(sc.search, **updates))
