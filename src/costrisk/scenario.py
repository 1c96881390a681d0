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

Payoff matrices are winnings; they are negated into costs and then
normalized, so games can be typed in verbatim.  Reports are rendered
deterministically (sorted keys, 9-significant-digit numbers), so
identical scenarios produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
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


class ScenarioFieldError(CostRiskError):
    """A scenario failed while running; carries the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


@dataclass(frozen=True)
class Scenario:
    name: str
    states: tuple[str, ...]
    embedding: tuple[float, ...] | None
    cost_kind: str  # matrix | payoff | profile
    cost_matrix: tuple[tuple[float, ...], ...] | None
    cost_profile: str | None
    distribution: tuple[float, ...] | None  # None means worst_case
    estimators: tuple[str, ...]
    search: SearchConfig


def _expect(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise SchemaError(path, reason)


def _number_list(value: Any, path: str) -> tuple[float, ...]:
    _expect(isinstance(value, list) and value, path, "expected a non-empty list of numbers")
    out = []
    for k, v in enumerate(value):
        _expect(
            isinstance(v, (int, float)) and not isinstance(v, bool),
            f"{path}[{k}]",
            "expected a number",
        )
        _expect(math.isfinite(v), f"{path}[{k}]", "number must be finite")
        out.append(float(v))
    return tuple(out)


def _matrix(value: Any, n: int, path: str) -> tuple[tuple[float, ...], ...]:
    _expect(isinstance(value, list) and len(value) == n, path, f"expected {n} rows")
    rows = []
    for i, row in enumerate(value):
        parsed = _number_list(row, f"{path}[{i}]")
        _expect(len(parsed) == n, f"{path}[{i}]", f"expected {n} entries")
        rows.append(parsed)
    return tuple(rows)


@functools.lru_cache(maxsize=1)
def _posterior(distribution: tuple[float, ...]) -> Posterior:
    """Posterior's exact check is the one rule for a distribution; parsing
    and running a scenario share the object it builds."""
    return Posterior(distribution)


def scenario_from_dict(doc: Any, path: str = "$") -> Scenario:
    _expect(isinstance(doc, dict), path, "expected a JSON object")
    known = {"name", "states", "embedding", "cost", "distribution", "estimators", "search"}
    for key in doc:
        _expect(key in known, f"{path}.{key}", "unknown key")
    for key in ("name", "states", "cost", "distribution"):
        _expect(key in doc, f"{path}.{key}", "missing required key")

    name = doc["name"]
    _expect(isinstance(name, str) and bool(name), f"{path}.name", "expected a non-empty string")

    states_raw = doc["states"]
    _expect(
        isinstance(states_raw, list) and states_raw,
        f"{path}.states",
        "expected a non-empty list of labels",
    )
    _expect(
        len(states_raw) <= MAX_STATES, f"{path}.states", f"at most {MAX_STATES} states"
    )
    states = []
    for k, s in enumerate(states_raw):
        _expect(isinstance(s, str) and bool(s), f"{path}.states[{k}]", "expected a non-empty string")
        states.append(s)
    _expect(len(set(states)) == len(states), f"{path}.states", "labels must be distinct")
    n = len(states)

    embedding = None
    if "embedding" in doc and doc["embedding"] is not None:
        embedding = _number_list(doc["embedding"], f"{path}.embedding")
        _expect(len(embedding) == n, f"{path}.embedding", f"expected {n} values")
        _expect(
            len(set(embedding)) == len(embedding),
            f"{path}.embedding",
            "values must be distinct",
        )

    cost = doc["cost"]
    _expect(isinstance(cost, dict), f"{path}.cost", "expected an object")
    kinds = [k for k in ("matrix", "payoff", "profile") if k in cost]
    _expect(len(kinds) == 1, f"{path}.cost", "expected exactly one of matrix, payoff, profile")
    _expect(set(cost) <= {"matrix", "payoff", "profile"}, f"{path}.cost", "unknown key")
    cost_kind = kinds[0]
    cost_matrix = None
    cost_profile = None
    if cost_kind == "profile":
        cost_profile = cost["profile"]
        _expect(
            cost_profile in PROFILE_NAMES,
            f"{path}.cost.profile",
            f"unknown profile; expected one of {', '.join(PROFILE_NAMES)}",
        )
        if cost_profile in ("abs", "squared"):
            _expect(
                embedding is not None,
                f"{path}.cost.profile",
                f"profile {cost_profile!r} needs an embedding",
            )
    else:
        cost_matrix = _matrix(cost[cost_kind], n, f"{path}.cost.{cost_kind}")

    dist_raw = doc["distribution"]
    if dist_raw == WORST_CASE_TOKEN:
        distribution = None
    else:
        distribution = _number_list(dist_raw, f"{path}.distribution")
        _expect(len(distribution) == n, f"{path}.distribution", f"expected {n} probabilities")
        try:
            _posterior(distribution)
        except CostRiskError as exc:
            raise SchemaError(f"{path}.distribution", str(exc)) from exc

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
    try:
        search = SearchConfig(**search_doc)
    except (TypeError, CostRiskError) as exc:
        raise SchemaError(f"{path}.search", str(exc)) from exc

    return Scenario(
        name=name,
        states=tuple(states),
        embedding=embedding,
        cost_kind=cost_kind,
        cost_matrix=cost_matrix,
        cost_profile=cost_profile,
        distribution=distribution,
        estimators=tuple(seen),
        search=search,
    )


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario JSON document, raising SchemaError with the path
    of the offending key on any mismatch."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc)


@dataclass(frozen=True)
class RiskReport:
    """Everything run_scenario computed, ready for rendering.

    Every number is reproducible by re-running the referenced operations
    on the scenario inputs.
    """

    scenario: Scenario
    normalized_cost: CostMatrix
    mode_verdict: ModeVerdict
    mode_bound: ModeErrorBound
    mean_check: DistanceVerdict | None
    median_check: DistanceVerdict | None
    estimates: dict[str, dict[str, Any]]


def _profile_object(name: str) -> DistanceCost:
    return abs_profile() if name == "abs" else squared_profile()


def _build_cost(sc: Scenario, space: StateSpace) -> CostMatrix:
    try:
        if sc.cost_kind == "profile":
            if sc.cost_profile == "zero_one":
                return zero_one_cost(len(space))
            return normalize_cost(
                distance_to_matrix(_profile_object(sc.cost_profile), space)
            )
        entries = sc.cost_matrix
        if sc.cost_kind == "payoff":
            entries = tuple(tuple(-v for v in row) for row in entries)
        return normalize_cost(validate_cost(entries))
    except CostRiskError as exc:
        raise ScenarioFieldError("cost", str(exc)) from exc


def _estimate_block(
    name: str,
    sc: Scenario,
    post: Posterior,
    cost: CostMatrix,
    space: StateSpace,
) -> dict[str, Any]:
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


def _worst_block(
    name: str, sc: Scenario, cost: CostMatrix, space: StateSpace
) -> dict[str, Any]:
    search_name = {"mean": "mean_snapped"}.get(name, name)
    wc: WorstCase = worst_case(search_name, cost, space, sc.search)
    block: dict[str, Any] = {
        "value": wc.value,
        "witness": list(wc.witness.as_floats()),
        "estimate": sc.states[wc.estimator_state],
        "optimal": sc.states[wc.optimal_state],
        "method": wc.method,
    }
    if name == "mean":
        block["raw_mean"] = mean_estimate(wc.witness, space)
    return block


def run_scenario(sc: Scenario) -> RiskReport:
    """Normalize the cost, run the requested estimators, and attach the
    appropriateness verdicts.

    Module errors are re-raised with the scenario key that caused them.
    """
    try:
        space = StateSpace(sc.states, sc.embedding)
    except CostRiskError as exc:
        raise ScenarioFieldError("states", str(exc)) from exc
    cost = _build_cost(sc, space)

    mode_verdict = check_mode_appropriate(cost)
    mode_bound = mode_error_lower_bound(cost)
    mean_check = median_check = None
    if sc.cost_profile in ("abs", "squared"):
        profile = _profile_object(sc.cost_profile)
        diameter = space.diameter()
        try:
            mean_check = check_mean_appropriate(profile, diameter)
            median_check = check_median_appropriate(profile, diameter)
        except CostRiskError as exc:
            raise ScenarioFieldError("cost.profile", str(exc)) from exc

    estimates: dict[str, dict[str, Any]] = {}
    post = None
    for name in sc.estimators:
        try:
            if sc.distribution is None:
                estimates[name] = _worst_block(name, sc, cost, space)
            else:
                if post is None:
                    # one Posterior, so every estimator shares its integer form
                    post = _posterior(tuple(sc.distribution))
                estimates[name] = _estimate_block(name, sc, post, cost, space)
        except CostRiskError as exc:
            raise ScenarioFieldError("estimators", f"{name}: {exc}") from exc

    return RiskReport(
        scenario=sc,
        normalized_cost=cost,
        mode_verdict=mode_verdict,
        mode_bound=mode_bound,
        mean_check=mean_check,
        median_check=median_check,
        estimates=estimates,
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


def _distance_dict(v: DistanceVerdict) -> dict[str, Any]:
    out = {
        "appropriate": v.appropriate,
        "max_residual": _num(v.max_residual),
        "worst_x": _num(v.worst_x),
        "tolerance": _num(v.tolerance),
    }
    if v.worst_scale is not None:
        out["worst_scale"] = v.worst_scale
    return out


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
        out["mean_profile_check"] = _distance_dict(report.mean_check)
    if report.median_check is not None:
        out["median_profile_check"] = _distance_dict(report.median_check)
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
                f" (max residual {check['max_residual']}, tolerance {check['tolerance']})"
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


def builtin_scenarios() -> dict[str, Scenario]:
    """The worked examples shipped with the package."""
    coin_game = Scenario(
        name="coin_game",
        states=("heads", "tails"),
        embedding=None,
        cost_kind="payoff",
        cost_matrix=((1.0, -2.0), (-1.0, 1.0)),
        cost_profile=None,
        distribution=None,
        estimators=("mode", "bayes"),
        search=SearchConfig(resolution=1e-3, refine_iterations=10),
    )
    two_coin = Scenario(
        name="two_coin",
        states=("HH", "HT", "TH", "TT"),
        embedding=None,
        cost_kind="matrix",
        cost_matrix=(
            (0.0, 0.0, 1.0, 1.0),
            (0.0, 0.0, 2.0, 1.0),
            (1.0, 2.0, 0.0, 1.0),
            (1.0, 1.0, 1.0, 0.0),
        ),
        cost_profile=None,
        distribution=None,
        estimators=("mode", "bayes"),
        search=SearchConfig(resolution=0.05, refine_iterations=10),
    )
    three_state_abs = Scenario(
        name="three_state_abs",
        states=("0", "1", "2"),
        embedding=(0.0, 1.0, 2.0),
        cost_kind="profile",
        cost_matrix=None,
        cost_profile="abs",
        distribution=None,
        estimators=("mode", "mean", "median", "bayes"),
        search=SearchConfig(resolution=0.01, refine_iterations=10),
    )
    zero_class = Scenario(
        name="zero_class",
        states=("a", "b", "c"),
        embedding=None,
        cost_kind="matrix",
        cost_matrix=((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0)),
        cost_profile=None,
        distribution=None,
        estimators=("mode", "bayes"),
        search=SearchConfig(resolution=0.01, refine_iterations=10),
    )
    return {
        sc.name: sc for sc in (coin_game, two_coin, three_state_abs, zero_class)
    }


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
