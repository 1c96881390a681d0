"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` replaces the package's public functions, under the
names their callers look them up by, with wrappers that record a span
(name, start, end, parent, report id).  Inside ``worst_case`` it counts
``relative_error_exact`` calls (one per candidate posterior), the
candidates that raised the running best, ``bayes_estimate_exact`` calls,
and the grid-skip notices.  ``restore`` puts the originals back.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import warnings
from time import perf_counter

import costrisk.adversarial
import costrisk.cli
import costrisk.scenario

ESTIMATORS = ("mode", "mean_snapped", "median", "bayes")

#: (module, attribute) -> span name.  Every lookup path the package uses
#: for a layer is listed, since wrapping one name leaves the others bare.
SPANS = {
    (costrisk.cli, "main"): "cli.main",
    (costrisk.cli, "parse_scenario"): "scenario.parse",
    (costrisk.cli, "run_scenario"): "scenario.run",
    (costrisk.cli, "render_report"): "scenario.render",
    (costrisk.scenario, "parse_scenario"): "scenario.parse",
    (costrisk.scenario, "run_scenario"): "scenario.run",
    (costrisk.scenario, "render_report"): "scenario.render",
    (costrisk.scenario, "validate_cost"): "model.cost_build",
    (costrisk.scenario, "normalize_cost"): "model.cost_build",
    (costrisk.scenario, "distance_to_matrix"): "model.cost_build",
    (costrisk.scenario, "zero_one_cost"): "model.cost_build",
    (costrisk.scenario, "check_mode_appropriate"): "appropriateness.mode_check",
    (costrisk.scenario, "mode_error_lower_bound"): "appropriateness.mode_bound",
    (costrisk.scenario, "check_mean_appropriate"): "appropriateness.profile_check",
    (costrisk.scenario, "check_median_appropriate"): "appropriateness.profile_check",
    (costrisk.scenario, "mode_estimate"): "estimators.point",
    (costrisk.scenario, "mean_estimate"): "estimators.point",
    (costrisk.scenario, "nearest_state"): "estimators.point",
    (costrisk.scenario, "median_estimate"): "estimators.point",
    (costrisk.scenario, "bayes_estimate"): "estimators.point",
    (costrisk.scenario, "expected_cost"): "estimators.point",
    (costrisk.scenario, "relative_error"): "adversarial.relative_error",
    (costrisk.scenario, "worst_case"): "adversarial.worst_case",
}

#: Per-layer metrics that are self seconds per report, from span names.
SELF_METRICS = {
    "cli.self_s": "cli.main",
    "scenario.parse_s": "scenario.parse",
    "scenario.run_self_s": "scenario.run",
    "scenario.render_s": "scenario.render",
    "model.cost_build_s": "model.cost_build",
    "appropriateness.mode_check_s": "appropriateness.mode_check",
    "appropriateness.mode_bound_s": "appropriateness.mode_bound",
    "appropriateness.profile_check_s": "appropriateness.profile_check",
    "estimators.point_s": "estimators.point",
    "adversarial.relative_error_s": "adversarial.relative_error",
}


class TraceError(RuntimeError):
    """The trace is inconsistent or a layer it should see never fired."""


class _Search:
    """Counts inside one worst_case call."""

    __slots__ = ("candidates", "improving", "bayes", "best")

    def __init__(self):
        self.candidates = 0
        self.improving = 0
        self.bayes = 0
        self.best = -1  # worst_case's own starting value


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, report, attrs]
        self.stack: list[int] = []
        self.report = -1
        self.probes: list[tuple[int, float, float]] = []  # (report, start, end)
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.report, attrs])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return wrapper

    def _worst_case_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(estimator, cost, *args, **kwargs):
            search = _Search()
            index = self.begin(
                "adversarial.worst_case",
                {"est": estimator, "n": cost.size, "search": search},
            )
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    return fn(estimator, cost, *args, **kwargs)
            finally:
                self.end(index)
                self.spans[index][5]["grid_skipped"] = sum(
                    "skipped" in str(w.message) for w in caught
                )

        return wrapper

    def _current_search(self) -> _Search | None:
        if self.stack:
            attrs = self.spans[self.stack[-1]][5]
            if attrs is not None:
                return attrs["search"]
        return None

    def _candidate_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            search = self._current_search()
            if search is not None:
                search.candidates += 1
                if value > search.best:
                    search.best = value
                    search.improving += 1
            return value

        return wrapper

    def _bayes_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            search = self._current_search()
            if search is not None:
                search.bayes += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def _patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper(original))

    def install(self) -> None:
        for (module, attr), name in SPANS.items():
            if name == "adversarial.worst_case":
                self._patch(module, attr, self._worst_case_wrapper)
            else:
                self._patch(module, attr, functools.partial(self._span_wrapper, name))
        self._patch(costrisk.adversarial, "relative_error_exact", self._candidate_wrapper)
        self._patch(costrisk.adversarial, "bayes_estimate_exact", self._bayes_wrapper)

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus its children's and the speed probes'
        inside it; checks that the children fit inside their parent."""
        child_sum = [0.0] * len(self.spans)
        by_report: dict[int, list[int]] = {}
        for index, (name, start, end, parent, report, _) in enumerate(self.spans):
            if end is None:
                raise TraceError(f"span {name} never ended")
            if parent is not None:
                child_sum[parent] += end - start
            by_report.setdefault(report, []).append(index)
        for report, start, end in self.probes:
            # the innermost span open for the whole probe, by timestamps
            holders = [i for i in by_report.get(report, ())
                       if self.spans[i][1] <= start and end <= self.spans[i][2]]
            if holders:
                child_sum[max(holders, key=lambda i: self.spans[i][1])] += end - start
        out = []
        for (name, start, end, *_), inner in zip(self.spans, child_sum):
            if inner > (end - start) + 1e-9:
                raise TraceError(
                    f"children of {name} take {inner:.6f} s, more than its {end - start:.6f} s"
                )
            out.append((end - start) - inner)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start, end, parent, report, attributes."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent,
                       "report": report}
                if attrs:
                    row["est"], row["n"] = attrs["est"], attrs["n"]
                    s = attrs["search"]
                    row.update(candidates=s.candidates, improving=s.improving,
                               bayes=s.bayes, grid_skipped=attrs["grid_skipped"])
                fh.write(json.dumps(row) + "\n")
