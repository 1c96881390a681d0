#!/usr/bin/env python3
"""costrisk benchmark: report throughput, latency and exactness.

    python3 bench/run.py --workload builtins --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md):

  builtins        the four shipped built-ins through ``cli.main`` in
                  process; search does nearly all the work
  scaled_worst    worst-case documents, cost |x_s - x_t|^p, n = 2..5 and
                  7..9, one estimator each
  explicit_batch  explicit-posterior documents, n = 2..12, matrix, payoff
                  and profile costs, text and json; never enters the search

One process runs one workload single-threaded as a closed loop with one
caller: the next report starts when the previous one, and its output
checks, are done.  A report is parse (for documents), ``run_scenario``
and ``render_report``; only that is timed, and the loop stops at the
first pass boundary after the timed total reaches ``--seconds``, so
every run holds the same mix.  Every report's output is checked against
oracle.py outside the timed region; a report fails when it raises, exits
non-zero, or fails a check.

Times are speed-scaled: a fixed stdlib calibration kernel runs before,
after and every PROBE_INTERVAL_S during each report, and the report's
wall time (less the kernel's) is multiplied by the mean of CALIBRATION_S
over the kernel's times.  On shared virtual machines the CPU's speed
swings by up to 2x within seconds, which moves raw wall times across runs
far more than any bound; the kernel swings with it, so the scaled times
stay put while a slower or faster program still moves them.  The table
prints the raw wall figures beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced, then re-runs the same reports with tracing.py's spans and
prints the per-layer metrics, with the tracing overhead, and writes the
spans to bench/out/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable table, including the quality figures that can be zero or
undefined and so are not gated metrics.

The package is imported from src/ of this checkout, never from elsewhere.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Gated end-to-end metrics (BENCHMARK.json), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "reports_per_s": "1/s",
    "report_p50_s": "s",
    "peak_rss_mb": "MB",
}

WORST_CASE_ESTIMATORS = ("mode", "mean_snapped", "median", "bayes")
N_BUCKETS = ("n_le6", "n_ge7")

#: Per-layer metrics (BENCHMARK.json), name -> unit.
PER_LAYER = {
    "cli.self_s": "s",
    "scenario.parse_s": "s",
    "scenario.run_self_s": "s",
    "scenario.render_s": "s",
    "model.cost_build_s": "s",
    "appropriateness.mode_check_s": "s",
    "appropriateness.mode_bound_s": "s",
    "appropriateness.profile_check_s": "s",
    "estimators.point_s": "s",
    "adversarial.relative_error_s": "s",
    **{f"adversarial.worst_case.{e}_s": "s" for e in WORST_CASE_ESTIMATORS},
    **{
        f"adversarial.worst_case.{e}_s.{b}": "s"
        for e in WORST_CASE_ESTIMATORS
        for b in N_BUCKETS
    },
    **{f"adversarial.candidates.{e}": "count" for e in WORST_CASE_ESTIMATORS},
    "adversarial.candidate_us": "us",
    "adversarial.bayes_per_candidate": "ratio",
    "adversarial.improving_ratio": "ratio",
    "adversarial.grid_skipped": "count",
    "adversarial.mode_wc_shortfall": "ratio",
    "appropriateness.unsound_bound_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: What the traced run must see on each workload (coverage guard).
EXPECTED_FIRING = {
    "builtins": {
        "cli.main", "scenario.run", "scenario.render", "model.cost_build",
        "appropriateness.mode_check", "appropriateness.mode_bound",
        "appropriateness.profile_check", "estimators.point",
        *(f"worst_case.{e}" for e in WORST_CASE_ESTIMATORS),
        "candidates", "bayes",
    },
    "scaled_worst": {
        "scenario.parse", "scenario.run", "scenario.render", "model.cost_build",
        "appropriateness.mode_check", "appropriateness.mode_bound", "estimators.point",
        *(f"worst_case.{e}.{b}" for e in WORST_CASE_ESTIMATORS for b in N_BUCKETS),
        "candidates", "bayes", "grid_skipped",
    },
    "explicit_batch": {
        "scenario.parse", "scenario.run", "scenario.render", "model.cost_build",
        "appropriateness.mode_check", "appropriateness.mode_bound",
        "appropriateness.profile_check", "estimators.point", "adversarial.relative_error",
    },
}

SETUP_SPAWNS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import costrisk.cli; "
    "costrisk.cli.build_parser(); print(costrisk.__file__)"
)
SOUND_TOL = 1e-9

#: Scaled times are seconds on a machine where the calibration kernel
#: takes this long; on the 2-vCPU VM the baseline comes from it takes
#: 1.9 to 2.5 ms, so scaled figures read close to wall seconds there.
CALIBRATION_S = 2e-3
#: How often the calibration kernel samples the speed during a report.
PROBE_INTERVAL_S = 0.03


def calibration_seconds() -> float:
    """Wall time of fixed pure-Python Fraction work: a yardstick for the
    CPU's current speed that no change to the package can move (Fraction
    is bound here before costrisk is imported)."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 3) * Fraction(7, 2 * i + 1)
    return perf_counter() - start


class SpeedProbe:
    """Times a call and the machine's speed during it.

    The calibration kernel runs before and after the call and, with an
    ``interval``, from a SIGALRM handler every ``interval`` seconds while
    it runs.  The kernel's time inside the call is taken out of the
    call's, and given to the tracer, when there is one, so no layer's
    self time includes it.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.kernels: list[float] = []
        self.tracer = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.kernels.append(calibration_seconds())
        if self.tracer is not None:
            self.tracer.probes.append((self.tracer.report, start, perf_counter()))

    def time(self, fn):
        """Run fn; return (its result, wall seconds, speed scale)."""
        self.kernels = [calibration_seconds()]
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = perf_counter()
        try:
            result = fn()
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self.kernels[1:])
        self.kernels.append(calibration_seconds())
        scale = statistics.fmean(CALIBRATION_S / k for k in self.kernels)
        return result, elapsed - inside, scale


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def import_package():
    """Import costrisk from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import costrisk
        import costrisk.cli
    except ImportError as exc:
        raise BenchError(f"cannot import costrisk from {SRC}: {exc}") from exc
    if not Path(costrisk.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"costrisk came from {costrisk.__file__}, not {SRC}")
    return costrisk


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter importing
    costrisk and building the CLI parser, after one warm-up spawn.  The
    speed is probed only around each spawn: a probe during it would run
    beside the child, not inside its time."""
    probe = SpeedProbe(interval=0)
    scaled, raw = [], []
    for k in range(SETUP_SPAWNS + 1):
        proc, elapsed, scale = probe.time(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        ))
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up interpreter imported {proc.stdout.strip()}")
        if k:
            scaled.append(elapsed * scale)
            raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def tail(durations: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest of p99.9/p99/p95/p90 that has at
    least ten samples beyond it (nearest rank), or None."""
    n = len(durations)
    ordered = sorted(durations)
    for pct in (99.9, 99.0, 95.0, 90.0):
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


class Bench:
    """One workload's closed loop, output checks and metrics."""

    def __init__(self, costrisk, workload: str, seed: int):
        import oracle
        import workloads

        self.cr = costrisk
        self.oracle = oracle
        self.workload = workload
        self.items = workloads.WORKLOADS[workload](seed)
        self.pass_size = workloads.PASS_SIZE[workload]
        # the originals, for checks that must stay outside any trace
        self.render = costrisk.scenario.render_report
        self.last_report = None
        self.probe = SpeedProbe()
        self.supremum: dict[str, object] = {}
        self.attempted = []
        self.failures: list[str] = []
        self.shortfalls: list[float] = []
        self.bounds = 0
        self.unsound = 0

    # -- one report ------------------------------------------------------
    def _capture_render(self, fn):
        def wrapper(report, *args, **kwargs):
            self.last_report = report
            return fn(report, *args, **kwargs)

        return wrapper

    def run_one(self, item, tracer=None, report_id=0):
        """Run one report; return (output, report, failure or None)."""
        cr = self.cr
        out = report = error = None
        if tracer is not None:
            tracer.report = report_id
            root = tracer.begin("report")
        try:
            if item.text is None:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cr.cli.main(["builtin", item.key, "--format", item.fmt])
                out = buf.getvalue()
                report, self.last_report = self.last_report, None
                if code != 0:
                    error = f"{item.key}: exit code {code}"
            else:
                report = cr.scenario.run_scenario(cr.scenario.parse_scenario(item.text))
                out = cr.scenario.render_report(report, item.fmt)
        except Exception as exc:  # a failed report, counted, not fatal
            error = f"{item.key}: raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.end(root)
        return out, report, error

    def finish(self, item, out, report, error) -> str | None:
        """Count the report and check its output; returns the failure."""
        self.attempted.append(item)
        if error is None:
            error = self.check(item, out, report)
        if error is not None:
            self.failures.append(error)
        return error

    # -- output checks ---------------------------------------------------
    def _mode_supremum(self, item):
        if item.key not in self.supremum:
            self.supremum[item.key] = self.oracle.mode_supremum(item.cost)
        return self.supremum[item.key]

    def check(self, item, out, report) -> str | None:
        """Check one report's output; returns the first problem found.
        Also tallies the exactness figures, which are not failures."""
        o = self.oracle
        if report is None:
            return f"{item.key}: no report was rendered"
        if self.render(report, item.fmt) != out:
            return f"{item.key}: rendering the report again changed its bytes"
        exact = self._mode_supremum(item)
        bounds = [v.bound for v in report.mode_verdict.violations]
        bounds.append(report.mode_bound.value)
        self.bounds += len(bounds)
        self.unsound += sum(b > exact + SOUND_TOL for b in bounds)

        sc = report.scenario
        if sc.distribution is not None:
            expected = o.estimate_blocks(
                item.cost, o.posterior(sc.distribution), sc.embedding, sc.estimators, sc.states
            )
            got = _estimates_section(out, item.fmt)
            for name, block in expected.items():
                for key, value in block.items():
                    seen = got.get(name, {}).get(key)
                    want = value if item.fmt == "json" else str(value)
                    if seen != want:
                        return f"{item.key}: {name}.{key} is {seen!r}, oracle says {want!r}"
            return None

        for name, block in report.estimates.items():
            state = sc.states.index(block["estimate"])
            value = o.relative_error(item.cost, state, o.posterior(block["witness"]))
            if o.fmt9(value) != o.fmt9(block["value"]):
                return (
                    f"{item.key}: {name} worst case {block['value']!r} does not "
                    f"re-evaluate at its witness ({float(value)!r})"
                )
            if name == "mode":
                reported = block["value"]
                if reported > exact + SOUND_TOL * max(1.0, float(exact)):
                    return f"{item.key}: search found {reported!r} above the exact {exact}"
                if exact == math.inf:
                    self.shortfalls.append(0.0 if reported == math.inf else 1.0)
                elif exact == 0:
                    self.shortfalls.append(0.0)
                else:
                    self.shortfalls.append(float((exact - reported) / exact))
        return None

    # -- loops -----------------------------------------------------------
    def loop(self, seconds: float, count: int | None = None, tracer=None) -> list[tuple]:
        """Closed loop over the items; returns (wall seconds, speed scale,
        succeeded) per report.  Stops after ``count`` reports, or once the
        wall total reaches ``seconds`` at a pass boundary."""
        samples = []
        wall = 0.0
        i = 0
        while True:
            if count is not None:
                if i == count:
                    break
            elif wall >= seconds and i % self.pass_size == 0:
                break
            item = self.items[i % len(self.items)]
            (out, report, error), elapsed, scale = self.probe.time(
                lambda: self.run_one(item, tracer, i))
            error = self.finish(item, out, report, error)
            samples.append((elapsed, scale, error is None))
            wall += elapsed
            i += 1
        return samples

    def warm_up(self) -> None:
        """One unrecorded report, so lazy set-up is not timed."""
        self.run_one(self.items[0])

    # -- metrics ---------------------------------------------------------
    def quality(self) -> dict:
        attempted = len(self.attempted)
        return {
            "failed_ratio": (len(self.failures) / attempted, f"{len(self.failures)}/{attempted}"),
            "mode_wc_shortfall": (
                statistics.fmean(self.shortfalls) if self.shortfalls else None,
                f"mean of {len(self.shortfalls)} mode worst cases",
            ),
            "unsound_bound_ratio": (
                self.unsound / self.bounds if self.bounds else None,
                f"{self.unsound}/{self.bounds} bounds above the exact supremum",
            ),
        }


def _estimates_section(out: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(out)["estimates"]
    section: dict[str, dict] = {}
    lines = out.splitlines()
    current = None
    for line in lines[lines.index("estimates:") + 1:]:
        if line.startswith("    "):
            key, _, value = line.strip().partition(": ")
            section[current][key] = value
        else:
            current = line.strip().rstrip(":")
            section[current] = {}
    return section


def layer_metrics(bench: Bench, tracer, untraced: list[tuple], traced: list[tuple], items):
    """Per-layer metrics from the spans of the traced reports; ``_s``
    metrics are speed-scaled self seconds per report (per report of that
    size, for the n buckets).  ``untraced`` and ``traced`` are the loop's
    samples for the same reports."""
    import tracing

    scales = [scale for _, scale, _ in traced]
    selfs = [own * scales[span[4]] for own, span in zip(tracer.self_times(), tracer.spans)]
    reports = len(items)
    per_bucket = {
        "n_le6": sum(it.n <= 6 for it in items),
        "n_ge7": sum(it.n >= 7 for it in items),
    }
    by_name: dict[str, float] = {}
    fired: set[str] = set()
    wc = {e: 0.0 for e in WORST_CASE_ESTIMATORS}
    wc_bucket = {(e, b): 0.0 for e in WORST_CASE_ESTIMATORS for b in N_BUCKETS}
    calls = {e: 0 for e in WORST_CASE_ESTIMATORS}
    cands = {e: 0 for e in WORST_CASE_ESTIMATORS}
    search_seconds = improving = bayes = skipped = 0
    for (name, start, end, _, report, attrs), own in zip(tracer.spans, selfs):
        fired.add(name)
        by_name[name] = by_name.get(name, 0.0) + own
        if attrs is None:
            continue
        est = attrs["est"]
        bucket = "n_le6" if attrs["n"] <= 6 else "n_ge7"
        s = attrs["search"]
        fired.update({f"worst_case.{est}", f"worst_case.{est}.{bucket}"})
        wc[est] += own
        wc_bucket[(est, bucket)] += own
        calls[est] += 1
        cands[est] += s.candidates
        search_seconds += (end - start) * scales[report]
        improving += s.improving
        bayes += s.bayes
        skipped += attrs["grid_skipped"]
    total_cands = sum(cands.values())
    if total_cands:
        fired.add("candidates")
    if bayes:
        fired.add("bayes")
    if skipped:
        fired.add("grid_skipped")
    missing = EXPECTED_FIRING[bench.workload] - fired
    if missing:
        raise tracing.TraceError(
            f"traced run never saw {', '.join(sorted(missing))} on {bench.workload}"
        )

    m = {k: by_name.get(span, 0.0) / reports for k, span in tracing.SELF_METRICS.items()}
    for e in WORST_CASE_ESTIMATORS:
        m[f"adversarial.worst_case.{e}_s"] = wc[e] / reports
        for b in N_BUCKETS:
            m[f"adversarial.worst_case.{e}_s.{b}"] = wc_bucket[(e, b)] / max(1, per_bucket[b])
        m[f"adversarial.candidates.{e}"] = cands[e] / calls[e] if calls[e] else 0.0
    m["adversarial.candidate_us"] = 1e6 * search_seconds / total_cands if total_cands else 0.0
    m["adversarial.bayes_per_candidate"] = bayes / total_cands if total_cands else 0.0
    m["adversarial.improving_ratio"] = improving / total_cands if total_cands else 0.0
    m["adversarial.grid_skipped"] = skipped / reports
    quality = bench.quality()
    m["adversarial.mode_wc_shortfall"] = quality["mode_wc_shortfall"][0] or 0.0
    m["appropriateness.unsound_bound_ratio"] = quality["unsound_bound_ratio"][0] or 0.0
    untraced_s = [wall * scale for wall, scale, _ in untraced]
    traced_s = [wall * scale for wall, scale, _ in traced]
    m["trace.overhead_s"] = (sum(traced_s) - sum(untraced_s)) / reports
    m["trace.overhead_ratio"] = sum(traced_s) / sum(untraced_s) - 1

    # accounting: the layers' self times against the untraced report time
    layer_sum = [0.0] * reports
    for (name, *_, report, _), own in zip(tracer.spans, selfs):
        if name != "report":
            layer_sum[report] += own
    accounting = (
        f"layers sum to {statistics.median(layer_sum):.6g} s at p50 and "
        f"{statistics.fmean(layer_sum):.6g} s on average per traced report; "
        f"untraced report p50 {statistics.median(untraced_s):.6g} s, "
        f"mean {statistics.fmean(untraced_s):.6g} s; benchmark loop self "
        f"{by_name.get('report', 0.0) / reports:.3g} s per report"
    )
    return m, accounting


def run_workload(args) -> int:
    costrisk = import_package()
    import workloads

    bench = Bench(costrisk, args.workload, args.seed)
    capture = costrisk.cli.render_report
    costrisk.cli.render_report = bench._capture_render(capture)
    try:
        if args.trace:
            metrics, lines = traced_run(bench, args)
        else:
            metrics, lines = untraced_run(bench, args)
    finally:
        costrisk.cli.render_report = capture

    attempted = len(bench.attempted)
    failed = len(bench.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}: {attempted} reports attempted, {failed} failed")
    for line in lines:
        print(line)
    for reason in bench.failures[:10]:
        print(f"  FAILED {reason}")
    print("traffic " + json.dumps(workloads.traffic(bench.attempted), sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


def untraced_run(bench: Bench, args):
    setup, setup_raw = measure_setup()
    bench.warm_up()
    ok = [(wall, scale) for wall, scale, good in bench.loop(args.seconds) if good]
    if not ok:
        raise BenchError("no report completed")
    durations = [wall * scale for wall, scale in ok]
    raw = [wall for wall, _ in ok]
    metrics = {
        "setup_s": setup,
        "reports_per_s": len(durations) / sum(durations),
        "report_p50_s": statistics.median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(durations)
    t = tail(durations)
    rows = [
        ("setup_s", f"{setup:.6g}", "s",
         f"median of {SETUP_SPAWNS} fresh interpreters; raw wall {setup_raw:.6g}"),
        ("reports_per_s", f"{metrics['reports_per_s']:.6g}", "1/s",
         f"{n} reports in {sum(durations):.3f} scaled s; raw wall {n / sum(raw):.6g}"),
        ("report_p50_s", f"{metrics['report_p50_s']:.6g}", "s",
         f"{n} samples; raw wall {statistics.median(raw):.6g}"),
        ("report_tail_s", f"{t[1]:.6g}" if t else "omitted", "s",
         f"p{t[0]:g} of {n} samples" if t else f"only {n} samples; p90 needs 100"),
        ("peak_rss_mb", f"{metrics['peak_rss_mb']:.6g}", "MB", "ru_maxrss of this process"),
    ]
    for name, (value, note) in bench.quality().items():
        rows.append((name, "n/a" if value is None else f"{value:.6g}", "ratio", note))
    return metrics, [f"  {a:<22}{b:>14} {c:<6} {d}" for a, b, c, d in rows]


def traced_run(bench: Bench, args):
    import tracing

    bench.warm_up()
    untraced = bench.loop(args.seconds / 2)
    count = len(untraced)
    tracer = tracing.Tracer()
    tracer.install()
    bench.probe.tracer = tracer
    try:
        traced = bench.loop(0, count=count, tracer=tracer)
    finally:
        bench.probe.tracer = None
        tracer.restore()
    items = bench.attempted[count:]
    metrics, accounting = layer_metrics(bench, tracer, untraced, traced, items)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_file)
    lines = [f"  {k:<44}{metrics[k]:>14.6g} {PER_LAYER[k]}" for k in PER_LAYER]
    lines.append(f"  accounting: {accounting}")
    lines.append(f"  spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    return metrics, lines


def run_all(args) -> int:
    """Each workload in its own process; prints every table and one JSON
    object keyed by workload."""
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("builtins", "scaled_worst", "explicit_batch", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            import_package()
            return run_all(args)
        return run_workload(args)
    except RuntimeError as exc:  # BenchError, tracing.TraceError
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
