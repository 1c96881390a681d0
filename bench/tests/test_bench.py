"""The benchmark's own tests: run with ``python3 -m pytest bench/tests``."""

import itertools
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import costrisk
import oracle
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def brute_mode_supremum(cost):
    """The oracle's formula by enumerating every subset."""
    n = len(cost)
    best = Fraction(0)
    for k in range(1, n + 1):
        for support in itertools.combinations(range(n), k):
            sums = [sum(cost[o][t] for t in support) for o in range(n)]
            low = min(sums)
            for m in support:
                if low == 0:
                    if sums[m] > 0:
                        return math.inf
                    continue
                best = max(best, sums[m] / low - 1)
    return best


def test_oracle_reproduces_the_builtin_suprema():
    items = {it.key: it for it in workloads.builtins_items(0)}
    expected = {"coin_game": Fraction(1, 2), "two_coin": Fraction(2),
                "three_state_abs": Fraction(1, 2), "zero_class": Fraction(1)}
    assert {k: oracle.mode_supremum(items[k].cost) for k in expected} == expected


def test_prefix_scan_matches_subset_enumeration():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(2, 6)
        raw = [[rng.randint(-5, 15) for _ in range(n)] for _ in range(n)]
        for t in range(n):
            raw[t][t] = min(raw[s][t] for s in range(n))
        cost = oracle.normalize(oracle.raw_cost("matrix", raw, None, n))
        assert oracle.mode_supremum(cost) == brute_mode_supremum(cost)


@pytest.mark.parametrize(
    "raw, exact",
    [
        ([[0, 3, 13], [2, 0, 14], [11, 13, 0]], Fraction(1, 2)),
        ([[0, 16, 0], [6, 0, 5], [0, 6, 0]], Fraction(5, 3)),
    ],
)
def test_known_unsound_bounds_exceed_the_oracle(raw, exact):
    cost = oracle.normalize(oracle.raw_cost("matrix", raw, None, 3))
    assert oracle.mode_supremum(cost) == exact
    normalized = costrisk.normalize_cost(costrisk.validate_cost(raw))
    bounds = [v.bound for v in costrisk.check_mode_appropriate(normalized).violations]
    bounds.append(costrisk.mode_error_lower_bound(normalized).value)
    assert max(bounds) > exact + run.SOUND_TOL


def test_oracle_never_below_the_search():
    for item in workloads.scaled_items(3):
        if item.n > 4 or item.doc["estimators"] != ["mode"]:
            continue
        normalized = costrisk.normalize_cost(costrisk.validate_cost(item.doc["cost"]["matrix"]))
        found = costrisk.worst_case("mode", normalized, config=costrisk.SearchConfig(
            **workloads.SCALED_SEARCH))
        assert oracle.mode_supremum(item.cost) >= found.value - 1e-12


def test_explicit_oracle_agrees_with_the_package():
    for item in workloads.explicit_items(5)[:66]:
        sc = costrisk.parse_scenario(item.text)
        report = costrisk.report_to_dict(costrisk.run_scenario(sc))
        expected = oracle.estimate_blocks(
            item.cost, oracle.posterior(sc.distribution), sc.embedding, sc.estimators, sc.states
        )
        for name, block in expected.items():
            for key, value in block.items():
                assert report["estimates"][name][key] == value, (item.key, name, key)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    make = workloads.WORKLOADS[name]
    assert [it.text for it in make(11)] == [it.text for it in make(11)]
    assert workloads.traffic(make(11)) == workloads.traffic(make(11))
    if name != "builtins":
        assert [it.text for it in make(11)] != [it.text for it in make(12)]


def test_explicit_mix_is_the_same_for_every_seed():
    def mix(seed):
        return sorted((it.n, it.kind, it.fmt, len(it.doc["estimators"]))
                      for it in workloads.explicit_items(seed))

    assert mix(1) == mix(2)


def test_benchmark_json_names_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert set(run.EXPECTED_FIRING) == set(workloads.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert max(m["bound"] for m in BENCHMARK["end_to_end"]) == next(
        m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "explicit_batch",
         "--seed", "4", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[key]}
    for name in run.END_TO_END:
        assert trace or f"  {name}" in proc.stdout
    for name in ("report_tail_s", "failed_ratio", "mode_wc_shortfall", "unsound_bound_ratio"):
        assert trace or f"  {name}" in proc.stdout


def test_tracer_restores_the_package():
    before = {key: getattr(*key) for key in tracing.SPANS}
    tracer = tracing.Tracer()
    tracer.install()
    assert costrisk.scenario.worst_case is not before[(costrisk.scenario, "worst_case")]
    tracer.restore()
    assert {key: getattr(*key) for key in tracing.SPANS} == before


def test_coverage_guard_names_a_silent_layer():
    item = workloads.explicit_items(1)[0]
    bench = run.Bench(costrisk, "explicit_batch", 1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        costrisk.scenario.parse_scenario(item.text)  # parse alone: other layers silent
    finally:
        tracer.restore()
    tracer.report = 0
    for span in tracer.spans:
        span[4] = 0
    with pytest.raises(tracing.TraceError, match="never saw"):
        run.layer_metrics(bench, tracer, [(1.0, 1.0, True)], [(1.0, 1.0, True)], [item])


def test_child_time_beyond_the_parent_is_refused():
    tracer = tracing.Tracer()
    tracer.spans = [["report", 0.0, 1.0, None, 0, None], ["scenario.run", 0.0, 2.0, 0, 0, None]]
    with pytest.raises(tracing.TraceError, match="more than its"):
        tracer.self_times()
