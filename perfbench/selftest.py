#!/usr/bin/env python3
"""Self-test of the pipeline benchmark on reduced-size inputs.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with --size small and checks that
  * each run is correct and prints every metric BENCHMARK.json names, with its
    unit: the end-to-end metrics untraced, the per-layer metrics traced;
  * the deterministic metrics repeat bit-exactly for the same seed;
  * the traced run's spans cover at least 95% of its wall time;
  * a second seed still loads the layer the workload is there for:
    evictions in serve-drift, outages and failovers in serve-storm.
Exits 0 when every check passes, 1 otherwise.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED, OTHER_SEED = 7, 8

# Metrics that depend only on the seed, never on timing.
DETERMINISTIC_END_TO_END = ["hit_ratio", "realized_hit_ratio"]
DETERMINISTIC_EXTRA = ["serve.p99_download_s", "serve.cloud_mb_per_request"]

# Per-layer counters a second seed must keep above zero.
MUST_LOAD = {
    "plan-100x": ["sim.repair_evicted", "sim.lowering_builds"],
    "serve-drift": ["serve.cache_evictions.lru", "serve.cache_evictions.ewma",
                    "serve.cache_evictions.priority"],
    "serve-storm": ["serve.outages.static", "serve.failovers.static"],
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL:", what)


def run(workload, seed, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "small"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    expect(done.returncode == 0 and lines,
           f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr[-2000:]}")
    if not lines:
        return {}
    result = json.loads(lines[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
           f"failed={result['failed']} attempted={result['attempted']}")
    return result["metrics"]


def check_names(workload, metrics, declared):
    for metric in declared:
        got = metrics.get(metric["name"])
        expect(got is not None, f"{workload}: metric {metric['name']} missing")
        if got is not None:
            expect(got["unit"] == metric["unit"],
                   f"{workload}: {metric['name']} unit {got['unit']} != {metric['unit']}")
            expect(isinstance(got["value"], (int, float)), f"{workload}: {metric['name']} value")
    extra = set(metrics) - {metric["name"] for metric in declared}
    expect(not extra, f"{workload}: undeclared metrics {sorted(extra)}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = spec["per_layer"]
    deterministic_layer = [m["name"] for m in per_layer
                           if (m["unit"] in ("count", "ratio") and not m["name"].startswith("bench."))
                           or m["name"] in DETERMINISTIC_EXTRA]
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        first, second = run(workload, SEED, 0), run(workload, SEED, 0)
        check_names(workload, first, spec["end_to_end"])
        for name in DETERMINISTIC_END_TO_END:
            if name in first and name in second:
                expect(first[name]["value"] == second[name]["value"],
                       f"{workload}: {name} differs between runs of one seed")

        traced, traced_again = run(workload, SEED, 1), run(workload, SEED, 1)
        check_names(workload, traced, per_layer)
        for name in deterministic_layer:
            if name in traced and name in traced_again:
                expect(traced[name]["value"] == traced_again[name]["value"],
                       f"{workload}: {name} differs between traced runs of one seed")
        coverage = traced.get("bench.span_coverage", {}).get("value", 0.0)
        expect(coverage >= 0.95, f"{workload}: spans cover {coverage:.3f} of the wall time")

        other = run(workload, OTHER_SEED, 1)
        for name in MUST_LOAD[workload]:
            value = other.get(name, {}).get("value", 0)
            expect(value > 0, f"{workload} seed {OTHER_SEED}: {name} = {value}")

    print("selftest:", "FAILED" if failures else "ok", f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
