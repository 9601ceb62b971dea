#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny size of every workload.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --smoke for each workload of BENCHMARK.json, untraced
and traced on one seed and untraced on a second seed. Each run must exit 0
with a last line holding exactly correct/attempted/failed/metrics, pass its
correctness checks, and print every end-to-end (untraced) or per-layer
(traced) metric BENCHMARK.json names with its unit (run.py fails the run
otherwise) and a numeric value, positive if end-to-end. A traced run must
also leave a well-formed chrome trace with spans in it. Exits 1 on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    tag = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        fail(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2 or not lines[-2].startswith("context: "):
        fail(f"{tag}: no context line before the result")
    context = json.loads(lines[-2][len("context: "):])
    for key in ("cpu_model", "kernel", "compiler", "build_type", "git_sha",
                "seed", "nproc"):
        if key not in context:
            fail(f"{tag}: run context lacks {key}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{tag}: correctness checks failed: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{tag}: attempted = {result['attempted']}")
    # run.py itself fails when a metric BENCHMARK.json names is missing or
    # has another unit.
    for name, entry in result["metrics"].items():
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"{tag}: {name} has no numeric value")
        if not trace and entry["value"] <= 0:
            fail(f"{tag}: end-to-end metric {name} is not positive")
    if trace:
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        path = os.path.join(ROOT, base, "traces",
                            f"{workload}-seed{seed}-trace1.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("ph") == "X" for e in events):
            fail(f"{tag}: chrome trace {path} holds no spans")
    print(f"ok   {tag}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} checked")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        run(w["name"], 7, 0)
        run(w["name"], 7, 1)
        run(w["name"], 8, 0)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
