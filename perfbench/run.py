#!/usr/bin/env python3
"""Builds and runs the McCuckoo end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kv_get|kv_batch|table_rw \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. The benchmark's own output goes to stderr except for
the last two lines of stdout: the run context, then one JSON object with
exactly the keys correct, attempted, failed and metrics. A traced run
(--trace 1) also writes chrome-trace spans under .bench_build/traces/.
Every result is recorded with its context under .bench_build/results/.
Exits non-zero, printing no result, if the build fails, any output of the
program under test is wrong, or a metric BENCHMARK.json names for this mode
is missing.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_get", "kv_batch", "table_rw")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(build_dir):
    """Configures once, then (re)builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        log("library sources (src/) not found next to perfbench/; "
            "run from a full checkout of the repository")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("cmake configure failed")
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        log("build failed")
        return None
    binary = os.path.join(build_dir, "mcbench")
    return binary if os.access(binary, os.X_OK) else None


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return (out.stdout or out.stderr).strip().splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        return "unknown"


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_context(build_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    if len(sha) != 40:
        sha = "unknown (not a git checkout)"
    compiler = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    return {
        "cpu_model": cpu,
        "kernel": platform.release(),
        "compiler": first_line([compiler, "--version"])
        if compiler != "unknown" else "unknown",
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
    }


def expected_metrics(trace):
    """Name -> unit of every metric BENCHMARK.json names for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: the smoke test's configuration")
    args = ap.parse_args()

    base = build_root()
    build_dir = os.path.join(base, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_dir = os.path.join(base, "traces")
    result_dir = os.path.join(base, "results")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(result_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-out", os.path.join(trace_dir, tag + ".json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"benchmark printed no result (exit {proc.returncode})")
        return 1

    context = run_context(build_dir)
    context.update(raw.get("context", {}))
    record = dict(raw, context=context)
    with open(os.path.join(result_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    correct = proc.returncode == 0 and bool(raw.get("correct"))
    if not correct:
        log("correctness checks failed: " + json.dumps(raw.get("failures")))
    want = expected_metrics(args.trace)
    got = {k: v.get("unit") for k, v in raw["metrics"].items()}
    if got != want:
        correct = False
        log("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")
    result = {k: raw[k] for k in ("correct", "attempted", "failed", "metrics")}
    result["correct"] = correct
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
