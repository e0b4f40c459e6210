#!/usr/bin/env python3
"""Run one i2mr benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload pagerank-large-state --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The first run builds the library from
src/ and the driver into .bench_build/perfbench (see CMakeLists.txt); the
computation's files live under .bench_run/ while a run lasts.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. A traced run makes two driver runs with the same seed:
one untraced, for the tracing overhead, then one with I2MR_TRACE_JSON set,
whose trace gives the per-layer times. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}; build and program logs go to
standard error. Any failure to build or run exits non-zero without a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import trace_summary  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_run")
DRIVER = os.path.join(BUILD, "i2mr_perfbench")
DRIVER_TIMEOUT_S = 150


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "i2mr_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace_path=None):
    root = os.path.join(RUNS, workload)
    shutil.rmtree(root, ignore_errors=True)
    env = dict(os.environ)
    env.pop("I2MR_TRACE_JSON", None)
    if trace_path:
        env["I2MR_TRACE_JSON"] = trace_path
    try:
        proc = subprocess.run(
            [DRIVER, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--root", root],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S, check=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(args, plain, correct):
    """Runs the driver traced; adds the trace's per-layer figures."""
    plain_p50 = plain["metrics"]["epoch_ms_p50"]["value"]
    trace_path = os.path.join(RUNS, args.workload + ".trace.json")
    try:
        result = run_driver(args.workload, args.seed, args.seconds, trace_path)
        layers = trace_summary.summarize(trace_path, result["epochs"])
    finally:
        if os.path.exists(trace_path):
            os.remove(trace_path)
    traced_p50 = result["metrics"]["epoch_ms_p50"]["value"]
    layers["trace.epoch_ms_p50"] = traced_p50
    layers["trace.overhead_pct"] = (traced_p50 / plain_p50 - 1) * 100
    for name, value in layers.items():
        result["metrics"][name] = {"value": value}
    return result, correct and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    try:
        build()
        os.makedirs(RUNS, exist_ok=True)
        result = run_driver(args.workload, args.seed, args.seconds)
        correct = result["correct"]
        if args.trace:
            result, correct = traced_run(args, result, correct)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.exit(f"run.py: {e}")

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            sys.exit(f"run.py: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": result["metrics"][m["name"]]["value"],
                              "unit": m["unit"]}
    for why in result["errors"]:
        print(f"run.py: {why}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
