#!/usr/bin/env python3
"""Build and run one workload of the aqt wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (an optimized build of the aqt libraries plus the
aqt_perfbench program) into .bench_build/perfbench, runs the workload, and
prints two lines on stdout: a details object (host fingerprint, every
metric aqt_perfbench measured, the failed checks) and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; a traced run also writes a Perfetto
trace_event file of the benchmark's spans and checks it with
scripts/validate_trace_event.py.  Exit status: 0 when every output check
passed, 1 when one failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("e1_instability", "sweep_stochastic", "serve_open_loop")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "aqt", "core", "engine.hpp")):
        fail("aqt sources not found next to perfbench/ (run from a checkout)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "aqt_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    traced = args.trace == "1"
    wanted = spec["per_layer"] if traced else spec["end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    trace_file = os.path.join(
        BUILD, "trace-%s-%d.json" % (args.workload, args.seed))
    if traced:
        cmd += ["--trace-out", trace_file]
        if os.path.exists(trace_file):
            os.remove(trace_file)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %ds" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("aqt_perfbench exited with status %d" % proc.returncode)
    report = json.loads(lines[-1])

    failures = list(report["failures"])
    if traced:
        validator = os.path.join(ROOT, "scripts", "validate_trace_event.py")
        check = subprocess.run([sys.executable, validator, trace_file],
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True)
        if check.returncode != 0:
            failures.append("trace file invalid: " + check.stdout.strip())
        report["trace_file"] = os.path.relpath(trace_file, ROOT)
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append("metric %s missing or not in %s" %
                            (m["name"], m["unit"]))
            continue
        metrics[m["name"]] = got

    report["failures"] = failures
    print(json.dumps(report, sort_keys=True))
    correct = not failures and report["correct"]
    attempted, failed = report["attempted"], report["failed"]
    if attempted == 0:  # The workload failed before its first operation.
        attempted, failed = 1, 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
