#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload bundle_query --seed 1 --seconds 5 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary into .bench_build/perfbench (cmake, make);
later runs only rebuild what changed. Build output goes to stderr. The last
line on stdout is the result object; its metric names and units are checked
against BENCHMARK.json. The exit code is nonzero when the build fails, a
self-check fails, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bundle_query", "serve_fresh", "publish"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace_out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: " + lines[-1])

    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected or "
             "wrong unit %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) != got[k])))
    print(lines[-1])
    sys.exit(proc.returncode if result.get("correct") else 1)


if __name__ == "__main__":
    main()
