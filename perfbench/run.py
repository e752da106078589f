#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py \
        --workload discussion|mail|replication|replication_delete_race \
        --seed N --seconds S --trace 0|1

The first call configures and builds the DominoDB libraries and the
workload program from source into .bench_build/ (or $CARGO_TARGET_DIR);
later calls reuse that build. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The
metrics are the end_to_end ones BENCHMARK.json lists (--trace 0) or its
per_layer ones (--trace 1), with the units it gives; BENCHMARK.json is the
only list of metric names, and one the program did not measure fails the
run. The exit code is non-zero when the build fails, the run fails or an
output check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Runs `cmd` with its output sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return 1


def build(bench_dir, build_root):
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        code = run_logged(["cmake", "-G", "Unix Makefiles", "-S", bench_dir,
                           "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                          BUILD_TIMEOUT_S)
        if code != 0:
            return None
    code = run_logged(["cmake", "--build", build_dir, "--parallel", "4"],
                      BUILD_TIMEOUT_S)
    if code != 0 or not os.path.exists(binary):
        return None
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["discussion", "mail", "replication",
                                 "replication_delete_race"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if args.trace else "end_to_end"]
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(bench_dir, build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    data_dir = os.path.join(build_root, "data-%s-%d" % (args.workload,
                                                        os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir]
    if args.trace:
        cmd += ["--spans-file",
                os.path.join(build_root, "spans-%s.tsv" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    measured = result["metrics"]
    missing = [spec["name"] for spec in specs if spec["name"] not in measured]
    if missing:
        print("perfbench: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        result["correct"] = False
    result["metrics"] = {
        spec["name"]: {"value": measured[spec["name"]], "unit": spec["unit"]}
        for spec in specs if spec["name"] in measured}
    print(json.dumps(result))
    return proc.returncode if result["correct"] else max(proc.returncode, 1)


if __name__ == "__main__":
    sys.exit(main())
