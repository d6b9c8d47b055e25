#!/usr/bin/env python3
"""The repo benchmark's entry point.

Run from the checkout root:

    python3 benchmark/run.py --workload dense-closed --seed 1 --seconds 30 --trace 0

Builds libivc and the benchmark binary from source into .bench_build/
(Release, CMake), runs one workload and passes the binary's report
through. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. Build output goes to
standard error. A traced run (--trace 1) also writes every span to
.bench_build/spans/<workload>-seed<seed>.tsv.

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ivc_repo_bench")
WORKLOADS = ("dense-closed", "sparse-served", "open-sweep")


def build():
    """Configures (once) and builds the binary; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "ivc_repo_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # An untraced run measures about --seconds after its set-up; twice that,
    # plus slack for set-up and the final snapshot cuts, covers a slower host.
    timeout_s = max(170.0, 2.0 * args.seconds + 100.0)

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {timeout_s:.0f} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"benchmark run failed with exit code {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("benchmark result line is malformed", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
