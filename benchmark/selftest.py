#!/usr/bin/env python3
"""Self-test of the repo benchmark at ScenarioScale::Smoke (under a minute).

    python3 benchmark/selftest.py

Checks three things on every workload:
  * every metric is printed: the final JSON line carries exactly the
    end-to-end (--trace 0) or per-layer (--trace 1) names and units of
    BENCHMARK.json, and the report names every metric the workload
    defines;
  * the checks fire: a flipped snapshot byte, and on sparse-served a
    hand-built inconsistent view, are each counted as one failed
    operation;
  * a held-out seed, used nowhere else, passes every check, traced and
    untraced.
Exits non-zero when any of them fails.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

HELD_OUT_SEED = 90417
# Report-only metrics each workload prints besides the JSON ones.
REPORT_ONLY = {
    "dense-closed": ["error_rate"],
    "sparse-served": ["error_rate", "query_p50_us", "query_p99_us"],
    "open-sweep": ["error_rate", "sweep_cells_per_s"],
}
FAULTS = {
    "dense-closed": ["snapshot-flip"],
    "sparse-served": ["snapshot-flip", "torn-view"],
    "open-sweep": ["snapshot-flip"],
}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, seed, inject="none"):
    cmd = [bench.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "smoke", "--inject", inject]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    return out.stdout, result


def main():
    if not bench.build():
        print("build failed", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    workloads = [w["name"] for w in spec["workloads"]]
    expect(sorted(workloads) == sorted(bench.WORKLOADS), "BENCHMARK.json names every workload")

    for workload in workloads:
        for trace in (0, 1):
            tag = f"{workload} trace={trace} seed={HELD_OUT_SEED}"
            text, result = run(workload, trace, HELD_OUT_SEED)
            expect(result is not None, f"{tag}: exits 0 with a JSON result line")
            if result is None:
                continue
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(wanted[trace]),
                   f"{tag}: JSON metrics are exactly BENCHMARK.json's")
            expect(all(metrics[n]["unit"] == units[n] for n in metrics if n in units),
                   f"{tag}: every metric carries its BENCHMARK.json unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in metrics.values()), f"{tag}: every value is a finite number")
            if trace == 0:
                expect(all(metrics[n]["value"] > 0 for n in wanted[0]),
                       f"{tag}: every end-to-end metric is above 0")
                printed = {line.split()[0] for line in text.splitlines()
                           if line.startswith("  ")}
                missing = [n for n in REPORT_ONLY[workload] + wanted[0] if n not in printed]
                expect(not missing, f"{tag}: report prints every metric {missing or ''}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: passes every check ({result['failed']}/{result['attempted']} failed)")

        for fault in FAULTS[workload]:
            tag = f"{workload} --inject {fault}"
            _, result = run(workload, 0, HELD_OUT_SEED, fault)
            expect(result is not None and not result["correct"] and result["failed"] == 1,
                   f"{tag}: counted as exactly one failed operation "
                   f"({result and result['failed']} failed)")

    print(f"\n{'PASS' if not failures else 'FAIL'}: {len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
