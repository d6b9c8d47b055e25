#!/usr/bin/env python3
"""A/B perf gate: the repo benchmark on two git refs, in interleaved pairs.

    python3 tools/bench_ab.py <base> <head> [--pairs N] [--seed S]

Checks each ref out into a temporary git worktree, so each side builds its
own .bench_build/ through its own benchmark/run.py, and runs every workload
of the head's BENCHMARK.json once per side in each of N pairs: the base
first in even pairs, the head first in odd ones. Prints one Markdown row per
(workload, end-to-end metric) with each side's median [IQR], head/base, the
pairs the head read better and a verdict:

  REGRESSED   the head median is worse than the base median by more than the
              metric's BENCHMARK.json bound
  unresolved  otherwise, when the base's own IQR is wider than the bound,
              unless every head run reads better than every base run
  ok          everything else

and one row per workload comparing failed/attempted operations, which is
REGRESSED when the head's failed share is larger.

Exit status: 0 when no row is REGRESSED, 1 when one is, 2 when a ref, a
build or a run could not be evaluated.
"""
import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


class EvalError(Exception):
    """A ref, a build or a run that could not be evaluated."""


def load_spec(path):
    """The gate's inputs from a BENCHMARK.json."""
    with open(path) as f:
        bench = json.load(f)
    return {
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "workloads": [w["name"] for w in bench["workloads"]],
        "metrics": [{key: m[key] for key in ("name", "better", "bound")}
                    for m in bench["end_to_end"]],
    }


def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    s = sorted(values)

    def at(p):
        x = (len(s) - 1) * p
        lo = int(x)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (x - lo)

    return at(0.25), at(0.5), at(0.75)


def fmt(value):
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def decide(spec, results):
    """The gate's decision, a pure function of the parsed result lines.

    results[workload][side] lists that side's run.py result objects, one per
    pair in pair order. Returns (rows, exit status); a row is a tuple of
    table cells.
    """
    rows = []
    for workload in spec["workloads"]:
        runs = results[workload]
        pairs = len(runs["base"])
        for metric in spec["metrics"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            base, head = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
            b1, b_med, b3 = quartiles(base)
            h1, h_med, h3 = quartiles(head)
            wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
            if sign * (b_med - h_med) / b_med > bound:
                verdict = "REGRESSED"
            elif ((b3 - b1) / b_med > bound
                  and min(sign * h for h in head) <= max(sign * b for b in base)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append((workload, name, f"{fmt(b_med)} [{fmt(b3 - b1)}]",
                         f"{fmt(h_med)} [{fmt(h3 - h1)}]", f"{h_med / b_med:.3f}",
                         f"{wins}/{pairs}", verdict))
        failed = {side: (sum(r["failed"] for r in runs[side]),
                         sum(r["attempted"] for r in runs[side])) for side in SIDES}
        share = {side: f / a if a else 0.0 for side, (f, a) in failed.items()}
        rows.append((workload, "failed/attempted", "%d/%d" % failed["base"],
                     "%d/%d" % failed["head"], "", "",
                     "REGRESSED" if share["head"] > share["base"] else "ok"))
    return rows, 1 if any(row[-1] == "REGRESSED" for row in rows) else 0


def render(rows):
    header = ("workload", "metric", "base median [IQR]", "head median [IQR]", "head/base",
              "head better", "verdict")
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def resolve(ref):
    out = git("rev-parse", "--verify", "--quiet", ref + "^{commit}")
    if out.returncode != 0:
        raise EvalError(f"'{ref}' names no commit")
    return out.stdout.strip()


@contextlib.contextmanager
def worktrees(shas):
    """One detached worktree per side under a fresh temporary directory,
    removed on every exit path."""
    tmp_root = tempfile.mkdtemp(prefix="bench_ab-")
    trees = {}
    try:
        for side, sha in shas.items():
            path = os.path.join(tmp_root, side)
            out = git("worktree", "add", "--detach", path, sha)
            if out.returncode != 0:
                raise EvalError(f"cannot check out {sha}: {out.stderr.strip()}")
            trees[side] = path
        yield trees
    finally:
        stale = [git("worktree", "remove", "--force", path).returncode != 0
                 for path in trees.values()]
        shutil.rmtree(tmp_root, ignore_errors=True)
        if any(stale):
            git("worktree", "prune")


def run_one(spec, tree, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        tail = "\n".join(out.stderr.strip().splitlines()[-20:])
        raise EvalError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_pairs(spec, trees, pairs, seed):
    results = {w: {side: [] for side in SIDES} for w in spec["workloads"]}
    total, done = pairs * len(spec["workloads"]) * len(SIDES), 0
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in spec["workloads"]:
            for side in order:
                start = time.monotonic()
                result = run_one(spec, trees[side], workload, seed)
                results[workload][side].append(result)
                done += 1
                print(f"[{done}/{total}] pair {i + 1} {workload} {side}: "
                      f"{time.monotonic() - start:.0f} s, failed {result['failed']}/"
                      f"{result['attempted']}", file=sys.stderr, flush=True)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref of the side to compare against")
    parser.add_argument("head", help="git ref of the side under test")
    parser.add_argument("--pairs", type=int, default=3, help="interleaved pairs (default 3)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        shas = {"base": resolve(args.base), "head": resolve(args.head)}
        with worktrees(shas) as trees:
            spec = load_spec(os.path.join(trees["head"], "BENCHMARK.json"))
            results = run_pairs(spec, trees, args.pairs, args.seed)
        rows, status = decide(spec, results)
    except (EvalError, OSError, KeyError, ValueError, ZeroDivisionError) as e:
        print(f"bench_ab: cannot evaluate: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    uname = os.uname()
    print(f"base {args.base} ({shas['base'][:12]}), head {args.head} ({shas['head'][:12]}); "
          f"seed {args.seed}, {args.pairs} pair(s), {spec['run_seconds']} s per run; "
          f"{os.cpu_count()} CPUs, {uname.sysname} {uname.release} {uname.machine}\n")
    print(render(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
