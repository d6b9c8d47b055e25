#!/usr/bin/env python3
"""ivc_lint — determinism lint for the ivc codebase.

Enforces the repo's determinism invariants over src/:

  R0  IVC_ORDER_EXEMPT / IVC_LINT_ALLOW annotations carry real justifications
  R1  randomness only via util/rng, clocks only via util/perf
  R2  no iteration over unordered containers (unless IVC_ORDER_EXEMPT)
  R4  VehicleStore hot columns are indexed only inside src/traffic/

Every rule is a pattern over a dependency-free token scanner
(cpp_scan.py); compile_commands.json, when present, only drives file
discovery.

Exit codes: 0 clean (or expectation met), 1 findings (or expectation
missed), 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpp_scan
import rules as rules_mod

RULE_DOCS = {
    "R0": "annotation hygiene: exemptions must carry a non-empty justification",
    "R1": "randomness only via util/rng; clock reads only via util/perf",
    "R2": "no unordered_map/set iteration without IVC_ORDER_EXEMPT(\"why\")",
    "R4": "VehicleStore hot-array access only inside src/traffic/",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="ivc_lint", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("files", nargs="*",
                   help="explicit files to lint (relative to --root or absolute); "
                        "default: discover src/**/*.cpp|hpp under --root")
    p.add_argument("--root", default=None,
                   help="lint root; rule paths (src/util/rng, src/traffic/, ...) are "
                        "resolved against it (default: the repo checkout containing "
                        "this script)")
    p.add_argument("--compile-db", default=None,
                   help="path to compile_commands.json (used for file discovery)")
    p.add_argument("--rules", default=",".join(rules_mod.ALL_RULES),
                   help="comma-separated subset of rules to run (default: all)")
    p.add_argument("--only-paths", default=None, metavar="src/a.cpp,src/b.hpp",
                   help="scan everything (keeping the cross-file container-name "
                        "pool whole) but report only findings in these "
                        "root-relative paths; used by lint.sh --diff")
    p.add_argument("--expect", default=None, metavar="R1,R2",
                   help="fixture mode: exit 0 iff exactly this set of rules fired")
    p.add_argument("--expect-clean", action="store_true",
                   help="fixture mode: exit 0 iff no rule fired")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the full findings report to FILE")
    p.add_argument("--list-rules", action="store_true", help="print rule summaries and exit")
    p.add_argument("-q", "--quiet", action="store_true", help="suppress per-finding output")
    return p.parse_args(argv)


def default_root() -> str:
    return os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        os.pardir, os.pardir))


def discover_files(root: str, compile_db: str | None) -> list[str]:
    """Lintable translation units: .cpp entries from the compile DB that live
    under root/src, plus every header under root/src (headers are not TUs in
    the DB but hold inline methods and the annotation sites)."""
    src_root = os.path.join(root, "src")
    found: set[str] = set()
    if compile_db and os.path.isfile(compile_db):
        try:
            with open(compile_db, "r", encoding="utf-8") as f:
                entries = json.load(f)
            for e in entries:
                path = os.path.normpath(os.path.join(e.get("directory", ""), e["file"]))
                if path.startswith(src_root + os.sep) and path.endswith(".cpp"):
                    found.add(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"ivc-lint: warning: unreadable compile db {compile_db}: {exc}",
                  file=sys.stderr)
    if not found:
        found.update(glob.glob(os.path.join(src_root, "**", "*.cpp"), recursive=True))
    found.update(glob.glob(os.path.join(src_root, "**", "*.hpp"), recursive=True))
    found.update(glob.glob(os.path.join(src_root, "**", "*.h"), recursive=True))
    return sorted(found)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.list_rules:
        for rule in rules_mod.ALL_RULES:
            print(f"{rule}  {RULE_DOCS[rule]}")
        return 0

    root = os.path.abspath(args.root) if args.root else default_root()
    compile_db = args.compile_db
    if compile_db is None:
        for cand in ("build/compile_commands.json", "compile_commands.json"):
            path = os.path.join(root, cand)
            if os.path.isfile(path):
                compile_db = path
                break

    if args.files:
        files = []
        for f in args.files:
            path = f if os.path.isabs(f) else os.path.join(root, f)
            if not os.path.isfile(path):
                print(f"ivc-lint: error: no such file: {f}", file=sys.stderr)
                return 2
            files.append(os.path.abspath(path))
        files.sort()
    else:
        files = discover_files(root, compile_db)
    if not files:
        print(f"ivc-lint: error: nothing to lint under {root}", file=sys.stderr)
        return 2

    models = []
    for path in files:
        rel = os.path.relpath(path, root)
        models.append(cpp_scan.scan_file(path, rel))

    rule_set = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for r in rule_set:
        if r not in rules_mod.ALL_RULES:
            print(f"ivc-lint: error: unknown rule '{r}'", file=sys.stderr)
            return 2
    findings = rules_mod.run_rules(models, rule_set)

    restricted = ""
    if args.only_paths is not None:
        keep = {p.strip().replace(os.sep, "/") for p in args.only_paths.split(",")
                if p.strip()}
        findings = [f for f in findings if f.path in keep]
        restricted = f", restricted to {len(keep)} changed file(s)"

    lines = [f.format() for f in findings]
    summary = (f"ivc-lint: {len(findings)} finding(s) across {len(files)} file(s) "
               f"scanned{restricted}" if findings else
               f"ivc-lint: clean ({len(files)} files scanned{restricted})")
    if not args.quiet:
        for line in lines:
            print(line)
    print(summary)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(lines + [summary]) + "\n")

    fired = sorted({f.rule for f in findings})
    if args.expect_clean:
        if fired:
            print(f"ivc-lint: FAIL: expected clean but rules fired: {','.join(fired)}")
            return 1
        print("ivc-lint: OK: clean as expected")
        return 0
    if args.expect is not None:
        expected = sorted({r.strip() for r in args.expect.split(",") if r.strip()})
        if fired == expected:
            print(f"ivc-lint: OK: expected rule(s) fired: {','.join(expected)}")
            return 0
        print(f"ivc-lint: FAIL: expected {','.join(expected) or '(none)'} "
              f"but got {','.join(fired) or '(none)'}")
        return 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
