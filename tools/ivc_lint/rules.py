"""Rule implementations for ivc_lint.

Rules operate over cpp_scan.FileModel objects (token streams plus the
function/marker facts). Each rule returns Finding records; the driver
sorts and formats them. Path conventions are relative to the lint root
with posix separators (e.g. "src/traffic/sim_engine.cpp").

R0  annotation hygiene: every IVC_ORDER_EXEMPT / IVC_LINT_ALLOW carries a
    non-empty justification, and IVC_LINT_ALLOW names a known rule.
R1  determinism sources: no ad-hoc randomness outside src/util/rng*, no
    raw clock reads outside src/util/perf*.
R2  no iteration over unordered containers (hash order is
    implementation-defined) unless IVC_ORDER_EXEMPT'd.
R3  shard-pass purity: functions marked IVC_SHARD_PASS must not reach
    (via the direct call graph) I/O, logging, shared sequential RNG,
    snapshot serialization (save/restore is legal only between steps,
    from the serial phase), or functions marked IVC_SERIAL_ONLY.
R4  VehicleStore hot-array encapsulation: no direct hot-column indexing
    outside src/traffic/.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from cpp_scan import (
    CONTROL_KEYWORDS,
    FileModel,
    Function,
    match_forward,
)

ALL_RULES = ("R0", "R1", "R2", "R3", "R4")

# --- R1 ---------------------------------------------------------------------

RNG_BANNED = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "random",
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux24_base",
    "ranlux48", "ranlux48_base", "random_shuffle",
}
CLOCK_NAMES = {
    "steady_clock", "system_clock", "high_resolution_clock", "file_clock",
    "utc_clock", "tai_clock", "gps_clock",
}
CLOCK_FUNCS = {"clock_gettime", "gettimeofday", "timespec_get", "ftime", "time", "clock"}

RNG_ALLOWED_PATHS = ("src/util/rng",)
CLOCK_ALLOWED_PATHS = ("src/util/perf",)

# --- R3 ---------------------------------------------------------------------

IO_SINKS = {
    "printf", "fprintf", "vfprintf",
    "puts", "fputs", "fputc", "putchar", "fwrite", "fread", "fopen", "fclose",
    "fflush", "freopen", "getline",
    "system", "getenv", "setenv", "popen", "syslog",
}
# Flagged on any appearance (stream objects/types are used without a
# directly-following call paren: `std::cout << x`, `std::ofstream f(path)`).
IO_BARE_SINKS = {"cout", "cerr", "clog", "wcout", "wcerr",
                 "ofstream", "ifstream", "fstream"}
LOG_SINKS = {
    "IVC_LOG", "IVC_TRACE", "IVC_DEBUG", "IVC_INFO", "IVC_WARN", "IVC_ERROR",
    "Logger",
}
# Sequential RNG reachable through the engine: the shared util::Rng member
# and its accessor. Counter-based streams (StreamRng, counter_mix,
# derive_seed, draw_for) are the sanctioned replacements and stay legal.
SHARED_RNG_IDENTS = {"rng_"}
SHARED_RNG_CALLS = {"rng"} | RNG_BANNED
SHARED_RNG_TYPES = {"Rng"}
# Snapshot/trace serialization (src/serve/): save/restore walks and
# encodes globally-owned engine state and is legal only *between* steps —
# a shard pass reaching it would serialize state other workers are
# mutating mid-step. Call names below are the serve-layer entry points;
# the bare types catch hand-rolled section encoding inside a pass.
SNAPSHOT_SINKS = {
    "save", "restore", "to_bytes", "from_bytes", "add_section",
    "record_trace", "replay_trace", "write_trace_file", "read_trace_file",
}
SNAPSHOT_TYPES = {"SnapshotAccess", "ByteWriter", "ByteReader", "Snapshot"}

# --- R4 ---------------------------------------------------------------------

HOT_FIELDS = {
    "position", "prev_position", "speed", "length", "desired_speed_factor",
    "edge", "lane", "lane_change_cooldown", "is_patrol",
}
# src/traffic/ owns the layout; the snapshot serializer is the one
# sanctioned outside consumer — a full-fidelity dump of every column is
# layout-coupled by definition (and bumps Snapshot::kVersion when the
# layout changes, which is the contract R4 exists to protect).
R4_ALLOWED_PREFIXES = ("src/traffic/", "src/serve/snapshot")


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _suppressed(model: FileModel, rule: str, line: int) -> bool:
    return line in model.suppressed.get(rule, set())


def _emit(out: list[Finding], model: FileModel, rule: str, line: int, msg: str) -> None:
    if not _suppressed(model, rule, line):
        out.append(Finding(rule, model.path, line, msg))


# ---------------------------------------------------------------------------
# R0: annotation hygiene
# ---------------------------------------------------------------------------

def check_r0(model: FileModel) -> list[Finding]:
    out: list[Finding] = []
    for ann in model.annotations:
        if ann.why is None or not ann.why.strip():
            out.append(Finding(
                "R0", model.path, ann.line,
                f"{ann.macro} requires a non-empty justification string"))
        if ann.macro == "IVC_LINT_ALLOW":
            if ann.rule not in ("R1", "R2", "R3", "R4"):
                out.append(Finding(
                    "R0", model.path, ann.line,
                    f"IVC_LINT_ALLOW names unknown rule '{ann.rule}' "
                    f"(expected R1..R4)"))
    return out


# ---------------------------------------------------------------------------
# R1: randomness / clock sources
# ---------------------------------------------------------------------------

def _path_allowed(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path.startswith(p) for p in prefixes)


def check_r1(model: FileModel) -> list[Finding]:
    out: list[Finding] = []
    toks = model.tokens
    n = len(toks)
    rng_ok = _path_allowed(model.path, RNG_ALLOWED_PATHS)
    clock_ok = _path_allowed(model.path, CLOCK_ALLOWED_PATHS)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if not rng_ok and t.value in RNG_BANNED:
            _emit(out, model, "R1", t.line,
                  f"ad-hoc randomness '{t.value}' outside util/rng — draw from "
                  "util::Rng / util::StreamRng (util/rng.hpp) so runs stay "
                  "seed-reproducible")
            continue
        if not clock_ok:
            if (t.value in CLOCK_NAMES and i + 2 < n
                    and toks[i + 1].value == "::" and toks[i + 2].value == "now"):
                _emit(out, model, "R1", t.line,
                      f"raw clock read '{t.value}::now' outside util/perf — use "
                      "util::steady_now_nanos() / util::PerfTimer; simulation "
                      "logic must never read wall clocks")
            elif (t.value in CLOCK_FUNCS and i + 1 < n
                    and toks[i + 1].value == "("
                    and (i == 0 or toks[i - 1].value not in (".", "->"))):
                # `time(` / `clock(` only as free calls, not methods like
                # `x.time(...)`; `::time(` still matches.
                if t.value in ("time", "clock") and i > 0 and toks[i - 1].value == "::" \
                        and i > 1 and toks[i - 2].kind == "id":
                    continue  # qualified member e.g. Foo::time(...) definition
                _emit(out, model, "R1", t.line,
                      f"raw clock read '{t.value}()' outside util/perf — use "
                      "util::steady_now_nanos() / util::PerfTimer")
    return out


# ---------------------------------------------------------------------------
# R2: unordered-container iteration
# ---------------------------------------------------------------------------

UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}
_SKIP_DECL_TOKENS = {"&", "*", "const", "constexpr", "static", "mutable", ">", ",", ")"}


def collect_unordered_names(models: list[FileModel]) -> set[str]:
    """Names of variables/members/accessors declared with an unordered type,
    pooled across all scanned files (members declared in headers are
    iterated in .cpp files)."""
    names: set[str] = set()
    for model in models:
        toks = model.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id" or t.value not in UNORDERED_TYPES:
                continue
            k = i + 1
            if k < n and toks[k].value == "<":
                depth = 0
                while k < n:
                    v = toks[k].value
                    if v == "<":
                        depth += 1
                    elif v == ">":
                        depth -= 1
                        if depth == 0:
                            k += 1
                            break
                    k += 1
            while k < n and (toks[k].value in _SKIP_DECL_TOKENS or toks[k].value == "::"):
                k += 1
            if k < n and toks[k].kind == "id" and toks[k].value not in CONTROL_KEYWORDS:
                names.add(toks[k].value)
    return names


def check_r2(model: FileModel, unordered_names: set[str]) -> list[Finding]:
    out: list[Finding] = []
    toks = model.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        # range-for over an unordered container
        if t.value == "for" and i + 1 < n and toks[i + 1].value == "(":
            close = match_forward(toks, i + 1, "(", ")")
            depth = 0
            colon = -1
            for k in range(i + 2, close):
                v = toks[k].value
                if v in ("(", "[", "{"):
                    depth += 1
                elif v in (")", "]", "}"):
                    depth -= 1
                elif v == ":" and depth == 0:
                    colon = k
                    break
            if colon < 0:
                continue
            for k in range(colon + 1, close):
                tk = toks[k]
                if tk.kind == "id" and tk.value in unordered_names:
                    _emit(out, model, "R2", t.line,
                          f"range-for over unordered container '{tk.value}' — "
                          "hash order is implementation-defined; iterate a "
                          "sorted copy/index, or annotate IVC_ORDER_EXEMPT(\"why\") "
                          "if the body is provably order-insensitive")
                    break
        # explicit iterator loop: name.begin() / name->begin()
        elif (t.value in unordered_names and i + 2 < n
                and toks[i + 1].value in (".", "->")
                and toks[i + 2].value in ("begin", "cbegin", "rbegin", "crbegin")
                and i + 3 < n and toks[i + 3].value == "("):
            _emit(out, model, "R2", t.line,
                  f"iterator walk over unordered container '{t.value}' — hash "
                  "order is implementation-defined; iterate a sorted view or "
                  "annotate IVC_ORDER_EXEMPT(\"why\")")
    return out


# ---------------------------------------------------------------------------
# R3: shard-pass purity via name-based call-graph reachability
# ---------------------------------------------------------------------------

def _build_graph(models: list[FileModel]):
    defs: dict[str, list[tuple[FileModel, Function]]] = {}
    shard_roots: set[str] = set()
    serial_only: set[str] = set()
    for model in models:
        shard_roots |= model.shard_pass
        serial_only |= model.serial_only
        for fn in model.functions:
            defs.setdefault(fn.name, []).append((model, fn))
    edges: dict[str, set[str]] = {}
    for name, sites in defs.items():
        callees: set[str] = set()
        for _, fn in sites:
            callees |= {c for c in fn.calls if c in defs and c != name}
        edges[name] = callees
    return defs, edges, shard_roots, serial_only


def _reachable(edges: dict[str, set[str]], roots: set[str]) -> dict[str, list[str]]:
    """BFS; returns name -> call path from its root (inclusive)."""
    paths: dict[str, list[str]] = {}
    dq: deque[str] = deque()
    for r in sorted(roots):
        if r in edges and r not in paths:
            paths[r] = [r]
            dq.append(r)
    while dq:
        cur = dq.popleft()
        for nxt in sorted(edges.get(cur, ())):
            if nxt not in paths:
                paths[nxt] = paths[cur] + [nxt]
                dq.append(nxt)
    return paths


def _scan_shard_body(out: list[Finding], model: FileModel, fn: Function,
                     path_desc: str, serial_only: set[str]) -> None:
    toks = model.tokens
    end = min(fn.body_end, len(toks))
    for k in range(fn.body_start, end):
        t = toks[k]
        if t.kind != "id" or t.value in CONTROL_KEYWORDS:
            continue
        is_call = k + 1 < len(toks) and toks[k + 1].value == "("
        if is_call and t.value in serial_only:
            _emit(out, model, "R3", t.line,
                  f"{path_desc} calls '{t.value}', which is marked "
                  "IVC_SERIAL_ONLY — shard passes must not mutate engine "
                  "state owned by the serial phase")
        elif (is_call and t.value in IO_SINKS) or t.value in IO_BARE_SINKS:
            _emit(out, model, "R3", t.line,
                  f"{path_desc} performs I/O via '{t.value}' — shard-pass "
                  "bodies must be pure compute (no I/O while workers race)")
        elif t.value in LOG_SINKS:
            _emit(out, model, "R3", t.line,
                  f"{path_desc} logs via '{t.value}' — logging from inside a "
                  "shard pass interleaves nondeterministically; log from the "
                  "serial phase instead")
        elif (is_call and t.value in SHARED_RNG_CALLS) or t.value in SHARED_RNG_IDENTS \
                or t.value in SHARED_RNG_TYPES:
            _emit(out, model, "R3", t.line,
                  f"{path_desc} touches shared sequential RNG ('{t.value}') — "
                  "draw through util::StreamRng / draw_for so results don't "
                  "depend on shard interleaving")
        elif (is_call and t.value in SNAPSHOT_SINKS) or t.value in SNAPSHOT_TYPES:
            _emit(out, model, "R3", t.line,
                  f"{path_desc} reaches snapshot I/O ('{t.value}') — "
                  "save/restore serializes globally-owned state and is legal "
                  "only between steps, from the serial phase")


def check_r3(models: list[FileModel]) -> list[Finding]:
    out: list[Finding] = []
    defs, edges, shard_roots, serial_only = _build_graph(models)
    paths = _reachable(edges, shard_roots)
    for name in sorted(paths):
        chain = paths[name]
        for model, fn in defs.get(name, ()):  # scan each definition site
            if len(chain) == 1:
                desc = f"shard pass '{name}'"
            else:
                desc = f"shard pass '{chain[0]}' (via {' -> '.join(chain)})"
            _scan_shard_body(out, model, fn, desc, serial_only)
    return out


# ---------------------------------------------------------------------------
# R4: VehicleStore hot-array encapsulation
# ---------------------------------------------------------------------------

def check_r4(model: FileModel) -> list[Finding]:
    if model.path.startswith(R4_ALLOWED_PREFIXES):
        return []
    out: list[Finding] = []
    toks = model.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.value not in (".", "->") or i + 2 >= n:
            continue
        f = toks[i + 1]
        if f.kind != "id" or f.value not in HOT_FIELDS:
            continue
        nxt = toks[i + 2].value
        if nxt == "[":
            _emit(out, model, "R4", f.line,
                  f"direct VehicleStore hot-array indexing '.{f.value}[...]' "
                  "outside src/traffic/ — go through traffic::VehicleRef "
                  "(engine.vehicle(id)) so the SoA layout stays encapsulated")
        elif nxt in (".", "->") and i + 3 < n and toks[i + 3].value == "data":
            _emit(out, model, "R4", f.line,
                  f"raw pointer into VehicleStore hot column '.{f.value}.data()' "
                  "outside src/traffic/ — go through traffic::VehicleRef")
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_rules(models: list[FileModel], rules: tuple[str, ...] = ALL_RULES) -> list[Finding]:
    findings: list[Finding] = []
    unordered_names = collect_unordered_names(models) if "R2" in rules else set()
    for model in models:
        if "R0" in rules:
            findings.extend(check_r0(model))
        if "R1" in rules:
            findings.extend(check_r1(model))
        if "R2" in rules:
            findings.extend(check_r2(model, unordered_names))
        if "R4" in rules:
            findings.extend(check_r4(model))
    if "R3" in rules:
        findings.extend(check_r3(models))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
