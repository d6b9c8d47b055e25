"""Rule implementations for ivc_lint.

Rules operate over cpp_scan.FileModel objects (token streams plus the
exemption annotations). Each rule returns Finding records; the driver
sorts and formats them. Path conventions are relative to the lint root
with posix separators (e.g. "src/traffic/sim_engine.cpp").

R0  annotation hygiene: every IVC_ORDER_EXEMPT / IVC_LINT_ALLOW carries a
    non-empty justification, and IVC_LINT_ALLOW names a known rule.
R1  determinism sources: no ad-hoc randomness outside src/util/rng*, no
    raw clock reads outside src/util/perf*.
R2  no iteration over unordered containers (hash order is
    implementation-defined) unless IVC_ORDER_EXEMPT'd.
R4  VehicleStore hot-array encapsulation: no direct hot-column indexing
    outside src/traffic/.
"""

from __future__ import annotations

from dataclasses import dataclass

from cpp_scan import (
    CONTROL_KEYWORDS,
    FileModel,
    match_forward,
)

# Rule numbers are stable: R3 (shard-pass purity) went with the sharded
# engine step and its number is not reused.
ALL_RULES = ("R0", "R1", "R2", "R4")

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
            if ann.rule not in ("R1", "R2", "R4"):
                out.append(Finding(
                    "R0", model.path, ann.line,
                    f"IVC_LINT_ALLOW names unknown rule '{ann.rule}' "
                    f"(expected R1, R2 or R4)"))
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
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings
