// Shared sweep-harness scaffolding for `ivc_bench`, the one entry point for
// the paper's figures, ablations and named scenarios.
//
// Every figure sweeps the paper's evaluation grid — traffic volume
// 10..100 % of daily average x 1..10 randomly-placed seeds — runs each cell
// to convergence on the thread pool, verifies the zero-mis/double-counting
// claim on every run, and prints the max/min/avg rows the paper's surface
// plots are drawn from. `--smoke` shrinks the map, grid and time limit so
// CI can exercise every experiment end-to-end in seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/figure.hpp"
#include "experiment/scenario.hpp"
#include "experiment/sweep.hpp"
#include "util/cli.hpp"

namespace ivc::experiment {

struct HarnessOptions {
  std::int64_t replicas = 1;
  std::int64_t seed = 2014;  // ICPP year; any value works
  bool full_grid = false;    // full 10x10 grid vs the quicker default
  bool smoke = false;        // CI mode: tiny map, tiny grid, seconds per run
  bool csv = false;
  std::int64_t threads = 0;
  // Per-run sim-time limit; 0 keeps the scenario's own limit.
  std::int64_t time_limit_min = 0;
};

// Registers the common flags on an existing Cli.
void add_harness_options(util::Cli& cli, HarnessOptions* out);

// Upper bounds of the harness CLIs' counts: run_sweep's replica index fills
// the low 8 bits of each job's seed salt, and the pool starts one worker per
// thread asked for.
inline constexpr std::int64_t kMaxReplicas = 256;
inline constexpr std::int64_t kMaxThreads = 256;

// Rejects, before any sweep starts, --replicas outside 1..kMaxReplicas and
// --threads outside 0..kMaxThreads. Prints `error: --<flag> ...` and returns
// false on a bad value.
[[nodiscard]] bool check_harness_options(const HarnessOptions& opts);

// Shrink a scenario so a single run completes in well under a second: a
// 6x4 Manhattan map (zoo factories scale themselves via the registry), a
// small fleet and a tight sim-time limit.
void apply_smoke(ScenarioConfig* config);

// The paper's axes. The quick grid samples the same ranges coarsely so the
// default bench finishes in a couple of minutes on a laptop; --smoke
// collapses it to a pair of cells and smoke-shrinks the base scenario.
// Pass `base_already_smoke_sized` when the base came from a registry
// factory invoked at ScenarioScale::Smoke, so apply_smoke's clamps don't
// flatten scenario-specific sizing (e.g. a rush profile's larger fleet).
[[nodiscard]] SweepConfig make_sweep(const HarnessOptions& opts, const ScenarioConfig& base,
                                     bool base_already_smoke_sized = false);

// The paper's baseline scenario: closed/open Manhattan, 30% channel loss.
[[nodiscard]] ScenarioConfig paper_scenario(SystemMode mode, double speed_limit_mps,
                                            double map_scale = 1.0);

// Runs the sweep with a progress meter, prints the figure table (and CSV if
// requested), and reports whether every cell converged with an exact count.
std::vector<SweepCell> run_and_report(const std::string& title, const SweepConfig& sweep,
                                      FigureKind kind, bool csv);

// True when every cell of the sweep converged (for `kind`) with exact counts.
[[nodiscard]] bool all_cells_ok(const std::vector<SweepCell>& cells, FigureKind kind);

}  // namespace ivc::experiment
