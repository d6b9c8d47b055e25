// Parameter sweeps over (traffic volume x seed count) — the grid every
// figure in the paper's evaluation is drawn over — executed in parallel on
// the thread pool with replica averaging.
#pragma once

#include <functional>
#include <vector>

#include "experiment/scenario.hpp"

namespace ivc::experiment {

struct SweepConfig {
  std::vector<double> volumes_pct = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  std::vector<int> seed_counts = {1, 2, 4, 6, 8, 10};
  int replicas = 2;
  ScenarioConfig base;
  std::size_t threads = 0;  // 0 = hardware concurrency
};

// One grid point, replica-averaged. Correctness flags are AND-ed so a
// single failing replica flags the cell.
struct SweepCell {
  double volume_pct = 0.0;
  int num_seeds = 0;
  int replicas = 0;

  double constitution_max_min = 0.0;
  double constitution_min_min = 0.0;
  double constitution_avg_min = 0.0;
  double collection_max_min = 0.0;
  double collection_min_min = 0.0;
  double collection_avg_min = 0.0;
  double time_all_active_min = 0.0;

  bool constitution_converged = true;
  bool collection_converged = true;
  bool all_exact = true;
  std::int64_t total_truth = 0;
  std::int64_t total_protocol = 0;
  double wall_seconds = 0.0;
};

// Called on the pool's worker threads after each job, possibly
// concurrently: `done` is that job's completion count (each of 1..total
// exactly once), so a callback that shares state must synchronize it.
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

[[nodiscard]] std::vector<SweepCell> run_sweep(const SweepConfig& config,
                                               const ProgressFn& progress = {});

}  // namespace ivc::experiment
