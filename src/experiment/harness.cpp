#include "experiment/harness.hpp"

#include <algorithm>
#include <iostream>

namespace ivc::experiment {

void add_harness_options(util::Cli& cli, HarnessOptions* out) {
  cli.add_int("replicas", &out->replicas, "replicas per grid cell");
  cli.add_int("seed", &out->seed, "master RNG seed");
  cli.add_flag("full-grid", &out->full_grid,
               "sweep the paper's full 10 volumes x 10 seed counts");
  cli.add_flag("smoke", &out->smoke, "CI smoke mode: tiny map and grid, seconds total");
  cli.add_flag("csv", &out->csv, "also print machine-readable CSV");
  cli.add_int("threads", &out->threads, "worker threads (0 = all cores)");
  cli.add_int("time-limit", &out->time_limit_min,
              "per-run sim-time limit (minutes, 0 = scenario default)");
}

bool check_harness_options(const HarnessOptions& opts) {
  if (opts.replicas < 1 || opts.replicas > kMaxReplicas) {
    std::cerr << "error: --replicas must be in 1.." << kMaxReplicas << "\n";
    return false;
  }
  if (opts.threads < 0 || opts.threads > kMaxThreads) {
    std::cerr << "error: --threads must be in 0.." << kMaxThreads << "\n";
    return false;
  }
  return true;
}

void apply_smoke(ScenarioConfig* config) {
  if (!config->map_factory) {
    config->map.streets = 6;
    config->map.avenues = 4;
  }
  // The sim-time limit is left alone: runs converge early, and with a smoke
  // map even a worst-case run to the limit is well under a second.
  config->vehicles_at_100pct = std::min<std::size_t>(config->vehicles_at_100pct, 150);
  config->arrival_rate_at_100pct = std::min(config->arrival_rate_at_100pct, 0.4);
}

SweepConfig make_sweep(const HarnessOptions& opts, const ScenarioConfig& base,
                       bool base_already_smoke_sized) {
  SweepConfig sweep;
  if (opts.smoke) {
    sweep.volumes_pct = {50, 100};
    sweep.seed_counts = {1, 2};
  } else if (opts.full_grid) {
    sweep.volumes_pct = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
    sweep.seed_counts = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  } else {
    sweep.volumes_pct = {10, 25, 50, 75, 100};
    sweep.seed_counts = {1, 2, 4, 6, 8, 10};
  }
  sweep.replicas = opts.smoke ? 1 : static_cast<int>(opts.replicas);
  // Negative --threads would wrap to SIZE_MAX workers; treat it as "all cores".
  sweep.threads = opts.threads > 0 ? static_cast<std::size_t>(opts.threads) : 0;
  sweep.base = base;
  sweep.base.seed = static_cast<std::uint64_t>(opts.seed);
  if (opts.time_limit_min > 0) {
    sweep.base.time_limit_minutes = static_cast<double>(opts.time_limit_min);
  }
  if (opts.smoke && !base_already_smoke_sized) apply_smoke(&sweep.base);
  return sweep;
}

ScenarioConfig paper_scenario(SystemMode mode, double speed_limit_mps, double map_scale) {
  ScenarioConfig config;
  config.mode = mode;
  config.map.speed_limit = speed_limit_mps;
  config.map.scale = map_scale;
  // A scaled region keeps the same traffic *density*: the vehicle fleet
  // shrinks with the area and boundary inflow with the perimeter, matching
  // the paper's "smaller region, denser checkpoints" framing for
  // Fig. 4(c)/5(c).
  const double area_ratio = map_scale * map_scale;
  config.vehicles_at_100pct =
      static_cast<std::size_t>(static_cast<double>(config.vehicles_at_100pct) * area_ratio);
  config.arrival_rate_at_100pct *= map_scale;
  config.protocol.channel_loss = 0.30;  // paper: 30% failure chance
  config.time_limit_minutes = 360.0;    // high-volume full-grid cells need headroom
  return config;
}

bool all_cells_ok(const std::vector<SweepCell>& cells, FigureKind kind) {
  bool all_ok = true;
  for (const auto& cell : cells) {
    const bool converged = kind == FigureKind::Constitution ? cell.constitution_converged
                                                            : cell.collection_converged;
    all_ok = all_ok && converged && cell.all_exact;
  }
  return all_ok;
}

std::vector<SweepCell> run_and_report(const std::string& title, const SweepConfig& sweep,
                                      FigureKind kind, bool csv) {
  std::cerr << title << ": sweeping " << sweep.volumes_pct.size() << " volumes x "
            << sweep.seed_counts.size() << " seed counts x " << sweep.replicas
            << " replica(s)\n";
  const auto cells = run_sweep(sweep, [](std::size_t done, std::size_t total) {
    if (done == total || done % 10 == 0) {
      std::cerr << "  " << done << "/" << total << " runs complete\r" << std::flush;
    }
  });
  std::cerr << "\n";
  print_figure_table(std::cout, title, cells, kind);
  if (csv) {
    std::cout << "\n-- CSV --\n";
    print_figure_csv(std::cout, cells, kind);
  }
  std::cout << (all_cells_ok(cells, kind)
                    ? "[OK] every run converged with an exact count "
                      "(no mis- or double-counting)\n"
                    : "[WARN] some cells failed to converge or miscounted — "
                      "see table\n");
  std::cout << std::endl;
  return cells;
}

}  // namespace ivc::experiment
