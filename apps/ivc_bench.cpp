// ivc_bench — the unified batch runner.
//
// One CLI for every figure, ablation and named zoo scenario: it sweeps the
// (volume x seeds x replicas) grid on the thread pool, prints the
// max/min/avg tables the paper's surface plots are drawn from, and
// optionally writes machine-readable CSV. Replaces the per-figure main()
// duplication that used to live in bench/; fig4_/fig5_ remain there because
// they also print the paper's speed-up comparisons across four sweeps.
//
//   ivc_bench --list                      # catalogue of figures + scenarios
//   ivc_bench --figure fig2               # a paper figure sweep
//   ivc_bench --scenario ring-radial-open-rush
//   ivc_bench --all-scenarios --smoke     # CI: every zoo scenario in seconds
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/registry.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"

namespace {

using namespace ivc;

struct FigureDef {
  const char* name;
  const char* title;
  experiment::SystemMode mode;
  experiment::FigureKind kind;
  double speed_mps;
  double map_scale;
};

constexpr FigureDef kFigures[] = {
    {"fig2", "Fig. 2 — constitution time (min), closed system, 15 mph",
     experiment::SystemMode::Closed, experiment::FigureKind::Constitution,
     util::kSpeedLimit15MphMps, 1.0},
    {"fig3", "Fig. 3 — seeds' global-view collection time (min), closed system, 15 mph",
     experiment::SystemMode::Closed, experiment::FigureKind::Collection,
     util::kSpeedLimit15MphMps, 1.0},
    {"fig4", "Fig. 4(a) — complete-status time (min), open system, 15 mph",
     experiment::SystemMode::Open, experiment::FigureKind::Constitution,
     util::kSpeedLimit15MphMps, 1.0},
    {"fig4b", "Fig. 4(b) — open system after the speed limit is lifted to 25 mph",
     experiment::SystemMode::Open, experiment::FigureKind::Constitution,
     util::kSpeedLimit25MphMps, 1.0},
    {"fig4c", "Fig. 4(c) — closed system, 25 mph, region scaled 0.6 (denser checkpoints)",
     experiment::SystemMode::Closed, experiment::FigureKind::Constitution,
     util::kSpeedLimit25MphMps, 0.6},
    {"fig5", "Fig. 5(a) — collection time (min), open system, 15 mph",
     experiment::SystemMode::Open, experiment::FigureKind::Collection,
     util::kSpeedLimit15MphMps, 1.0},
    {"fig5b", "Fig. 5(b) — open-system collection after 25 mph speedup",
     experiment::SystemMode::Open, experiment::FigureKind::Collection,
     util::kSpeedLimit25MphMps, 1.0},
};

const FigureDef* find_figure(const std::string& name) {
  for (const auto& figure : kFigures) {
    if (name == figure.name) return &figure;
  }
  return nullptr;
}

void print_catalogue() {
  util::TextTable figures({"figure", "title"});
  for (const auto& figure : kFigures) figures.add_row({figure.name, figure.title});
  std::cout << "== Paper figures (run with --figure <name>) ==\n";
  figures.print(std::cout);

  util::TextTable scenarios({"scenario", "topology", "demand", "description"});
  for (const auto& entry : experiment::ScenarioRegistry::builtin().entries()) {
    scenarios.add_row({entry.name, entry.topology, entry.demand, entry.description});
  }
  std::cout << "\n== Named scenarios (run with --scenario <name>) ==\n";
  scenarios.print(std::cout);
  std::cout << "\nCommon flags: --smoke --full-grid --replicas N --seed N --csv\n"
               "              --volumes 25,50,100 --seeds 1,2,4 --out file.csv\n";
}

[[nodiscard]] bool parse_double_list(const std::string& csv, std::vector<double>* out) {
  out->clear();
  for (const auto& token : util::split(csv, ',')) {
    double value = 0.0;
    try {
      value = std::stod(token);
    } catch (...) {
      std::cerr << "ivc_bench: bad number '" << token << "' in list '" << csv << "'\n";
      return false;
    }
    if (value <= 0.0) {
      std::cerr << "ivc_bench: values in '" << csv << "' must be positive\n";
      return false;
    }
    out->push_back(value);
  }
  return !out->empty();
}

[[nodiscard]] bool parse_seed_counts(const std::string& csv, std::vector<int>* out) {
  std::vector<double> values;
  if (!parse_double_list(csv, &values)) return false;
  out->clear();
  constexpr int kMaxSeeds = std::numeric_limits<int>::max();
  for (const double v : values) {
    // Compared as a double: the cast below is undefined past INT_MAX.
    if (v > static_cast<double>(kMaxSeeds)) {
      std::cerr << "error: --seeds entries must be <= " << kMaxSeeds << "\n";
      return false;
    }
    if (v != static_cast<double>(static_cast<int>(v))) {
      std::cerr << "ivc_bench: '" << csv << "' must contain whole numbers\n";
      return false;
    }
    out->push_back(static_cast<int>(v));
  }
  return true;
}

struct RunRequest {
  std::string name;
  std::string title;
  experiment::SweepConfig sweep;
  experiment::FigureKind kind;
};

// Runs one sweep, appends CSV to `csv_out` if open. Returns pass/fail.
bool execute(const RunRequest& request, bool print_csv, std::ofstream* csv_out) {
  const auto cells =
      experiment::run_and_report(request.title, request.sweep, request.kind, print_csv);
  if (csv_out != nullptr && csv_out->is_open()) {
    *csv_out << "# " << request.name << "\n";
    experiment::print_figure_csv(*csv_out, cells, request.kind);
  }
  return experiment::all_cells_ok(cells, request.kind);
}

}  // namespace

int main(int argc, char** argv) {
  experiment::HarnessOptions opts;
  bool list = false;
  bool all_scenarios = false;
  std::string scenario_name;
  std::string figure_name;
  std::string volumes_csv;
  std::string seeds_csv;
  std::string out_path;

  util::Cli cli("ivc_bench",
                "unified sweep runner: paper figures and zoo scenarios by name");
  cli.add_flag("list", &list, "list figures and named scenarios, then exit");
  cli.add_string("figure", &figure_name, "run a paper figure (fig2..fig5b)");
  cli.add_string("scenario", &scenario_name, "run a named scenario (see --list)");
  cli.add_flag("all-scenarios", &all_scenarios, "run every named scenario");
  cli.add_string("volumes", &volumes_csv, "override volume grid, e.g. 25,50,100");
  cli.add_string("seeds", &seeds_csv, "override seed-count grid, e.g. 1,2,4");
  cli.add_string("out", &out_path, "append machine-readable CSV to this file");
  experiment::add_harness_options(cli, &opts);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  if (!experiment::check_harness_options(opts)) return 1;

  if (list) {
    print_catalogue();
    return 0;
  }
  if (figure_name.empty() && scenario_name.empty() && !all_scenarios) {
    cli.print_usage(std::cerr);
    std::cerr << "\nivc_bench: nothing to do — pass --list, --figure, --scenario or "
                 "--all-scenarios\n";
    return 1;
  }

  std::vector<double> volumes;
  std::vector<int> seed_counts;
  if (!volumes_csv.empty() && !parse_double_list(volumes_csv, &volumes)) return 1;
  if (!seeds_csv.empty() && !parse_seed_counts(seeds_csv, &seed_counts)) return 1;

  const auto scale =
      opts.smoke ? experiment::ScenarioScale::Smoke : experiment::ScenarioScale::Full;
  std::vector<RunRequest> requests;

  if (!figure_name.empty()) {
    const FigureDef* figure = find_figure(figure_name);
    if (figure == nullptr) {
      std::cerr << "ivc_bench: unknown figure '" << figure_name << "' (see --list)\n";
      return 1;
    }
    RunRequest request;
    request.name = figure->name;
    request.title = figure->title;
    request.sweep = experiment::make_sweep(
        opts, experiment::paper_scenario(figure->mode, figure->speed_mps, figure->map_scale));
    request.kind = figure->kind;
    requests.push_back(std::move(request));
  }

  const auto& registry = experiment::ScenarioRegistry::builtin();
  std::vector<const experiment::NamedScenario*> picked;
  if (all_scenarios) {
    for (const auto& entry : registry.entries()) picked.push_back(&entry);
  } else if (!scenario_name.empty()) {
    const auto* entry = registry.find(scenario_name);
    if (entry == nullptr) {
      std::cerr << "ivc_bench: unknown scenario '" << scenario_name << "' (see --list)\n";
      return 1;
    }
    picked.push_back(entry);
  }
  for (const auto* entry : picked) {
    const experiment::ScenarioConfig base = entry->make(scale);
    RunRequest request;
    request.name = entry->name;
    request.title =
        util::format("Scenario %s — %s", entry->name.c_str(), entry->description.c_str());
    // The registry factory already sized `base` for the requested scale;
    // don't let apply_smoke clamp away scenario-specific sizing.
    request.sweep = experiment::make_sweep(opts, base, opts.smoke);
    if (!opts.smoke && !opts.full_grid) {
      // Scenario default grid: coarser than the paper grid so a full zoo
      // pass stays tractable; --full-grid restores the 10x10.
      request.sweep.volumes_pct = {25, 50, 75, 100};
      request.sweep.seed_counts = {1, 2, 4};
    }
    request.kind = base.protocol.collection ? experiment::FigureKind::Collection
                                            : experiment::FigureKind::Constitution;
    requests.push_back(std::move(request));
  }

  std::ofstream csv_out;
  if (!out_path.empty()) {
    csv_out.open(out_path, std::ios::app);
    if (!csv_out) {
      std::cerr << "ivc_bench: cannot open '" << out_path << "' for writing\n";
      return 1;
    }
  }

  bool all_ok = true;
  for (auto& request : requests) {
    if (!volumes.empty()) request.sweep.volumes_pct = volumes;
    if (!seed_counts.empty()) request.sweep.seed_counts = seed_counts;
    all_ok = execute(request, opts.csv, &csv_out) && all_ok;
  }
  if (!all_ok) {
    std::cerr << "ivc_bench: some runs failed to converge or miscounted\n";
    return 1;
  }
  return 0;
}
