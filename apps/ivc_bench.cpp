// ivc_bench — the unified batch runner.
//
// One CLI for every figure, ablation and named zoo scenario: it sweeps the
// (volume x seeds x replicas) grid on the thread pool, prints the
// max/min/avg tables the paper's surface plots are drawn from, and
// optionally writes machine-readable CSV. Replaces the per-figure main()
// duplication that used to live in bench/ (those binaries remain as thin
// wrappers over the same experiment::harness library).
//
//   ivc_bench --list                      # catalogue of figures + scenarios
//   ivc_bench --figure fig2               # a paper figure sweep
//   ivc_bench --scenario ring-radial-open-rush
//   ivc_bench --all-scenarios --smoke     # CI: every zoo scenario in seconds
//   ivc_bench --perf                      # perf run -> BENCH_pr6.json
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/registry.hpp"
#include "util/csv.hpp"
#include "util/perf.hpp"
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

[[nodiscard]] bool parse_int_list(const std::string& csv, std::vector<int>* out) {
  std::vector<double> values;
  if (!parse_double_list(csv, &values)) return false;
  out->clear();
  for (const double v : values) {
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

// ---- --perf mode -----------------------------------------------------------
//
// Serial single-run-per-scenario perf harness. Each named scenario is run
// once at its registry operating point with a PerfCollector attached; the
// results land in a JSON report (BENCH_pr3.json by default) whose schema is
// documented in README.md ("Perf JSON schema"). Correctness still gates the
// exit code: a run that fails to converge or miscounts fails the bench, so
// the CI perf-smoke job doubles as an end-to-end sanity check.

// Default scenarios: one per regime the hot loops care about — closed grid
// at peak density, open grid with boundary churn, open zoo topology at
// rush volume, the irregular web with a patrol fleet, and the two sparse
// city-scale maps where per-step cost must track occupancy, not map size.
constexpr const char* kDefaultPerfScenarios =
    "manhattan-closed-rush,manhattan-open-steady,ring-radial-open-rush,"
    "random-web-closed-steady,metro-grid-sparse,highway-web-sparse";

struct PerfRun {
  const experiment::NamedScenario* entry = nullptr;
  experiment::RunMetrics metrics;
  ivc::util::PerfCollector collector;
};

// JSON string escaping for the host fields (uname output is
// free-form text; everything else we emit is already JSON-safe).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

void write_perf_json(std::ostream& out, const std::vector<PerfRun>& runs, bool smoke) {
  out << "{\n";
  // v3: adds the "host" object (logical core count + kernel identity) so a
  // consumer can tell whether two reports were measured on comparable
  // hardware, and per-phase "cpu_seconds" is real thread-CPU time. Rows
  // carry no "threads" key: every run is serial, and consumers read a
  // missing "threads" as 1 (as they do for v1 reports).
  out << "  \"schema\": \"ivc-perf-v3\",\n";
  out << "  \"bench\": \"ivc_bench --perf\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n";
  out << "  \"host\": {\n";
  out << util::format("    \"nproc\": %u,\n", std::thread::hardware_concurrency());
  out << "    \"uname\": \"" << json_escape(util::host_uname()) << "\"\n";
  out << "  },\n";
  out << "  \"peak_rss_bytes\": " << util::peak_rss_bytes() << ",\n";
  out << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    const auto& m = run.metrics;
    const double wall = m.wall_seconds > 0.0 ? m.wall_seconds : 1e-9;
    out << "    {\n";
    out << "      \"name\": \"" << run.entry->name << "\",\n";
    out << util::format("      \"steps\": %llu,\n",
                        static_cast<unsigned long long>(m.steps));
    out << util::format("      \"sim_minutes\": %.3f,\n", m.sim_minutes);
    out << util::format("      \"wall_seconds\": %.6f,\n", m.wall_seconds);
    out << util::format("      \"steps_per_sec\": %.1f,\n",
                        static_cast<double>(m.steps) / wall);
    out << util::format("      \"events\": %llu,\n",
                        static_cast<unsigned long long>(m.sim_events));
    out << util::format("      \"events_per_sec\": %.1f,\n",
                        static_cast<double>(m.sim_events) / wall);
    out << util::format("      \"transits\": %llu,\n",
                        static_cast<unsigned long long>(m.transits));
    out << util::format("      \"total_spawned\": %llu,\n",
                        static_cast<unsigned long long>(m.total_spawned));
    out << util::format("      \"peak_vehicle_slots\": %zu,\n", m.peak_vehicle_slots);
    out << util::format("      \"total_lanes\": %zu,\n", m.total_lanes);
    out << util::format("      \"peak_occupied_lanes\": %zu,\n", m.peak_occupied_lanes);
    out << util::format("      \"population_final\": %lld,\n",
                        static_cast<long long>(m.truth));
    out << "      \"converged\": " << (m.constitution_converged ? "true" : "false")
        << ",\n";
    out << "      \"exact\": " << (m.total_exact ? "true" : "false") << ",\n";
    const auto& phases = run.collector.phases();
    double phase_wall_sum = 0.0;
    for (const auto& stats : phases) phase_wall_sum += stats.seconds();
    out << util::format("      \"phase_wall_seconds_sum\": %.6f,\n", phase_wall_sum);
    out << "      \"phases\": [\n";
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const auto phase = static_cast<util::PerfPhase>(p);
      // "seconds" = the phase's wall clock as the step loop sees it;
      // "cpu_seconds" = the stepping thread's CPU time in the phase.
      out << util::format("        {\"phase\": \"%s\", \"calls\": %llu, "
                          "\"seconds\": %.6f, \"cpu_seconds\": %.6f}%s\n",
                          util::perf_phase_name(phase),
                          static_cast<unsigned long long>(phases[p].calls),
                          phases[p].seconds(), phases[p].cpu_seconds(),
                          p + 1 < phases.size() ? "," : "");
    }
    out << "      ]\n";
    out << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int run_perf_mode(const experiment::HarnessOptions& opts, const std::string& scenarios_csv,
                  const std::string& out_path) {
  const auto& registry = experiment::ScenarioRegistry::builtin();
  const auto scale =
      opts.smoke ? experiment::ScenarioScale::Smoke : experiment::ScenarioScale::Full;

  std::vector<const experiment::NamedScenario*> entries;
  for (const auto& token : util::split(scenarios_csv, ',')) {
    const std::string name{util::trim(token)};
    if (name.empty()) continue;
    const auto* entry = registry.find(name);
    if (entry == nullptr) {
      std::cerr << "ivc_bench: unknown perf scenario '" << name << "' (see --list)\n";
      return 1;
    }
    if (std::find(entries.begin(), entries.end(), entry) != entries.end()) {
      std::cerr << "ivc_bench: perf scenario '" << name << "' listed twice\n";
      return 1;
    }
    entries.push_back(entry);
  }
  if (entries.size() < 3) {
    std::cerr << "ivc_bench: --perf needs at least 3 distinct scenarios for a trajectory\n";
    return 1;
  }

  std::vector<PerfRun> runs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) runs[i].entry = entries[i];

  bool all_ok = true;
  util::TextTable table({"scenario", "steps", "steps/s", "events/s", "peak veh", "spawned",
                         "wall s", "ok"});
  for (auto& run : runs) {
    const auto* entry = run.entry;
    experiment::ScenarioConfig scenario = entry->make(scale);
    scenario.seed = static_cast<std::uint64_t>(opts.seed);
    if (opts.time_limit_min > 0) {
      scenario.time_limit_minutes = static_cast<double>(opts.time_limit_min);
    }
    scenario.perf = &run.collector;
    std::cerr << "perf: " << run.entry->name << " (" << scenario.describe() << ")\n";
    run.metrics = experiment::run_scenario(scenario);
    const auto& m = run.metrics;
    const double wall = m.wall_seconds > 0.0 ? m.wall_seconds : 1e-9;
    const bool ok = m.constitution_converged && m.total_exact;
    all_ok = all_ok && ok;
    table.add_row({run.entry->name,
                   util::format("%llu", static_cast<unsigned long long>(m.steps)),
                   util::format("%.0f", static_cast<double>(m.steps) / wall),
                   util::format("%.0f", static_cast<double>(m.sim_events) / wall),
                   util::format("%zu", m.peak_vehicle_slots),
                   util::format("%llu", static_cast<unsigned long long>(m.total_spawned)),
                   util::format("%.2f", m.wall_seconds), ok ? "yes" : "NO"});
  }
  std::cout << "== Perf report (" << (opts.smoke ? "smoke" : "full") << ") ==\n";
  table.print(std::cout);
  std::cout << util::format("peak RSS: %.1f MiB\n",
                            static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0));

  std::ofstream json(out_path, std::ios::trunc);
  if (!json) {
    std::cerr << "ivc_bench: cannot open '" << out_path << "' for writing\n";
    return 1;
  }
  write_perf_json(json, runs, opts.smoke);
  std::cout << "perf JSON written to " << out_path << "\n";
  if (!all_ok) {
    std::cerr << "ivc_bench: a perf scenario failed to converge or miscounted\n";
    return 1;
  }
  return 0;
}

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
  bool perf = false;
  std::string scenario_name;
  std::string figure_name;
  std::string volumes_csv;
  std::string seeds_csv;
  std::string out_path;
  std::string perf_out = "BENCH_pr6.json";
  std::string perf_scenarios = kDefaultPerfScenarios;

  util::Cli cli("ivc_bench",
                "unified sweep runner: paper figures and zoo scenarios by name");
  cli.add_flag("list", &list, "list figures and named scenarios, then exit");
  cli.add_string("figure", &figure_name, "run a paper figure (fig2..fig5b)");
  cli.add_string("scenario", &scenario_name, "run a named scenario (see --list)");
  cli.add_flag("all-scenarios", &all_scenarios, "run every named scenario");
  cli.add_flag("perf", &perf, "perf mode: timed serial runs -> JSON report");
  cli.add_string("perf-out", &perf_out, "perf mode: JSON output path");
  cli.add_string("perf-scenarios", &perf_scenarios,
                 "perf mode: comma-separated scenario names (>= 3)");
  cli.add_string("volumes", &volumes_csv, "override volume grid, e.g. 25,50,100");
  cli.add_string("seeds", &seeds_csv, "override seed-count grid, e.g. 1,2,4");
  cli.add_string("out", &out_path, "append machine-readable CSV to this file");
  experiment::add_harness_options(cli, &opts);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  if (list) {
    print_catalogue();
    return 0;
  }
  if (perf) return run_perf_mode(opts, perf_scenarios, perf_out);
  if (figure_name.empty() && scenario_name.empty() && !all_scenarios) {
    cli.print_usage(std::cerr);
    std::cerr << "\nivc_bench: nothing to do — pass --list, --figure, --scenario or "
                 "--all-scenarios\n";
    return 1;
  }

  std::vector<double> volumes;
  std::vector<int> seed_counts;
  if (!volumes_csv.empty() && !parse_double_list(volumes_csv, &volumes)) return 1;
  if (!seeds_csv.empty() && !parse_int_list(seeds_csv, &seed_counts)) return 1;

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
