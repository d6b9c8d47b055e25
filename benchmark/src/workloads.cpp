#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "experiment/harness.hpp"
#include "experiment/sweep.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ivc::bench {

namespace {

using experiment::ScenarioConfig;
using experiment::ScenarioScale;
using util::steady_now_nanos;

// Constructions timed before the measured runs; setup_s is their median
// together with the constructions the runs themselves make.
constexpr int kSetupRepeats = 9;
// sparse-served load: reader threads and each one's open-loop query rate.
constexpr int kReaders = 2;
constexpr double kReaderRate = 10000.0;
// open-sweep: run_sweep pool threads, also used for the untraced replay.
constexpr std::size_t kPoolThreads = 2;
// Round trips per run: cuts through a stepping world, or repeats on the
// finished served world.
constexpr std::size_t kCuts = 11;
constexpr std::size_t kServedTrips = 15;
constexpr std::size_t kSnapshotCellCuts = 32;
// metro-grid-sparse runs to its 960-minute limit on many seeds, and most
// others converge between 560 and 740 minutes. Served runs stop at 560
// minutes (67,200 steps), so nearly every seed does the same work.
constexpr double kServedLimitMinutes = 560.0;

// Seconds one run of each workload takes at full scale on a 4-core x86-64
// host (for open-sweep: one sweep and kReplaysPerSweep replays of the
// snapshot cell; the other cells are replayed once at the end). --seconds
// buys round(seconds / nominal) runs, so the work (and the seeds it uses)
// depends on the options only, never on measured speed.
constexpr double kDenseRunSeconds = 5.0;
constexpr double kServedRunSeconds = 8.0;
constexpr double kSweepRunSeconds = 10.0;
constexpr double kSmokeRunSeconds = 0.25;
// A snapshot-cell replay lasts about a second, a sweep about six, and the
// replay's timings depend on its input, so each sweep is followed by three
// replays, each with its own seed.
constexpr int kReplaysPerSweep = 3;

int run_count(const Options& options, double nominal_full_s) {
  const double nominal =
      options.scale == ScenarioScale::Full ? nominal_full_s : kSmokeRunSeconds;
  return static_cast<int>(std::clamp(std::llround(options.seconds / nominal), 1LL, 64LL));
}

// Run r of a workload uses its own seed, so one measurement averages over
// several inputs; run 0 uses the given seed itself, as the traced run does.
std::uint64_t run_seed(std::uint64_t seed, int run) {
  return run == 0 ? seed : util::derive_seed(seed, static_cast<std::uint64_t>(run));
}

ScenarioConfig registry_config(const char* name, const Options& options, int run) {
  const experiment::NamedScenario* entry = experiment::ScenarioRegistry::builtin().find(name);
  if (entry == nullptr) throw std::runtime_error(std::string("unknown scenario ") + name);
  ScenarioConfig config = entry->make(options.scale);
  config.seed = run_seed(options.seed, run);
  config.sim.threads = 1;
  return config;
}

std::uint64_t limit_steps(const ScenarioConfig& config) {
  return static_cast<std::uint64_t>(config.time_limit_minutes * 60.0 / config.sim.dt);
}

void add_settings(Report& report, const Options& options, int runs, int readers,
                  std::size_t pool) {
  report.set("scale", options.scale == ScenarioScale::Full ? "full" : "smoke");
  report.set("runs", std::to_string(options.trace ? 1 : runs));
  report.set("engine_threads", "1");
  report.set("readers", std::to_string(readers));
  report.set("reader_rate_per_s", std::to_string(readers > 0 ? kReaderRate : 0.0));
  report.set("pool_threads", std::to_string(pool));
}

void add_round_trip_checks(Report& report, const std::vector<RoundTrip>& trips) {
  for (const RoundTrip& trip : trips) report.check(trip.ok, "snapshot round trip: " + trip.error);
}

// What one run contributes to the end-to-end metrics.
struct RunSummary {
  double steps_per_s = 0.0;
  double call_p50_us = 0.0;
  double call_p99_us = 0.0;
  double save_ms = 0.0;     // median over the run's round trips
  double restore_ms = 0.0;  // median over the run's round trips
};

RunSummary summarize(Report& report, std::uint64_t seed, std::uint64_t steps, double seconds,
                     const std::vector<float>& call_us, const std::vector<RoundTrip>& trips) {
  std::vector<double> save, restore;
  for (const RoundTrip& trip : trips) {
    save.push_back(trip.save_ms());
    restore.push_back(trip.restore_ms());
  }
  const RunSummary summary{static_cast<double>(steps) / seconds, percentile(call_us, 0.50),
                           percentile(call_us, 0.99), median(save), median(restore)};
  char line[240];
  std::snprintf(line, sizeof line,
                "run seed=%llu steps=%llu seconds=%.3f steps_per_s=%.1f call_p50_us=%.3f "
                "call_p99_us=%.3f save_ms=%.4f restore_ms=%.4f",
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(steps),
                seconds, summary.steps_per_s, summary.call_p50_us, summary.call_p99_us,
                summary.save_ms, summary.restore_ms);
  report.note(line);
  return summary;
}

// Every metric but setup_s and peak_rss_mb is a per-run value. A run's
// value follows whether the host was in a fast or a slow phase while it
// ran; the median of a few runs jumps between the two, while their mean
// moves with the mix, so central values take the mean across runs. The
// p99 takes the median: one disturbed run can double its own p99.
// `rates` holds each run's throughput, or on open-sweep each sweep's.
void add_end_to_end(Report& report, const std::vector<double>& setup_s,
                    const std::vector<double>& rates, const std::vector<RunSummary>& runs) {
  std::vector<double> p50, p99, save, restore;
  for (const RunSummary& run : runs) {
    p50.push_back(run.call_p50_us);
    p99.push_back(run.call_p99_us);
    save.push_back(run.save_ms);
    restore.push_back(run.restore_ms);
  }
  report.add(Kind::EndToEnd, "setup_s", median(setup_s), "s");
  report.add(Kind::EndToEnd, "steps_per_s", mean(rates), "steps/s");
  report.add(Kind::EndToEnd, "call_p50_us", mean(p50), "us");
  report.add(Kind::EndToEnd, "call_p99_us", median(p99), "us");
  report.add(Kind::EndToEnd, "snapshot_save_ms", mean(save), "ms");
  report.add(Kind::EndToEnd, "snapshot_restore_ms", mean(restore), "ms");
  report.add(Kind::EndToEnd, "peak_rss_mb",
             static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
}

std::vector<double> world_setup_samples(const ScenarioConfig& config, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t t = steady_now_nanos();
    const serve::SimWorld world(config);
    samples.push_back(seconds_between(t, steady_now_nanos()));
  }
  return samples;
}

// Layers a workload does not run report 0, so every traced run prints the
// same metric names.
void add_query_layers(Report& report, const std::vector<float>& due_us,
                      const std::vector<float>& late_us, std::uint64_t queries) {
  report.add(Kind::Layer, "serve.query.due_p99_us", percentile(due_us, 0.99), "us");
  report.add(Kind::Layer, "serve.reader.late_p99_us", percentile(late_us, 0.99), "us");
  report.add(Kind::Layer, "serve.queries", static_cast<double>(queries), "count");
}

void add_sweep_layers(Report& report, double busy_ratio, double idle_tail_s,
                      double cell_wall_max_s) {
  report.add(Kind::Layer, "experiment.sweep.pool_busy_ratio", busy_ratio, "ratio");
  report.add(Kind::Layer, "experiment.sweep.idle_tail_s", idle_tail_s, "s");
  report.add(Kind::Layer, "experiment.sweep.cell_wall_max_s", cell_wall_max_s, "s");
}

// Read from the "router.plan" spans of the timing wrapper; only the traced
// pass records spans.
void add_router_layers(Report& report, const TraceSet& traces) {
  const Tracer::Totals plan = traces.totals()["router.plan"];
  report.add(Kind::Layer, "traffic.router.plans", static_cast<double>(plan.count), "count");
  report.add(Kind::Layer, "traffic.router.us_per_plan",
             plan.count == 0
                 ? 0.0
                 : static_cast<double>(plan.total_ns) * 1e-3 / static_cast<double>(plan.count),
             "us");
}

// Stepping wall time outside the collector's phases, per step.
void add_stepper_layer(Report& report, double step_s, const util::PerfCollector& perf,
                       std::uint64_t steps) {
  const double phase_s = static_cast<double>(perf.total_nanos()) * 1e-9;
  report.add(Kind::Layer, "serve.stepper.other_us_per_step",
             (step_s - phase_s) * 1e6 / static_cast<double>(steps), "us");
}

// Joins the reader threads on every exit path. Declared after whatever the
// threads read, so they are gone before it is.
struct ThreadGroup {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join(); }

  void join() {
    stop.store(true, std::memory_order_release);
    for (std::thread& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

std::string verdict(const ScenarioConfig& config, const experiment::RunMetrics& m) {
  char line[200];
  std::snprintf(line, sizeof line,
                "run seed=%llu steps=%llu constitution=%d collection=%d exact=%d quiescent=%d",
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(m.steps), m.constitution_converged ? 1 : 0,
                m.collection_converged ? 1 : 0, m.total_exact ? 1 : 0, m.quiescent ? 1 : 0);
  return line;
}

// The paper's claim, checked on every run: once every checkpoint is stable
// the count is exact. Convergence itself is reported, not checked:
// manhattan-closed-rush reaches constitution within its 240-minute limit on
// most seeds but not all (the count is then still in progress), and its
// collection does not complete there at all.
bool counted_exactly(const experiment::RunMetrics& m) {
  return !m.constitution_converged || m.total_exact;
}

void world_run_checks(Report& report, const ScenarioConfig& config, const WorldRun& run) {
  report.check(counted_exactly(run.metrics), verdict(config, run.metrics));
  add_round_trip_checks(report, run.trips);
}

}  // namespace

// ---- dense-closed ------------------------------------------------------------

void run_dense_closed(const Options& options, Report& report, TraceSet& traces) {
  const int runs = run_count(options, kDenseRunSeconds);
  add_settings(report, options, runs, 0, 0);
  const ScenarioConfig config = registry_config("manhattan-closed-rush", options, 0);
  const std::uint64_t cut_every = limit_steps(config) / (kCuts + 1);
  const bool flip = options.inject == Inject::SnapshotFlip;
  Tracer& off = traces.add(false);

  if (!options.trace) {
    std::vector<double> setup = world_setup_samples(config, kSetupRepeats);
    std::vector<double> rates;
    std::vector<RunSummary> summaries;
    int converged = 0;
    for (int r = 0; r < runs; ++r) {
      const ScenarioConfig run_config = registry_config("manhattan-closed-rush", options, r);
      const WorldRun run = drive_world(run_config, off, cut_every, kCuts, flip && r == 0);
      world_run_checks(report, run_config, run);
      converged += run.metrics.constitution_converged ? 1 : 0;
      setup.push_back(run.construct_s);
      summaries.push_back(summarize(report, run_config.seed, run.metrics.steps, run.step_s,
                                    run.step_us, run.trips));
      rates.push_back(summaries.back().steps_per_s);
    }
    add_end_to_end(report, setup, rates, summaries);
    report.add(Kind::Info, "constitution_converged_share",
               static_cast<double>(converged) / static_cast<double>(runs), "ratio");
    return;
  }

  // Traced run: the untraced pass and the traced pass of the same seed
  // must agree on every deterministic count.
  const WorldRun plain = drive_world(config, off, cut_every, kCuts, flip);
  world_run_checks(report, config, plain);

  util::PerfCollector perf;
  ScenarioConfig traced_config = config;
  traced_config.perf = &perf;
  Tracer& tracer = traces.add(true);
  const WorldRun traced = drive_world(traced_config, tracer, cut_every, kCuts, false);
  world_run_checks(report, config, traced);
  const Counts counts = deterministic_counts(traced.metrics, traced.channel_attempts, traced.trips);
  cross_check(report, deterministic_counts(plain.metrics, plain.channel_attempts, plain.trips),
              counts);

  const std::uint64_t steps = traced.metrics.steps;
  add_engine_layers(report, perf, steps, traced.vehicle_steps, traced.metrics.sim_events);
  add_router_layers(report, traces);
  add_count_layers(report, counts);
  add_stepper_layer(report, traced.step_s, perf, steps);
  add_query_layers(report, {}, {}, 0);
  add_snapshot_layers(report, traced.trips);
  add_sweep_layers(report, 0.0, 0.0, 0.0);
  report.add(Kind::Layer, "roadnet.build_ms", map_build_ms(config, kSetupRepeats), "ms");
  report.add(Kind::Layer, "serve.world.construct_ms",
             median(world_setup_samples(config, kSetupRepeats)) * 1e3, "ms");
  report.add(Kind::Layer, "trace.overhead_ratio", traced.step_s / plain.step_s - 1.0, "ratio");
}

// ---- sparse-served -------------------------------------------------------------

namespace {

struct ReaderStats {
  std::vector<float> call_us;  // query() call to return
  std::vector<float> due_us;   // due time to return
  std::vector<float> late_us;  // due time to call: generator lateness
  std::uint64_t checked = 0;
  std::uint64_t torn = 0;
};

float us(std::uint64_t ns) { return static_cast<float>(static_cast<double>(ns) * 1e-3); }

// Open loop: query i is due at start + i / rate whatever happened to
// query i-1. A reader that falls behind issues its overdue queries back
// to back; the lateness shows in late_us and due_us.
void reader_loop(const serve::CountingService& service, const std::atomic<bool>& stop,
                 std::uint64_t start, Tracer& tracer, bool inject_torn, ReaderStats& out) {
  const auto period = static_cast<std::uint64_t>(1e9 / kReaderRate);
  std::uint64_t last_step = 0;
  if (inject_torn) {
    // A hand-built torn view: the live total disagrees with its cells.
    serve::ServiceView torn;
    torn.live_total = 1;
    torn.checkpoints = {serve::CheckpointCounts{2, true, false}};
    std::uint64_t torn_last_step = 0;
    ++out.checked;
    if (!view_consistent(torn, torn_last_step)) ++out.torn;
  }
  for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
    const std::uint64_t due = start + i * period;
    std::uint64_t now = steady_now_nanos();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = steady_now_nanos();
    }
    serve::ServiceView view;
    {
      const auto span = tracer.span("service.query");
      view = service.query();
    }
    const std::uint64_t end = steady_now_nanos();
    out.call_us.push_back(us(end - now));
    out.due_us.push_back(us(end - due));
    out.late_us.push_back(us(now - due));
    ++out.checked;
    if (!view_consistent(view, last_step)) ++out.torn;
  }
}

struct ServedRun {
  double construct_s = 0.0;
  double serve_s = 0.0;
  std::uint64_t steps = 0;
  std::vector<ReaderStats> readers;
  std::vector<RoundTrip> trips;
  experiment::RunMetrics metrics;
  std::uint64_t channel_attempts = 0;

  [[nodiscard]] std::vector<float> all(std::vector<float> ReaderStats::*field) const {
    std::vector<float> out;
    for (const ReaderStats& stats : readers) {
      out.insert(out.end(), (stats.*field).begin(), (stats.*field).end());
    }
    return out;
  }
};

// `inject` corrupts this run's first round trip or first reader check.
ServedRun serve_once(const ScenarioConfig& config, Report& report, TraceSet& traces,
                     bool traced, Inject inject) {
  ServedRun run;
  Tracer& main_tracer = traces.add(traced);
  std::uint64_t t = steady_now_nanos();
  std::unique_ptr<serve::CountingService> service;
  {
    const auto span = main_tracer.span("service.construct");
    service = std::make_unique<serve::CountingService>(config);
  }
  run.construct_s = seconds_between(t, steady_now_nanos());

  // The router wrapper records on the stepping thread, into its own tracer.
  if (traced) time_route_planner(service->world(), traces.add(true));

  run.readers.resize(kReaders);
  ThreadGroup readers;
  const std::uint64_t start = steady_now_nanos();
  const serve::CountingService* served = service.get();
  for (int i = 0; i < kReaders; ++i) {
    ReaderStats& stats = run.readers[static_cast<std::size_t>(i)];
    const auto reserve = static_cast<std::size_t>(kReaderRate * 20.0);
    stats.call_us.reserve(reserve);
    stats.due_us.reserve(reserve);
    stats.late_us.reserve(reserve);
    Tracer& tracer = traces.add(traced);
    const bool torn = inject == Inject::TornView && i == 0;
    readers.threads.emplace_back([served, &readers, start, &tracer, torn, &stats] {
      reader_loop(*served, readers.stop, start, tracer, torn, stats);
    });
  }

  t = steady_now_nanos();
  {
    const auto span = main_tracer.span("service.run");
    service->start();
    while (!service->finished()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  run.serve_s = seconds_between(t, steady_now_nanos());
  readers.join();
  service->stop();

  serve::SimWorld& world = service->world();
  run.steps = world.engine().step_count();
  const serve::ServiceView final_view = service->query();
  std::uint64_t last_step = final_view.step;
  report.check(final_view.finished && final_view.step == run.steps &&
                   (!final_view.all_stable || final_view.live_total == final_view.truth) &&
                   view_consistent(final_view, last_step),
               "final served view is torn or, all stable, not exact");
  run.metrics = world.finish();
  report.check(counted_exactly(run.metrics), verdict(config, run.metrics));
  run.channel_attempts = world.protocol().channel().attempts();
  for (const ReaderStats& stats : run.readers) {
    report.check_many(stats.checked, stats.torn, "torn served view");
  }
  for (std::size_t i = 0; i < kServedTrips; ++i) {
    const bool flip = inject == Inject::SnapshotFlip && i == 0;
    run.trips.push_back(snapshot_round_trip(world, config, main_tracer, flip));
  }
  add_round_trip_checks(report, run.trips);
  return run;
}

ScenarioConfig served_config(const Options& options, int run) {
  ScenarioConfig config = registry_config("metro-grid-sparse", options, run);
  config.time_limit_minutes = std::min(config.time_limit_minutes, kServedLimitMinutes);
  return config;
}

std::vector<double> service_setup_samples(const ScenarioConfig& config, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const std::uint64_t t = steady_now_nanos();
    const serve::CountingService service(config);
    samples.push_back(seconds_between(t, steady_now_nanos()));
  }
  return samples;
}

}  // namespace

void run_sparse_served(const Options& options, Report& report, TraceSet& traces) {
  const int runs = run_count(options, kServedRunSeconds);
  add_settings(report, options, runs, kReaders, 0);
  const ScenarioConfig config = served_config(options, 0);

  if (!options.trace) {
    std::vector<double> setup = service_setup_samples(config, kSetupRepeats);
    std::vector<double> rates;
    std::vector<RunSummary> summaries;
    for (int r = 0; r < runs; ++r) {
      const ScenarioConfig run_config = served_config(options, r);
      const ServedRun run =
          serve_once(run_config, report, traces, false, r == 0 ? options.inject : Inject::None);
      setup.push_back(run.construct_s);
      summaries.push_back(summarize(report, run_config.seed, run.steps, run.serve_s,
                                      run.all(&ReaderStats::call_us), run.trips));
      rates.push_back(summaries.back().steps_per_s);
    }
    add_end_to_end(report, setup, rates, summaries);
    const Metric* p50 = report.find("call_p50_us");
    const Metric* p99 = report.find("call_p99_us");
    report.add(Kind::Info, "query_p50_us", p50->value, "us");
    report.add(Kind::Info, "query_p99_us", p99->value, "us");
    return;
  }

  const ServedRun plain = serve_once(config, report, traces, false, options.inject);
  util::PerfCollector perf;
  ScenarioConfig traced_config = config;
  traced_config.perf = &perf;
  const ServedRun traced = serve_once(traced_config, report, traces, true, Inject::None);
  const Counts counts = deterministic_counts(traced.metrics, traced.channel_attempts, traced.trips);
  cross_check(report, deterministic_counts(plain.metrics, plain.channel_attempts, plain.trips),
              counts);

  // The service's stepping loop is not wrapped by the benchmark; the
  // closed system's population is constant, so vehicle-steps follow.
  const std::uint64_t vehicle_steps = traced.steps * traced.metrics.population;
  add_engine_layers(report, perf, traced.steps, vehicle_steps, traced.metrics.sim_events);
  add_router_layers(report, traces);
  add_count_layers(report, counts);
  add_stepper_layer(report, traced.serve_s, perf, traced.steps);
  add_query_layers(report, traced.all(&ReaderStats::due_us), traced.all(&ReaderStats::late_us),
                   traced.all(&ReaderStats::call_us).size());
  add_snapshot_layers(report, traced.trips);
  add_sweep_layers(report, 0.0, 0.0, 0.0);
  report.add(Kind::Layer, "roadnet.build_ms", map_build_ms(config, kSetupRepeats), "ms");
  report.add(Kind::Layer, "serve.world.construct_ms",
             median(world_setup_samples(config, kSetupRepeats)) * 1e3, "ms");
  report.add(Kind::Layer, "trace.overhead_ratio",
             (static_cast<double>(plain.steps) / plain.serve_s) /
                     (static_cast<double>(traced.steps) / traced.serve_s) -
                 1.0,
             "ratio");
}

// ---- open-sweep ------------------------------------------------------------------

namespace {

experiment::SweepConfig open_sweep_config(const Options& options) {
  experiment::HarnessOptions harness;
  harness.replicas = 1;
  harness.seed = static_cast<std::int64_t>(options.seed);
  harness.threads = static_cast<std::int64_t>(kPoolThreads);
  harness.smoke = options.scale == ScenarioScale::Smoke;
  return experiment::make_sweep(
      harness, experiment::paper_scenario(experiment::SystemMode::Open,
                                          util::kSpeedLimit15MphMps));
}

std::size_t cell_count(const experiment::SweepConfig& sweep) {
  return sweep.volumes_pct.size() * sweep.seed_counts.size();
}

// The scenario run_sweep runs for grid cell `index`, replica 0: the same
// grid order and derive_seed(base, cell << 8 | replica) salt.
ScenarioConfig cell_config(const experiment::SweepConfig& sweep, std::size_t index) {
  ScenarioConfig config = sweep.base;
  config.volume_pct = sweep.volumes_pct[index / sweep.seed_counts.size()];
  config.num_seeds = sweep.seed_counts[index % sweep.seed_counts.size()];
  config.seed = util::derive_seed(sweep.base.seed, static_cast<std::uint64_t>(index) << 8);
  return config;
}

// The cell whose world is timed for setup and snapshotted: the highest
// volume (most vehicles) with the fewest seeds (the longest such run).
std::size_t snapshot_cell(const experiment::SweepConfig& sweep) {
  return (sweep.volumes_pct.size() - 1) * sweep.seed_counts.size();
}

struct SweepRun {
  std::vector<experiment::SweepCell> cells;
  double wall_s = 0.0;
  std::vector<double> done_s;  // completion stamps, seconds from the start
};

SweepRun sweep_once(const experiment::SweepConfig& sweep, Report& report) {
  SweepRun run;
  run.done_s.assign(cell_count(sweep), 0.0);
  const std::uint64_t start = steady_now_nanos();
  // Each completion index is written by exactly one worker.
  run.cells = experiment::run_sweep(sweep, [&run, start](std::size_t done, std::size_t) {
    run.done_s[done - 1] = seconds_between(start, steady_now_nanos());
  });
  run.wall_s = seconds_between(start, steady_now_nanos());
  report.check(experiment::all_cells_ok(run.cells, experiment::FigureKind::Collection),
               "a sweep cell did not converge with an exact count");
  return run;
}

bool same_result(const experiment::SweepCell& cell, const experiment::RunMetrics& m) {
  return cell.constitution_max_min == m.constitution_max_min &&
         cell.constitution_min_min == m.constitution_min_min &&
         cell.constitution_avg_min == m.constitution_avg_min &&
         cell.collection_max_min == m.collection_max_min &&
         cell.collection_min_min == m.collection_min_min &&
         cell.collection_avg_min == m.collection_avg_min && cell.total_truth == m.truth &&
         cell.total_protocol == m.protocol_total;
}

bool same_cells(const std::vector<experiment::SweepCell>& a,
                const std::vector<experiment::SweepCell>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].collection_avg_min != b[i].collection_avg_min ||
        a[i].constitution_avg_min != b[i].constitution_avg_min ||
        a[i].total_protocol != b[i].total_protocol) {
      return false;
    }
  }
  return true;
}

// Replays one cell through SimWorld with the seed run_sweep derived for it.
WorldRun replay_cell(const experiment::SweepConfig& sweep, std::size_t index,
                     util::PerfCollector* perf, Tracer& tracer, std::uint64_t cut_every,
                     std::size_t max_cuts, bool flip) {
  ScenarioConfig config = cell_config(sweep, index);
  config.perf = perf;
  return drive_world(config, tracer, cut_every, max_cuts, flip);
}

void check_replay(Report& report, const experiment::SweepCell& cell, const WorldRun& run) {
  report.check(counted_exactly(run.metrics) && same_result(cell, run.metrics),
               "replayed cell differs from the sweep's result");
  add_round_trip_checks(report, run.trips);
}

// The snapshot cell replayed alone, so its step latencies and round trips
// are timed without a second world stepping beside them. Replay `replay`
// uses seed run_seed(cell seed, replay): replay 0 is the sweep's own cell
// and must reproduce its result; later replays average the timings over
// other inputs.
WorldRun replay_snapshot_cell(const experiment::SweepConfig& sweep,
                              const std::vector<experiment::SweepCell>& cells, int replay,
                              util::PerfCollector* perf, Tracer& tracer, bool flip,
                              ScenarioScale scale, Report& report) {
  const std::size_t snap = snapshot_cell(sweep);
  ScenarioConfig config = cell_config(sweep, snap);
  config.seed = run_seed(config.seed, replay);
  config.perf = perf;
  const WorldRun result = drive_world(config, tracer, scale == ScenarioScale::Smoke ? 25 : 125,
                                      kSnapshotCellCuts, flip);
  if (replay == 0) {
    check_replay(report, cells[snap], result);
  } else {
    world_run_checks(report, config, result);
  }
  return result;
}

struct Replay {
  Counts counts;
  std::uint64_t steps = 0;
  double step_s = 0.0;
  std::uint64_t vehicle_steps = 0;
  std::uint64_t events = 0;
  std::vector<double> construct_s;

  void add(const WorldRun& run) {
    merge_counts(counts, deterministic_counts(run.metrics, run.channel_attempts, run.trips));
    steps += run.metrics.steps;
    step_s += run.step_s;
    vehicle_steps += run.vehicle_steps;
    events += run.metrics.sim_events;
    construct_s.push_back(run.construct_s);
  }
};

// Replays every cell but the snapshot cell on `threads` pool threads; a
// traced replay (collector and tracer shared by every cell) must use one.
Replay replay_other_cells(const experiment::SweepConfig& sweep,
                          const std::vector<experiment::SweepCell>& cells,
                          util::PerfCollector* perf, Tracer& tracer, std::size_t threads,
                          Report& report) {
  const std::size_t n = cell_count(sweep);
  const std::size_t snap = snapshot_cell(sweep);
  std::vector<WorldRun> runs(n);
  util::ThreadPool(threads).parallel_for(n, [&](std::size_t i) {
    if (i != snap) runs[i] = replay_cell(sweep, i, perf, tracer, 0, 0, false);
  });
  Replay replay;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == snap) continue;
    check_replay(report, cells[i], runs[i]);
    replay.add(runs[i]);
  }
  return replay;
}

}  // namespace

void run_open_sweep(const Options& options, Report& report, TraceSet& traces) {
  const int runs = run_count(options, kSweepRunSeconds);
  add_settings(report, options, runs, 0, kPoolThreads);
  const experiment::SweepConfig sweep = open_sweep_config(options);
  report.set("grid_cells", std::to_string(cell_count(sweep)));
  const bool flip = options.inject == Inject::SnapshotFlip;
  Tracer& off = traces.add(false);

  if (!options.trace) {
    // One seed is swept in every run: a two-thread sweep swings more from
    // one sweep to the next than from one seed to the next, and every seed
    // costs a full replay to count its steps.
    std::vector<double> setup =
        world_setup_samples(cell_config(sweep, snapshot_cell(sweep)), kSetupRepeats);
    std::vector<SweepRun> sweeps;
    std::vector<WorldRun> snapshot_runs;
    for (int r = 0; r < runs; ++r) {
      sweeps.push_back(sweep_once(sweep, report));
      report.check(same_cells(sweeps.front().cells, sweeps.back().cells),
                   "repeated sweep of one seed gave different results");
      for (int j = 0; j < kReplaysPerSweep; ++j) {
        const int replay = static_cast<int>(snapshot_runs.size());
        snapshot_runs.push_back(replay_snapshot_cell(sweep, sweeps.front().cells, replay,
                                                     nullptr, off, flip && replay == 0,
                                                     options.scale, report));
        setup.push_back(snapshot_runs.back().construct_s);
      }
    }
    const Replay others =
        replay_other_cells(sweep, sweeps.front().cells, nullptr, off, kPoolThreads, report);
    const std::uint64_t steps = others.steps + snapshot_runs.front().metrics.steps;
    std::vector<double> rates;
    std::vector<double> cells_per_s;
    for (const SweepRun& run : sweeps) {
      rates.push_back(static_cast<double>(steps) / run.wall_s);
      cells_per_s.push_back(static_cast<double>(run.cells.size()) / run.wall_s);
      char line[200];
      std::snprintf(line, sizeof line, "sweep seed=%llu cells=%zu steps=%llu seconds=%.3f "
                    "steps_per_s=%.1f",
                    static_cast<unsigned long long>(options.seed), run.cells.size(),
                    static_cast<unsigned long long>(steps), run.wall_s, rates.back());
      report.note(line);
    }
    const std::uint64_t cell_seed = cell_config(sweep, snapshot_cell(sweep)).seed;
    std::vector<RunSummary> summaries;
    for (std::size_t r = 0; r < snapshot_runs.size(); ++r) {
      const WorldRun& run = snapshot_runs[r];
      summaries.push_back(summarize(report, run_seed(cell_seed, static_cast<int>(r)),
                                    run.metrics.steps, run.step_s, run.step_us, run.trips));
    }
    add_end_to_end(report, setup, rates, summaries);
    report.add(Kind::Info, "sweep_cells_per_s", mean(cells_per_s), "cells/s");
    return;
  }

  // Traced run: run_sweep cannot take a collector, so the cells are
  // replayed one at a time, untraced and then traced.
  const SweepRun run = sweep_once(sweep, report);
  Replay plain = replay_other_cells(sweep, run.cells, nullptr, off, 1, report);
  plain.add(replay_snapshot_cell(sweep, run.cells, 0, nullptr, off, flip, options.scale, report));
  util::PerfCollector perf;
  Tracer& tracer = traces.add(true);
  Replay traced = replay_other_cells(sweep, run.cells, &perf, tracer, 1, report);
  const WorldRun snapshot =
      replay_snapshot_cell(sweep, run.cells, 0, &perf, tracer, false, options.scale, report);
  traced.add(snapshot);
  cross_check(report, plain.counts, traced.counts);

  add_engine_layers(report, perf, traced.steps, traced.vehicle_steps, traced.events);
  add_router_layers(report, traces);
  add_count_layers(report, traced.counts);
  add_stepper_layer(report, traced.step_s, perf, traced.steps);
  add_query_layers(report, {}, {}, 0);
  add_snapshot_layers(report, snapshot.trips);

  double busy = 0.0;
  double wall_max = 0.0;
  for (const experiment::SweepCell& cell : run.cells) {
    busy += cell.wall_seconds;
    wall_max = std::max(wall_max, cell.wall_seconds);
  }
  // The first worker goes idle at the completion that leaves fewer jobs
  // than workers; the idle tail runs from there to the last completion.
  const std::size_t n = run.done_s.size();
  const std::size_t first_idle = n > kPoolThreads ? n - kPoolThreads : 0;
  add_sweep_layers(report, busy / (static_cast<double>(kPoolThreads) * run.wall_s),
                   run.done_s.back() - run.done_s[first_idle], wall_max);
  report.add(Kind::Layer, "roadnet.build_ms",
             map_build_ms(cell_config(sweep, snapshot_cell(sweep)), kSetupRepeats), "ms");
  report.add(Kind::Layer, "serve.world.construct_ms", median(traced.construct_s) * 1e3, "ms");
  report.add(Kind::Layer, "trace.overhead_ratio", traced.step_s / plain.step_s - 1.0, "ratio");
}

}  // namespace ivc::bench
