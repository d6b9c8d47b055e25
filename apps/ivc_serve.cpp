// ivc_serve — run a scenario as a long-lived counting service.
//
// One writer thread steps the simulation; any number of reader threads
// answer per-checkpoint count/verdict queries against the seqlock-published
// counts table (lock-free, never blocking the writer). Also exposes the
// serve layer's offline tools: record a replayable input trace, replay one
// and assert bit-identical behavior, and snapshot-roundtrip a scenario.
//
//   ivc_serve --scenario manhattan-open-steady            # serve + query under load
//   ivc_serve --scenario ring-radial-closed-rush --readers 8
//   ivc_serve --scenario X --record-trace run.ivct        # record input trace
//   ivc_serve --replay-trace run.ivct                     # replay + verify
//   ivc_serve --scenario X --roundtrip                    # snapshot roundtrip diff
//   ivc_serve --list                                      # registry catalogue
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/registry.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "testing/diff_runner.hpp"
#include "util/cli.hpp"

namespace {

using namespace ivc;

int serve_under_load(const experiment::ScenarioConfig& config, int readers,
                     std::int64_t min_queries) {
  serve::CountingService service(config);
  const std::size_t checkpoints = service.world().protocol().checkpoints().size();
  std::printf("serving %s (%zu checkpoints, %d reader threads)\n",
              config.describe().c_str(), checkpoints, readers);
  service.start();

  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> total_queries{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  for (int i = 0; i < readers; ++i) {
    pool.emplace_back([&service, &torn, &total_queries, min_queries] {
      std::uint64_t queries = 0;
      std::uint64_t last_step = 0;
      while (queries < static_cast<std::uint64_t>(min_queries) || !service.finished()) {
        const serve::ServiceView view = service.query();
        ++queries;
        // Published views are totally ordered: a reader may observe the
        // same step twice but never an earlier one.
        if (view.step < last_step) torn.store(true, std::memory_order_relaxed);
        last_step = view.step;
        if (view.finished && queries >= static_cast<std::uint64_t>(min_queries)) break;
      }
      total_queries.fetch_add(queries, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : pool) t.join();
  // Readers leave once the service has finished (converged, timed out or
  // failed); with no readers, wait here — stop() would otherwise halt the
  // stepper before its first step.
  while (!service.finished()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  service.stop();

  const serve::ServiceView final_view = service.query();
  std::int64_t local_sum = 0;
  std::size_t stable = 0;
  for (const serve::CheckpointCounts& cp : final_view.checkpoints) {
    local_sum += cp.local_total;
    if (cp.stable) ++stable;
  }
  std::printf(
      "final: step=%llu sim_ms=%lld live_total=%lld truth=%lld stable=%zu/%zu "
      "quiescent=%s queries=%llu\n",
      static_cast<unsigned long long>(final_view.step),
      static_cast<long long>(final_view.now_millis),
      static_cast<long long>(final_view.live_total),
      static_cast<long long>(final_view.truth), stable, final_view.checkpoints.size(),
      final_view.quiescent ? "yes" : "no",
      static_cast<unsigned long long>(total_queries.load()));
  if (final_view.failed) {
    std::printf("FAIL: stepping failed after step %llu: %s\n",
                static_cast<unsigned long long>(final_view.step), service.error().c_str());
    return 1;
  }
  if (torn.load()) {
    std::printf("FAIL: a reader observed time running backwards (torn read)\n");
    return 1;
  }
  if (final_view.live_total != final_view.truth) {
    std::printf("FAIL: final protocol total %lld != oracle truth %lld\n",
                static_cast<long long>(final_view.live_total),
                static_cast<long long>(final_view.truth));
    return 1;
  }
  std::printf("ok: service finished, final count exact\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario;
  std::string record_trace_path;
  std::string replay_trace_path;
  bool full = false;
  bool roundtrip = false;
  bool list = false;
  std::int64_t readers = 4;
  std::int64_t min_queries = 1000;
  std::int64_t snapshot_at = -1;

  util::Cli cli("ivc_serve", "long-running counting service + trace record/replay");
  cli.add_string("scenario", &scenario, "registry scenario to serve");
  cli.add_flag("full", &full, "use evaluation scale instead of smoke scale");
  cli.add_int("readers", &readers, "concurrent query threads");
  cli.add_int("min-queries", &min_queries, "minimum queries per reader thread");
  cli.add_string("record-trace", &record_trace_path,
                 "run the scenario and write a replayable input trace to this file");
  cli.add_string("replay-trace", &replay_trace_path,
                 "replay a recorded trace and verify bit-identical behavior");
  cli.add_flag("roundtrip", &roundtrip,
               "snapshot-roundtrip diff the scenario instead of serving it");
  cli.add_int("snapshot-at", &snapshot_at,
              "roundtrip cut step (-1: derive from the scenario seed)");
  cli.add_flag("list", &list, "list the scenario registry and exit");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  // Both size a loop or a container; a negative value would wrap.
  for (const auto& [flag, value] : {std::pair{"readers", readers},
                                    std::pair{"min-queries", min_queries}}) {
    if (value < 0) {
      std::fprintf(stderr, "error: --%s must be >= 0 (got %lld)\n", flag,
                   static_cast<long long>(value));
      return 1;
    }
  }

  if (list) {
    for (const auto& entry : experiment::ScenarioRegistry::builtin().entries()) {
      std::printf("%-36s %s\n", entry.name.c_str(), entry.description.c_str());
    }
    return 0;
  }

  try {
    if (!replay_trace_path.empty()) {
      const serve::ReplayReport report =
          serve::replay_trace(serve::read_trace_file(replay_trace_path));
      if (report.ok) {
        std::printf("ok: replayed %llu steps, event_hash=0x%016llx\n",
                    static_cast<unsigned long long>(report.steps),
                    static_cast<unsigned long long>(report.final_hash));
        return 0;
      }
      std::printf("FAIL: replay diverged: %s\n", report.detail.c_str());
      return 1;
    }

    if (scenario.empty()) {
      std::fprintf(stderr, "--scenario is required (see --list)\n");
      return 1;
    }
    const experiment::ScenarioScale scale =
        full ? experiment::ScenarioScale::Full : experiment::ScenarioScale::Smoke;

    if (!record_trace_path.empty()) {
      const serve::TraceSource source = serve::TraceSource::registry(scenario, scale);
      serve::write_trace_file(record_trace_path, serve::record_trace(source));
      std::printf("ok: recorded %s -> %s\n", source.describe().c_str(),
                  record_trace_path.c_str());
      return 0;
    }

    if (roundtrip) {
      const auto diff = testing::diff_named_scenario_snapshot(scenario, snapshot_at);
      if (!diff) {
        std::fprintf(stderr, "unknown scenario: %s\n", scenario.c_str());
        return 1;
      }
      if (diff->match) {
        std::printf("ok   %s\n", diff->summary.c_str());
        return 0;
      }
      std::printf("FAIL %s\n  divergence: %s\n", diff->summary.c_str(),
                  diff->divergence.c_str());
      return 1;
    }

    const experiment::NamedScenario* named =
        experiment::ScenarioRegistry::builtin().find(scenario);
    if (named == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s\n", scenario.c_str());
      return 1;
    }
    return serve_under_load(named->make(scale), static_cast<int>(readers), min_queries);
  } catch (const serve::SnapshotError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
