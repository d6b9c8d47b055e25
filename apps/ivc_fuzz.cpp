// ivc_fuzz — differential fuzz campaigns for the engine + protocol.
//
// Generates randomized scenarios (topology, demand, protocol config, run
// length — all derived from a single uint64 case seed) and runs each one
// on the optimized engine AND the deliberately slow reference kernel,
// asserting bit-exact event streams, equal per-checkpoint totals and the
// exactness/quiescence invariants. A diverging case is automatically
// shrunk (run length, demand, topology scale) to a minimal reproducer that
// is itself a single replayable seed.
//
//   ivc_fuzz --cases 2000 --seed 7          # nightly campaign
//   ivc_fuzz --replay 0x1f00000000000001    # re-run one (shrunk) case
//   ivc_fuzz --scenario highway-open-steady # diff-check a registry entry
//   ivc_fuzz --all-scenarios                # diff-check the whole registry
//   ivc_fuzz --repro-out repros.txt         # minimal repro seeds -> file
//   ivc_fuzz --cases 120 --snapshot-at -1   # save/restore roundtrip at a derived step
//   ivc_fuzz --replay SEED --snapshot-at 50 # roundtrip one case, cut at step 50
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "experiment/registry.hpp"
#include "testing/diff_runner.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace {

using namespace ivc;

[[nodiscard]] bool parse_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  // Base 0: accepts the 0x-prefixed form the harness prints and plain
  // decimal alike.
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

void print_failure(const testing::DiffResult& diff) {
  std::printf("FAIL %s\n  divergence: %s\n", diff.summary.c_str(), diff.divergence.c_str());
}

// Shrink a diverging case and report/record the minimal reproducer.
// Returns the seed to persist (the shrunk one when shrinking succeeded).
std::uint64_t shrink_and_report(std::uint64_t case_seed) {
  const auto shrunk = testing::shrink_case(case_seed);
  if (!shrunk) return case_seed;  // flaky? keep the original seed
  std::string trail = "none";
  if (!shrunk->trail.empty()) {
    trail.clear();
    for (const std::string& step : shrunk->trail) {
      if (!trail.empty()) trail += ", ";
      trail += step;
    }
  }
  std::printf("  shrunk (%d diff runs; %s) -> replay with: ivc_fuzz --replay 0x%llx\n",
              shrunk->attempts, trail.c_str(),
              static_cast<unsigned long long>(shrunk->minimal_seed));
  std::printf("  minimal: %s\n  divergence: %s\n", shrunk->minimal.summary.c_str(),
              shrunk->minimal.divergence.c_str());
  return shrunk->minimal_seed;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t cases = 100;
  std::int64_t seed = 1;
  std::int64_t max_failures = 5;
  std::int64_t snapshot_at = 0;
  std::string replay;
  std::string scenario;
  std::string repro_out;
  bool all_scenarios = false;
  bool verbose = false;

  util::Cli cli("ivc_fuzz",
                "differential fuzzer: optimized engine vs. reference kernel");
  cli.add_int("cases", &cases, "number of randomized cases to run");
  cli.add_int("seed", &seed, "campaign seed (case seeds derive from it)");
  cli.add_int("max-failures", &max_failures, "stop the campaign after this many failures");
  cli.add_int("snapshot-at", &snapshot_at,
              "snapshot-roundtrip mode: save at this step, restore into a fresh "
              "engine, diff against the uninterrupted run (-1 = derive the cut "
              "step from each case seed; 0 = mode off)");
  cli.add_string("replay", &replay, "replay one case seed (0x-hex or decimal) and exit");
  cli.add_string("scenario", &scenario, "diff-check a named registry scenario (smoke scale)");
  cli.add_flag("all-scenarios", &all_scenarios, "diff-check every registry scenario");
  cli.add_string("repro-out", &repro_out, "append minimal repro seeds to this file");
  cli.add_flag("verbose", &verbose, "print every case, not just failures");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const auto diff_one = [&](std::uint64_t case_seed) {
    return snapshot_at != 0 ? testing::diff_case_snapshot(case_seed, snapshot_at)
                            : testing::diff_case(case_seed);
  };

  std::ofstream repro_file;
  if (!repro_out.empty()) {
    repro_file.open(repro_out, std::ios::app);
    if (!repro_file) {
      std::fprintf(stderr, "cannot open %s\n", repro_out.c_str());
      return 1;
    }
  }
  const auto record_repro = [&](std::uint64_t repro_seed, const std::string& summary) {
    if (repro_file.is_open()) {
      repro_file << util::format("0x%llx  %s", static_cast<unsigned long long>(repro_seed),
                                 summary.c_str())
                 << "\n";
      repro_file.flush();
    }
  };

  // --- single-case replay -----------------------------------------------------
  if (!replay.empty()) {
    std::uint64_t case_seed = 0;
    if (!parse_seed(replay, &case_seed)) {
      std::fprintf(stderr, "bad --replay seed: %s\n", replay.c_str());
      return 1;
    }
    const testing::DiffResult diff = diff_one(case_seed);
    std::printf("%s\n", diff.summary.c_str());
    if (diff.match) {
      std::printf("MATCH: event_hash=0x%016llx events=%llu steps=%llu\n",
                  static_cast<unsigned long long>(diff.fast.event_hash),
                  static_cast<unsigned long long>(diff.fast.events),
                  static_cast<unsigned long long>(diff.fast.steps));
      return 0;
    }
    print_failure(diff);
    record_repro(case_seed, diff.summary);
    return 1;
  }

  // --- registry hooks -----------------------------------------------------------
  if (!scenario.empty() || all_scenarios) {
    int failures = 0;
    const auto check = [&](const std::string& name) {
      const auto diff = snapshot_at != 0
                            ? testing::diff_named_scenario_snapshot(name, snapshot_at)
                            : testing::diff_named_scenario(name);
      if (!diff) {
        std::fprintf(stderr, "unknown scenario: %s\n", name.c_str());
        ++failures;
        return;
      }
      if (diff->match) {
        std::printf("ok   %s\n", diff->summary.c_str());
      } else {
        print_failure(*diff);
        ++failures;
      }
    };
    if (all_scenarios) {
      for (const auto& entry : experiment::ScenarioRegistry::builtin().entries()) {
        check(entry.name);
      }
    } else {
      check(scenario);
    }
    return failures == 0 ? 0 : 1;
  }

  // --- campaign -----------------------------------------------------------------
  const auto start = std::chrono::steady_clock::now();
  int failures = 0;
  std::int64_t ran = 0;
  for (std::int64_t i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = testing::campaign_case_seed(
        static_cast<std::uint64_t>(seed), static_cast<std::uint64_t>(i));
    const testing::DiffResult diff = diff_one(case_seed);
    ++ran;
    if (diff.match) {
      if (verbose) std::printf("ok   %s\n", diff.summary.c_str());
    } else if (snapshot_at != 0) {
      // No kernel in this mode; the failing seed itself is the repro
      // (shrinking against the reference could lose a cut-point-sensitive
      // divergence).
      print_failure(diff);
      record_repro(case_seed, diff.summary);
      if (++failures >= max_failures) {
        std::printf("stopping after %d failures\n", failures);
        break;
      }
    } else {
      print_failure(diff);
      const std::uint64_t repro = shrink_and_report(case_seed);
      record_repro(repro, testing::make_fuzz_case(repro).summary);
      if (++failures >= max_failures) {
        std::printf("stopping after %d failures\n", failures);
        break;
      }
    }
    if (!verbose && (i + 1) % 250 == 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
      std::printf("[%lld/%lld] %d failures, %.1fs elapsed\n",
                  static_cast<long long>(i + 1), static_cast<long long>(cases), failures,
                  elapsed);
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  std::printf("%lld cases, %d failures, %.1fs\n", static_cast<long long>(ran), failures,
              elapsed);
  return failures == 0 ? 0 : 1;
}
