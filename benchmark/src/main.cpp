// ivc_repo_bench — the repo benchmark's binary.
//
//   ivc_repo_bench --workload dense-closed --seed 1 --seconds 30 --trace 0
//
// Runs one workload against libivc's public API and prints a report: the
// host and settings block, every metric by name with its unit, the checked
// operations, and as the last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). See benchmark/README.md.
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/cli.hpp"
#include "util/perf.hpp"
#include "workloads.hpp"

namespace {

using namespace ivc;
using namespace ivc::bench;

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Options& options, Report& report) {
  for (const Metric& m : report.metrics()) {
    report.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  std::printf("ivc repo benchmark: workload=%s seed=%llu trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
  for (const auto& [key, value] : report.settings()) {
    std::printf("  %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& line : report.notes()) std::printf("  %s\n", line.c_str());
  const Kind wanted = options.trace ? Kind::Layer : Kind::EndToEnd;
  for (const Metric& m : report.metrics()) {
    std::printf("  %-44s %18.6f %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.kind == wanted ? "" : "  (report only)");
  }
  const double error_rate = report.attempted() == 0
                                ? 0.0
                                : static_cast<double>(report.failed()) /
                                      static_cast<double>(report.attempted());
  std::printf("  %-44s %18.6f failed/attempted (%llu/%llu)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  for (const std::string& failure : report.failures()) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  json += report.failed() == 0 && report.attempted() > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted());
  json += ", \"failed\": " + std::to_string(report.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (m.kind != wanted) continue;
    json += first ? "" : ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": " +
            json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// One line per span name over every thread's tracer: calls, total and self
// time. Self time is the span minus its children, e.g. world.step minus
// router.plan.
void note_span_totals(Report& report, const TraceSet& traces) {
  for (const auto& [name, t] : traces.totals()) {
    char line[200];
    std::snprintf(line, sizeof line, "span %-24s calls=%-9llu total_ms=%-12.3f self_ms=%.3f",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-6, static_cast<double>(t.self_ns) * 1e-6);
    report.note(line);
  }
}

// Keeps freed memory in the heap, as a long-running process's warm heap
// does. With glibc's defaults every snapshot's megabyte-sized buffers are
// mapped fresh and unmapped again, so each round trip pays hundreds of page
// faults whose cost on a shared VM swung save times from 2 to 10 ms.
void keep_freed_memory() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
}

bool write_spans(const std::string& path, const TraceSet& traces) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tid\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < traces.tracers.size(); ++i) {
    traces.tracers[i]->write_tsv(out, static_cast<int>(i));
  }
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  keep_freed_memory();
  Options options;
  std::int64_t seed = 1;
  std::int64_t trace = 0;
  std::string scale = "full";
  std::string inject = "none";
  std::string spans_out;
  util::Cli cli("ivc_repo_bench", "the repo benchmark: one workload, one report");
  cli.add_string("workload", &options.workload, "dense-closed | sparse-served | open-sweep");
  cli.add_int("seed", &seed, "workload seed");
  cli.add_double("seconds", &options.seconds, "measured time of an untraced run");
  cli.add_int("trace", &trace, "0: end-to-end metrics, 1: traced per-layer metrics");
  cli.add_string("scale", &scale, "full | smoke (the self-test's scale)");
  cli.add_string("inject", &inject, "none | snapshot-flip | torn-view (self-test faults)");
  cli.add_string("spans-out", &spans_out, "traced run: write every span to this TSV file");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 2;

  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace != 0;
  if (scale != "full" && scale != "smoke") {
    std::fprintf(stderr, "unknown --scale %s\n", scale.c_str());
    return 2;
  }
  options.scale =
      scale == "full" ? experiment::ScenarioScale::Full : experiment::ScenarioScale::Smoke;
  if (inject == "snapshot-flip") {
    options.inject = Inject::SnapshotFlip;
  } else if (inject == "torn-view") {
    options.inject = Inject::TornView;
  } else if (inject != "none") {
    std::fprintf(stderr, "unknown --inject %s\n", inject.c_str());
    return 2;
  }

  Report report;
  report.set("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.set("uname", util::host_uname());
  report.set("compiler", compiler());
  report.set("build_type", IVC_BENCH_BUILD_TYPE);
  report.set("seed", std::to_string(options.seed));
  report.set("seconds", number(options.seconds));
  TraceSet traces;
  try {
    if (options.workload == "dense-closed") {
      run_dense_closed(options, report, traces);
    } else if (options.workload == "sparse-served") {
      run_sparse_served(options, report, traces);
    } else if (options.workload == "open-sweep") {
      run_open_sweep(options, report, traces);
    } else {
      std::fprintf(stderr, "unknown --workload '%s'\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  if (options.trace) note_span_totals(report, traces);
  if (options.trace && !spans_out.empty() && !write_spans(spans_out, traces)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
    return 1;
  }
  print_report(options, report);
  return 0;
}
