#include "serve/trace.hpp"

#include <fstream>
#include <utility>

#include "serve/snapshot.hpp"
#include "serve/world.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"
#include "util/string_util.hpp"

namespace ivc::serve {

namespace {

// "IVCT" little-endian, distinct from the snapshot magic so the two file
// kinds cannot be confused.
constexpr std::uint32_t kTraceMagic = 0x54435649u;
// Version 2 dropped the engine thread override from the source block.
constexpr std::uint32_t kTraceVersion = 2;

struct StepRecord {
  std::uint64_t step = 0;
  std::uint64_t total_spawned = 0;
  std::uint64_t events_emitted = 0;
  std::uint64_t alive = 0;
  std::uint64_t hash = 0;
};

// The run-level verdicts a replay must also reproduce.
struct Digest {
  std::int64_t protocol_total = 0;
  std::int64_t truth = 0;
  bool total_exact = false;
  bool exactly_once = false;
  bool quiescent = false;
};

// The field lists of a trace: the run it records, one record per step and
// the final digest.
constexpr auto visit_source = [](auto& ar, auto& source) {
  ar.enumeration(source.kind, TraceSource::Kind::FuzzCase);
  ar.field(source.name);
  ar.enumeration(source.scale, experiment::ScenarioScale::Smoke);
  ar.field(source.case_seed);
};

constexpr auto visit_record = [](auto& ar, auto& rec) {
  ar.field(rec.step);
  ar.field(rec.total_spawned);
  ar.field(rec.events_emitted);
  ar.field(rec.alive);
  ar.field(rec.hash);
};

constexpr auto visit_digest = [](auto& ar, auto& digest) {
  ar.field(digest.protocol_total);
  ar.field(digest.truth);
  ar.field(digest.total_exact);
  ar.field(digest.exactly_once);
  ar.field(digest.quiescent);
};

// Rebuild the traced scenario's configuration. Both source kinds are pure
// functions of their key, so this yields the recorded run's exact config.
experiment::ScenarioConfig resolve_config(const TraceSource& source) {
  experiment::ScenarioConfig config;
  if (source.kind == TraceSource::Kind::Registry) {
    const experiment::NamedScenario* named =
        experiment::ScenarioRegistry::builtin().find(source.name);
    if (named == nullptr) {
      throw SnapshotError(
          util::format("trace references unknown scenario '%s'", source.name.c_str()));
    }
    config = named->make(source.scale);
  } else {
    config = testing::make_fuzz_case(source.case_seed).config;
  }
  return config;
}

StepRecord observe(const SimWorld& world, const testing::EventStreamHasher& hasher) {
  StepRecord rec;
  rec.step = world.engine().step_count();
  rec.total_spawned = world.engine().total_spawned();
  rec.events_emitted = world.engine().events_emitted();
  rec.alive = world.engine().alive_count();
  rec.hash = hasher.hash();
  return rec;
}

// First mismatching field of a step record, or empty when equal.
std::string diff_records(const StepRecord& recorded, const StepRecord& replayed) {
  const auto field = [&](const char* name, std::uint64_t want,
                         std::uint64_t got) -> std::string {
    if (want == got) return {};
    return util::format("step %llu: %s recorded=%llu replayed=%llu",
                        static_cast<unsigned long long>(recorded.step), name,
                        static_cast<unsigned long long>(want),
                        static_cast<unsigned long long>(got));
  };
  if (auto d = field("step", recorded.step, replayed.step); !d.empty()) return d;
  if (auto d = field("total_spawned", recorded.total_spawned, replayed.total_spawned);
      !d.empty()) {
    return d;
  }
  if (auto d = field("events_emitted", recorded.events_emitted, replayed.events_emitted);
      !d.empty()) {
    return d;
  }
  if (auto d = field("alive", recorded.alive, replayed.alive); !d.empty()) return d;
  if (auto d = field("event_hash", recorded.hash, replayed.hash); !d.empty()) return d;
  return {};
}

}  // namespace

TraceSource TraceSource::registry(std::string scenario_name, experiment::ScenarioScale s) {
  TraceSource source;
  source.kind = Kind::Registry;
  source.name = std::move(scenario_name);
  source.scale = s;
  return source;
}

TraceSource TraceSource::fuzz_case(std::uint64_t seed) {
  TraceSource source;
  source.kind = Kind::FuzzCase;
  source.case_seed = seed;
  return source;
}

std::string TraceSource::describe() const {
  if (kind == Kind::Registry) {
    return util::format("registry:%s (%s)", name.c_str(),
                        scale == experiment::ScenarioScale::Full ? "full" : "smoke");
  }
  return util::format("fuzz-case:0x%016llx", static_cast<unsigned long long>(case_seed));
}

std::vector<std::uint8_t> record_trace(const TraceSource& source) {
  const experiment::ScenarioConfig config = resolve_config(source);

  SimWorld world(config);
  testing::EventStreamHasher hasher;
  hasher.attach(world.engine());

  std::vector<StepRecord> records;
  while (!world.done()) {
    world.step();
    records.push_back(observe(world, hasher));
  }
  const experiment::RunMetrics metrics = world.finish();
  const Digest digest{metrics.protocol_total, metrics.truth, metrics.total_exact,
                      metrics.exactly_once, metrics.quiescent};

  std::vector<std::uint8_t> bytes;
  Writer::write(bytes, [&](auto& ar) {
    visit_envelope(ar, kTraceMagic, kTraceVersion, "trace");
    visit_source(ar, source);
    ar.sequence(records, visit_record);
    visit_digest(ar, digest);
  });
  return bytes;
}

ReplayReport replay_trace(const std::vector<std::uint8_t>& bytes) {
  // Traces hold no segment or intersection ids.
  Reader r(bytes, 0, 0);
  visit_envelope(r, kTraceMagic, kTraceVersion, "trace");
  TraceSource source;
  visit_source(r, source);
  std::uint64_t record_count = 0;
  r.field(record_count);
  // The records and the final digest are fixed-size, so the count must
  // account for every byte left; checked here, before a world is built.
  const StepRecord no_record;
  const Digest no_digest;
  Sizer record_size;
  Sizer digest_size;
  visit_record(record_size, no_record);
  visit_digest(digest_size, no_digest);
  const std::uint64_t left = r.remaining();
  if (left < digest_size.size() || (left - digest_size.size()) % record_size.size() != 0 ||
      (left - digest_size.size()) / record_size.size() != record_count) {
    throw SnapshotError(util::format(
        "trace record count %llu does not match the %llu bytes that follow it",
        static_cast<unsigned long long>(record_count), static_cast<unsigned long long>(left)));
  }

  const experiment::ScenarioConfig config = resolve_config(source);
  SimWorld world(config);
  testing::EventStreamHasher hasher;
  hasher.attach(world.engine());

  ReplayReport report;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    StepRecord recorded;
    visit_record(r, recorded);
    if (world.done()) {
      report.detail = util::format(
          "replay converged after %llu steps but the trace has %llu records",
          static_cast<unsigned long long>(report.steps),
          static_cast<unsigned long long>(record_count));
      report.final_hash = hasher.hash();
      return report;
    }
    world.step();
    ++report.steps;
    const std::string diff = diff_records(recorded, observe(world, hasher));
    if (!diff.empty()) {
      report.detail = diff;
      report.final_hash = hasher.hash();
      return report;
    }
  }
  if (!world.done()) {
    report.detail = util::format(
        "trace ends after %llu steps but the replay has not converged",
        static_cast<unsigned long long>(record_count));
    report.final_hash = hasher.hash();
    return report;
  }
  const experiment::RunMetrics metrics = world.finish();

  Digest want;
  visit_digest(r, want);
  r.expect_end("trace");

  report.final_hash = hasher.hash();
  if (metrics.protocol_total != want.protocol_total) {
    report.detail = util::format("final protocol_total recorded=%lld replayed=%lld",
                                 static_cast<long long>(want.protocol_total),
                                 static_cast<long long>(metrics.protocol_total));
  } else if (metrics.truth != want.truth) {
    report.detail =
        util::format("final truth recorded=%lld replayed=%lld",
                     static_cast<long long>(want.truth), static_cast<long long>(metrics.truth));
  } else if (metrics.total_exact != want.total_exact ||
             metrics.exactly_once != want.exactly_once || metrics.quiescent != want.quiescent) {
    report.detail = util::format(
        "final verdicts recorded=(exact=%d once=%d quiescent=%d) "
        "replayed=(exact=%d once=%d quiescent=%d)",
        want.total_exact ? 1 : 0, want.exactly_once ? 1 : 0, want.quiescent ? 1 : 0,
        metrics.total_exact ? 1 : 0, metrics.exactly_once ? 1 : 0,
        metrics.quiescent ? 1 : 0);
  } else {
    report.ok = true;
  }
  return report;
}

void write_trace_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw SnapshotError(util::format("cannot open '%s' for writing", path.c_str()));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SnapshotError(util::format("short write to '%s'", path.c_str()));
}

std::vector<std::uint8_t> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw SnapshotError(util::format("cannot open '%s' for reading", path.c_str()));
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0 && !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw SnapshotError(util::format("short read from '%s'", path.c_str()));
  }
  return bytes;
}

}  // namespace ivc::serve
