// Serve-layer snapshot/restore + trace replay.
//
// Codec-level tests pin the byte format (explicit little-endian, doubles
// as bit patterns, length-prefixed strings, loud truncation); container
// tests pin the versioned envelope (bad magic / version skew / trailing
// garbage are rejected with SnapshotError, never silently accepted);
// world-level tests pin the contract: save is only legal between steps,
// restore refuses a snapshot from a different world, and restore-then-
// continue reproduces the uninterrupted run's digest bit for bit (the
// full 120-seed sweep lives in test_differential_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <typeinfo>
#include <vector>

#include "experiment/registry.hpp"
#include "serve/snapshot.hpp"
#include "serve/trace.hpp"
#include "serve/world.hpp"
#include "testing/diff_runner.hpp"
#include "testing/fuzzer.hpp"

namespace ivc::serve {
namespace {

experiment::ScenarioConfig tiny_config() {
  experiment::ScenarioConfig config;
  config.map.streets = 4;
  config.map.avenues = 3;
  config.mode = experiment::SystemMode::Closed;
  config.volume_pct = 50.0;
  config.vehicles_at_100pct = 40;
  config.num_seeds = 1;
  config.time_limit_minutes = 3.0;
  config.seed = 2014;
  return config;
}

// ---- byte codec -------------------------------------------------------------

TEST(SnapshotCodec, RoundtripsEveryScalarType) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i32(-123456789);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(-0.0);
  w.f64(1.0e308);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.boolean(true);
  w.boolean(false);
  w.str(std::string("with\0null", 9));
  w.str("");

  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -123456789);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, roundtrips
  EXPECT_EQ(r.f64(), 1.0e308);
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), std::string("with\0null", 9));
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end("codec"));
}

TEST(SnapshotCodec, ByteOrderIsExplicitLittleEndian) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(0x01020304u);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(SnapshotCodec, TruncationAndTrailingBytesAreLoud) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(7);
  ByteReader short_read(bytes);
  (void)short_read.u16();
  EXPECT_THROW((void)short_read.u64(), SnapshotError);  // runs past the end

  ByteReader trailing(bytes);
  (void)trailing.u16();
  EXPECT_THROW(trailing.expect_end("codec"), SnapshotError);  // 2 bytes left
}

// ---- versioned container ----------------------------------------------------

TEST(SnapshotContainer, SectionsRoundtripThroughBytes) {
  Snapshot snap;
  {
    ByteWriter w(snap.add_section("alpha"));
    w.u64(42);
  }
  {
    ByteWriter w(snap.add_section("beta"));
    w.str("payload");
  }
  EXPECT_TRUE(snap.has_section("alpha"));
  EXPECT_FALSE(snap.has_section("gamma"));
  EXPECT_THROW((void)snap.section("gamma"), SnapshotError);

  const Snapshot parsed = Snapshot::from_bytes(snap.to_bytes());
  ASSERT_EQ(parsed.section_count(), 2u);
  ByteReader a(parsed.section("alpha"));
  EXPECT_EQ(a.u64(), 42u);
  ByteReader b(parsed.section("beta"));
  EXPECT_EQ(b.str(), "payload");
}

TEST(SnapshotContainer, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(0x4b4f4f42u);  // some other file format
  w.u32(Snapshot::kVersion);
  w.u32(Snapshot::kEndianMark);
  w.u32(0);
  EXPECT_THROW((void)Snapshot::from_bytes(bytes), SnapshotError);
}

// The version-skew contract: an old-format snapshot is rejected loudly,
// with a message that says what to do — never half-parsed.
TEST(SnapshotContainer, RejectsVersionSkewLoudly) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w(bytes);
  w.u32(Snapshot::kMagic);
  w.u32(Snapshot::kVersion + 1);
  w.u32(Snapshot::kEndianMark);
  w.u32(0);
  try {
    (void)Snapshot::from_bytes(bytes);
    FAIL() << "version skew accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("re-record"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, RejectsTruncatedSectionTable) {
  Snapshot snap;
  ByteWriter w(snap.add_section("alpha"));
  w.u64(42);
  std::vector<std::uint8_t> bytes = snap.to_bytes();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)Snapshot::from_bytes(bytes), SnapshotError);
}

// ---- world save/restore -----------------------------------------------------

TEST(SimWorldSnapshot, SaveBeforeFirstStepIsIllegal) {
  // The initial placement's spawn events are still buffered until the
  // first step's flush; a snapshot here would drop them on the floor.
  SimWorld world(tiny_config());
  Snapshot snap;
  EXPECT_THROW(world.save(snap), SnapshotError);
  world.step();
  EXPECT_NO_THROW(world.save(snap));
}

TEST(SimWorldSnapshot, RestoreRefusesSnapshotFromDifferentWorld) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);

  experiment::ScenarioConfig other = tiny_config();
  other.map.streets = 6;  // different topology: every count below differs
  SimWorld target(other, SimWorld::Mode::Restore);
  EXPECT_THROW(target.restore(snap), SnapshotError);
}

TEST(SimWorldSnapshot, RestoreRefusesPatrolMismatch) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);

  experiment::ScenarioConfig with_patrol = tiny_config();
  with_patrol.num_patrol = 1;
  SimWorld target(with_patrol, SimWorld::Mode::Restore);
  EXPECT_THROW(target.restore(snap), SnapshotError);
}

TEST(SimWorldSnapshot, RoundtripReproducesUninterruptedRunBitExact) {
  const testing::DiffResult diff = testing::diff_config_snapshot(tiny_config(), 7);
  EXPECT_TRUE(diff.match) << diff.summary << "\n  divergence: " << diff.divergence;
  EXPECT_GT(diff.fast.steps, 7u);
}

// The hostile-input tests corrupt the snapshot of this smoke open world
// after 200 steps.
experiment::ScenarioConfig open_smoke_config() {
  const experiment::NamedScenario* named =
      experiment::ScenarioRegistry::builtin().find("manhattan-open-steady");
  return named->make(experiment::ScenarioScale::Smoke);
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t offset, std::uint64_t value) {
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[offset + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// Writes `value` over each offset in [0, end) and restores; restore must
// either succeed or reject the bytes with SnapshotError. Returns the
// number of rejections.
std::size_t restore_overwritten(SimWorld& target, const std::vector<std::uint8_t>& bytes,
                                std::uint64_t value, std::size_t end) {
  std::size_t rejected = 0;
  for (std::size_t offset = 0; offset < end; ++offset) {
    std::vector<std::uint8_t> corrupt = bytes;
    put_u64(corrupt, offset, value);
    try {
      target.restore(Snapshot::from_bytes(corrupt));
    } catch (const SnapshotError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "value 0x" << std::hex << value << std::dec << " at offset " << offset
                    << ": restore threw " << typeid(e).name() << " (" << e.what()
                    << ") instead of SnapshotError";
      return rejected;
    }
  }
  return rejected;
}

// Hostile input: every count prefix that sizes a container or a loop is
// checked against the bytes left before anything is reserved, and every
// vehicle id the engine decodes is checked against the slot table before
// anything indexes with it. Writing 2^40 over each of the first 4,000 byte
// offsets of a real world snapshot, and an out-of-range vehicle id (slot
// 0x7FFFFFF0) over every offset, lands on counts, ids, edges and doubles
// alike; restore must either succeed or reject the bytes with
// SnapshotError — never abort, std::bad_alloc, std::length_error or
// anything else.
TEST(SimWorldSnapshot, HugeLengthPrefixesAreRejectedBeforeAllocating) {
  const experiment::ScenarioConfig config = open_smoke_config();
  SimWorld source(config);
  for (int i = 0; i < 200; ++i) source.step();
  Snapshot snap;
  source.save(snap);
  const std::vector<std::uint8_t> bytes = snap.to_bytes();
  ASSERT_GT(bytes.size(), 4000u + 8u);

  SimWorld target(config, SimWorld::Mode::Restore);
  EXPECT_GT(restore_overwritten(target, bytes, std::uint64_t{1} << 40, 4000), 0u);
  EXPECT_GT(restore_overwritten(target, bytes, 0x7FFFFFF0u, bytes.size() - 7), 0u);
  // The target is still a working world: the original snapshot restores.
  EXPECT_NO_THROW(target.restore(snap));
}

// An out-of-range id inside a lane's vehicle list: every count and every
// other id still decodes, so only the id check can catch it.
TEST(SimWorldSnapshot, OutOfRangeLaneVehicleIdIsRejected) {
  const experiment::ScenarioConfig config = open_smoke_config();
  SimWorld source(config);
  for (int i = 0; i < 200; ++i) source.step();
  Snapshot snap;
  source.save(snap);

  // The lane table closes the engine section, lanes in segment-major
  // order: the last occupied lane's last vehicle id is followed only by
  // the zero counts of the empty lanes after it.
  std::size_t empty_after = 0;
  traffic::VehicleId last;
  const auto& segments = source.network().segments();
  for (auto seg = segments.rbegin(); seg != segments.rend() && !last.valid(); ++seg) {
    for (int lane = seg->lanes - 1; lane >= 0 && !last.valid(); --lane) {
      const auto& vehicles = source.engine().lane_vehicles(seg->id, lane);
      if (vehicles.empty()) {
        ++empty_after;
      } else {
        last = vehicles.back();
      }
    }
  }
  ASSERT_TRUE(last.valid());
  std::vector<std::uint8_t> engine = snap.section("engine");
  const std::size_t at = engine.size() - 8 * (empty_after + 1);
  std::vector<std::uint8_t> want(8, 0);
  put_u64(want, 0, last.value());
  ASSERT_TRUE(std::equal(want.begin(), want.end(), engine.begin() + static_cast<std::ptrdiff_t>(at)));
  put_u64(engine, at, traffic::VehicleId{0x7FFFFFF0u, 0}.value());
  snap.add_section("engine") = engine;

  SimWorld target(config, SimWorld::Mode::Restore);
  EXPECT_THROW(target.restore(Snapshot::from_bytes(snap.to_bytes())), SnapshotError);
}

// ---- traces -----------------------------------------------------------------

TEST(TraceReplay, RecordedTraceReplaysCleanly) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 0));
  const std::vector<std::uint8_t> bytes = record_trace(source);
  const ReplayReport report = replay_trace(bytes);
  EXPECT_TRUE(report.ok) << report.detail;
  EXPECT_GT(report.steps, 0u);
  EXPECT_NE(report.final_hash, 0u);
}

TEST(TraceReplay, TamperedTraceReportsFirstDivergentStep) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 1));
  std::vector<std::uint8_t> bytes = record_trace(source);
  bytes[bytes.size() / 2] ^= 0x01;  // flip one bit inside the step records
  const ReplayReport report = replay_trace(bytes);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.detail.empty());
}

TEST(TraceReplay, RejectsVersionSkew) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 2));
  std::vector<std::uint8_t> bytes = record_trace(source);
  bytes[4] ^= 0xff;  // the version word follows the magic
  EXPECT_THROW((void)replay_trace(bytes), SnapshotError);
}

// A trace ends in its step records (five u64 each) and a 19-byte final
// digest, so the record count must account for exactly the bytes after
// it. A wrong count is malformed input: it must throw before a world is
// built, not surface as a replay divergence (count too small) or as a
// truncation after replaying every step (count too large).
constexpr std::size_t kTraceRecordBytes = 40;
constexpr std::size_t kTraceDigestBytes = 19;

TEST(TraceReplay, CorruptRecordCountIsRejected) {
  const TraceSource source = TraceSource::fuzz_case(testing::campaign_case_seed(2014, 0));
  const std::vector<std::uint8_t> bytes = record_trace(source);
  const ReplayReport clean = replay_trace(bytes);
  ASSERT_TRUE(clean.ok) << clean.detail;
  // The u64 count sits right before the records.
  const std::size_t at =
      bytes.size() - kTraceDigestBytes - kTraceRecordBytes * clean.steps - 8;
  std::uint64_t count = 0;
  for (int i = 7; i >= 0; --i) count = (count << 8) | bytes[at + static_cast<std::size_t>(i)];
  ASSERT_EQ(count, clean.steps);
  for (const std::uint64_t bad : {count - 1, count + 1, std::uint64_t{1} << 40}) {
    std::vector<std::uint8_t> corrupt = bytes;
    for (int i = 0; i < 8; ++i) {
      corrupt[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(bad >> (8 * i));
    }
    EXPECT_THROW((void)replay_trace(corrupt), SnapshotError) << "count " << bad;
  }
}

TEST(TraceReplay, TruncationAtEveryByteIsRejected) {
  // The shortest shrink level of a bank case: a few hundred records.
  const std::uint64_t seed =
      testing::with_shrink(testing::campaign_case_seed(2014, 0), testing::ShrinkSpec{3, true, 3});
  const std::vector<std::uint8_t> bytes = record_trace(TraceSource::fuzz_case(seed));
  ASSERT_TRUE(replay_trace(bytes).ok);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW((void)replay_trace(truncated), SnapshotError) << "truncated to " << n;
  }
}

}  // namespace
}  // namespace ivc::serve
