// Serve-layer snapshot/restore + trace replay.
//
// Codec-level tests pin the byte format (explicit little-endian, doubles
// as bit patterns, length-prefixed strings, loud truncation); archive
// tests pin the ops every field list is written in (each round-trips, the
// Reader rejects what no save writes, and a visit whose Sizer and Writer
// passes disagree aborts); container tests pin the versioned envelope
// (bad magic / version skew / trailing garbage are rejected with
// SnapshotError, never silently accepted); world-level tests pin the
// contract: save is only legal between steps, restore refuses a snapshot
// from a different world, and restore-then-continue reproduces the
// uninterrupted run's digest bit for bit (the full 120-seed sweep lives
// in test_differential_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "counting/checkpoint.hpp"
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

// Bounds of the world every Reader below decodes ids against.
constexpr std::size_t kNodes = 4;
constexpr std::size_t kSegments = 6;

template <class Visit>
std::vector<std::uint8_t> encode(const Visit& visit) {
  std::vector<std::uint8_t> bytes;
  Writer::write(bytes, visit);
  return bytes;
}

// One value of every scalar type, doubles whose bit patterns matter (-0.0,
// 1e308, NaN), and two strings a length-prefixed encoding could get wrong.
struct Scalars {
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double neg_zero = 1.0;
  double huge = 0.0;
  double nan = 0.0;
  bool yes = false;
  bool no = true;
  std::string with_nul;
  std::string empty = "overwritten";
};

template <class Ar, class T>
void visit_scalars(Ar& ar, T& v) {
  ar.field(v.u8);
  ar.field(v.u16);
  ar.field(v.u32);
  ar.field(v.u64);
  ar.field(v.i32);
  ar.field(v.i64);
  ar.field(v.neg_zero);
  ar.field(v.huge);
  ar.field(v.nan);
  ar.field(v.yes);
  ar.field(v.no);
  ar.field(v.with_nul);
  ar.field(v.empty);
}

TEST(SnapshotCodec, RoundtripsEveryScalarType) {
  Scalars saved;
  saved.u8 = 0xab;
  saved.u16 = 0xbeef;
  saved.u32 = 0xdeadbeefu;
  saved.u64 = 0x0123456789abcdefULL;
  saved.i32 = -123456789;
  saved.i64 = std::numeric_limits<std::int64_t>::min();
  saved.neg_zero = -0.0;
  saved.huge = 1.0e308;
  saved.nan = std::numeric_limits<double>::quiet_NaN();
  saved.yes = true;
  saved.no = false;
  saved.with_nul = std::string("with\0null", 9);
  saved.empty = "";
  const std::vector<std::uint8_t> bytes =
      encode([&](auto& ar) { visit_scalars(ar, std::as_const(saved)); });
  EXPECT_EQ(bytes.size(), 1u + 2 + 4 + 8 + 4 + 8 + 3 * 8 + 2 + (4 + 9) + 4);

  Scalars loaded;
  Reader r(bytes, kNodes, kSegments);
  visit_scalars(r, loaded);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end("codec"));
  EXPECT_EQ(loaded.u8, 0xab);
  EXPECT_EQ(loaded.u16, 0xbeef);
  EXPECT_EQ(loaded.u32, 0xdeadbeefu);
  EXPECT_EQ(loaded.u64, 0x0123456789abcdefULL);
  EXPECT_EQ(loaded.i32, -123456789);
  EXPECT_EQ(loaded.i64, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(loaded.neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(loaded.neg_zero));  // bit pattern, not value, roundtrips
  EXPECT_EQ(loaded.huge, 1.0e308);
  EXPECT_TRUE(std::isnan(loaded.nan));
  EXPECT_TRUE(loaded.yes);
  EXPECT_FALSE(loaded.no);
  EXPECT_EQ(loaded.with_nul, std::string("with\0null", 9));
  EXPECT_EQ(loaded.empty, "");
}

TEST(SnapshotCodec, ByteOrderIsExplicitLittleEndian) {
  const std::vector<std::uint8_t> bytes = encode([](auto& ar) {
    const std::uint32_t v = 0x01020304u;
    ar.field(v);
  });
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x03);
  EXPECT_EQ(bytes[2], 0x02);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(SnapshotCodec, TruncationAndTrailingBytesAreLoud) {
  const std::vector<std::uint8_t> bytes = encode([](auto& ar) {
    const std::uint32_t v = 7;
    ar.field(v);
  });
  std::uint16_t half = 0;
  std::uint64_t whole = 0;
  Reader short_read(bytes, kNodes, kSegments);
  short_read.field(half);
  EXPECT_THROW(short_read.field(whole), SnapshotError);  // runs past the end

  Reader trailing(bytes, kNodes, kSegments);
  trailing.field(half);
  EXPECT_THROW(trailing.expect_end("codec"), SnapshotError);  // 2 bytes left
}

// ---- archives ---------------------------------------------------------------

// One value for every op a field list may use.
struct EveryOp {
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  bool flag = false;
  std::string name;
  util::SimTime time;
  traffic::VehicleId vehicle;
  roadnet::EdgeId edge;
  roadnet::NodeId node;
  roadnet::NodeId no_parent;
  util::Rng rng{7};
  v2x::Message ack;
  v2x::Message report;
  counting::DirectionState state = counting::DirectionState::Idle;
  std::vector<roadnet::EdgeId> route;
  std::optional<v2x::Label> label;
  std::optional<v2x::Label> no_label;
  std::map<std::uint32_t, std::int64_t> reports;
};

template <class Ar, class T>
void visit_every_op(Ar& ar, T& v) {
  ar.field(v.u8);
  ar.field(v.u16);
  ar.field(v.u32);
  ar.field(v.u64);
  ar.field(v.i32);
  ar.field(v.i64);
  ar.field(v.f64);
  ar.field(v.flag);
  ar.field(v.name);
  ar.field(v.time);
  ar.field(v.vehicle);
  ar.field(v.edge);
  ar.field(v.node);
  ar.field_or_invalid(v.no_parent);
  ar.field(v.rng);
  ar.field(v.ack);
  ar.field(v.report);
  ar.enumeration(v.state, counting::DirectionState::Excluded);
  ar.echo(std::uint64_t{42}, "answer");
  ar.sequence(v.route);
  ar.optional(v.label);
  ar.optional(v.no_label);
  ar.map(v.reports);
}

TEST(SnapshotArchive, EveryOpRoundTrips) {
  EveryOp saved;
  saved.u8 = 0xab;
  saved.u16 = 0xbeef;
  saved.u32 = 0xdeadbeefu;
  saved.u64 = 0x0123456789abcdefULL;
  saved.i32 = -123456789;
  saved.i64 = std::numeric_limits<std::int64_t>::min();
  saved.f64 = -2.5;
  saved.flag = true;
  saved.name = std::string("with\0null", 9);
  saved.time = util::SimTime::from_millis(-1234);
  saved.vehicle = traffic::VehicleId{17, 3};
  saved.edge = roadnet::EdgeId{5};
  saved.node = roadnet::NodeId{3};
  (void)saved.rng.normal(0.0, 1.0);  // leaves a spare normal in the state
  saved.ack = {roadnet::NodeId{1}, roadnet::NodeId{2}, v2x::TreeAck{roadnet::NodeId{1}, true},
               util::SimTime::from_millis(500), 3};
  saved.report = {roadnet::NodeId{2}, roadnet::NodeId{0},
                  v2x::CountReport{roadnet::NodeId{2}, -7}, util::SimTime::from_millis(900), 1};
  saved.state = counting::DirectionState::Stopped;
  saved.route = {roadnet::EdgeId{0}, roadnet::EdgeId{4}};
  saved.label = v2x::Label{roadnet::NodeId{1}, roadnet::EdgeId{2}, util::SimTime::from_millis(40)};
  saved.reports = {{1, -3}, {3, 9}};

  const std::vector<std::uint8_t> bytes =
      encode([&](auto& ar) { visit_every_op(ar, std::as_const(saved)); });
  Sizer sizer;
  visit_every_op(sizer, std::as_const(saved));
  EXPECT_EQ(bytes.size(), sizer.size());
  // The eight scalars (36 B), a 9-byte string, time, vehicle, two ids and
  // an invalid one, the rng (41), a tree ack (26) and a report (33), the
  // enum byte, the echo, a two-edge route, a label, an absent one and a
  // two-entry map.
  EXPECT_EQ(bytes.size(), 36u + (4 + 9) + 8 + 8 + 3 * 4 + 41 + 26 + 33 + 1 + 8 + (8 + 2 * 4) +
                              (1 + 16) + 1 + (8 + 2 * 12));

  EveryOp loaded;
  loaded.no_label = v2x::Label{};  // overwritten: absent in the bytes
  Reader r(bytes, kNodes, kSegments);
  visit_every_op(r, loaded);
  EXPECT_NO_THROW(r.expect_end("every op"));
  EXPECT_EQ(loaded.u8, saved.u8);
  EXPECT_EQ(loaded.u16, saved.u16);
  EXPECT_EQ(loaded.u32, saved.u32);
  EXPECT_EQ(loaded.u64, saved.u64);
  EXPECT_EQ(loaded.i32, saved.i32);
  EXPECT_EQ(loaded.i64, saved.i64);
  EXPECT_EQ(loaded.f64, saved.f64);
  EXPECT_EQ(loaded.flag, saved.flag);
  EXPECT_EQ(loaded.name, saved.name);
  EXPECT_EQ(loaded.time, saved.time);
  EXPECT_EQ(loaded.vehicle, saved.vehicle);
  EXPECT_EQ(loaded.edge, saved.edge);
  EXPECT_EQ(loaded.node, saved.node);
  EXPECT_FALSE(loaded.no_parent.valid());
  EXPECT_EQ(loaded.rng.normal(0.0, 1.0), saved.rng.normal(0.0, 1.0));
  EXPECT_EQ(loaded.rng.next(), saved.rng.next());
  ASSERT_TRUE(std::holds_alternative<v2x::TreeAck>(loaded.ack.payload));
  EXPECT_EQ(std::get<v2x::TreeAck>(loaded.ack.payload).from, roadnet::NodeId{1});
  EXPECT_TRUE(std::get<v2x::TreeAck>(loaded.ack.payload).is_child);
  EXPECT_EQ(loaded.ack.destination, roadnet::NodeId{2});
  EXPECT_EQ(loaded.ack.hops, 3);
  ASSERT_TRUE(std::holds_alternative<v2x::CountReport>(loaded.report.payload));
  EXPECT_EQ(std::get<v2x::CountReport>(loaded.report.payload).subtree_total, -7);
  EXPECT_EQ(loaded.report.created_at, util::SimTime::from_millis(900));
  EXPECT_EQ(loaded.state, counting::DirectionState::Stopped);
  EXPECT_EQ(loaded.route, saved.route);
  ASSERT_TRUE(loaded.label.has_value());
  EXPECT_EQ(loaded.label->edge, roadnet::EdgeId{2});
  EXPECT_EQ(loaded.label->issued_at, util::SimTime::from_millis(40));
  EXPECT_FALSE(loaded.no_label.has_value());
  EXPECT_EQ(loaded.reports, saved.reports);
}

// Values no save writes: each is rejected by the op that decodes it.
TEST(SnapshotArchive, ReaderRejectsWhatNoSaveWrites) {
  const auto rejects = [](const auto& write, const auto& read) {
    const std::vector<std::uint8_t> bytes = encode(write);
    Reader r(bytes, kNodes, kSegments);
    EXPECT_THROW(read(r), SnapshotError);
  };
  const auto u32 = [](std::uint32_t v) { return [v](auto& ar) { ar.field(v); }; };
  const auto u8 = [](std::uint8_t v) { return [v](auto& ar) { ar.field(v); }; };
  roadnet::EdgeId edge;
  roadnet::NodeId node;
  rejects(u32(kSegments), [&](Reader& r) { r.field(edge); });
  rejects(u32(kNodes), [&](Reader& r) { r.field(node); });
  rejects(u32(roadnet::NodeId::kInvalid), [&](Reader& r) { r.field(node); });
  rejects(u32(kSegments), [&](Reader& r) { r.field_or_invalid(edge); });
  bool flag = false;
  rejects(u8(2), [&](Reader& r) { r.field(flag); });
  counting::LabelOutcome outcome{};
  rejects(u8(4), [&](Reader& r) { r.enumeration(outcome, counting::LabelOutcome::NotChild); });
  v2x::Message msg;
  rejects([](auto& ar) {
            const std::uint32_t source = 0;
            const std::uint32_t destination = 1;
            const std::uint8_t kind = 2;
            ar.field(source);
            ar.field(destination);
            ar.field(kind);
          },
          [&](Reader& r) { r.field(msg); });
  std::vector<roadnet::EdgeId> route;
  rejects([](auto& ar) {
            const std::uint64_t huge = std::uint64_t{1} << 40;
            ar.field(huge);
          },
          [&](Reader& r) { r.sequence(route); });

  const std::vector<std::uint8_t> seven = encode([](auto& ar) { ar.echo(std::uint64_t{7}, "x"); });
  Reader r(seven, kNodes, kSegments);
  try {
    r.echo(std::uint64_t{8}, "lane count");
    FAIL() << "a differing echo was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_STREQ(e.what(), "snapshot incompatible with this world: lane count differs");
  }

  // The invalid id decodes where a field may hold it.
  const std::vector<std::uint8_t> invalid = encode(u32(roadnet::NodeId::kInvalid));
  Reader parent(invalid, kNodes, kSegments);
  node = roadnet::NodeId{1};
  parent.field_or_invalid(node);
  EXPECT_FALSE(node.valid());
}

// A map decodes only from strictly increasing keys: a repeated key would
// silently replace the earlier entry, and any other order would re-save to
// different bytes.
TEST(SnapshotArchive, MapKeysMustStrictlyIncrease) {
  const auto entries = [](std::initializer_list<std::uint32_t> keys) {
    return encode([&](auto& ar) {
      const std::uint64_t count = keys.size();
      ar.field(count);
      for (const std::uint32_t key : keys) {
        const std::int64_t value = -static_cast<std::int64_t>(key);
        ar.field(key);
        ar.field(value);
      }
    });
  };
  std::map<std::uint32_t, std::int64_t> reports;
  const std::vector<std::uint8_t> increasing = entries({2, 5, 9});
  Reader(increasing, kNodes, kSegments).map(reports);
  EXPECT_EQ(reports, (std::map<std::uint32_t, std::int64_t>{{2, -2}, {5, -5}, {9, -9}}));
  const std::vector<std::uint8_t> repeated = entries({2, 5, 5});
  EXPECT_THROW(Reader(repeated, kNodes, kSegments).map(reports), SnapshotError);
  const std::vector<std::uint8_t> decreasing = entries({5, 2});
  EXPECT_THROW(Reader(decreasing, kNodes, kSegments).map(reports), SnapshotError);
}

// The Writer fills exactly the bytes its Sizer pass counted: a visit that
// writes a field the Sizer did not count, or skips one it did, aborts.
TEST(SnapshotArchiveDeath, SizerAndWriterMustAgree) {
  const auto writes_only_when = [](bool sizing) {
    return [sizing](auto& ar) {
      const std::uint32_t v = 1;
      ar.field(v);
      if (std::is_same_v<std::decay_t<decltype(ar)>, Sizer> == sizing) ar.field(v);
    };
  };
  EXPECT_DEATH((void)encode(writes_only_when(false)), "snapshot record overrun");
  EXPECT_DEATH((void)encode(writes_only_when(true)), "snapshot record left bytes unwritten");
}

// ---- versioned container ----------------------------------------------------

// A container written field by field, so that it can hold what to_bytes
// never writes: another magic or version, or one section name twice.
std::vector<std::uint8_t> container(std::uint32_t magic, std::uint32_t version,
                                    const std::vector<std::string>& names) {
  return encode([&](auto& ar) {
    visit_envelope(ar, magic, version, "snapshot");
    const auto count = static_cast<std::uint32_t>(names.size());
    ar.field(count);
    const std::vector<std::uint8_t> payload(8, 1);
    for (const std::string& name : names) {
      ar.field(name);
      ar.field(payload);
    }
  });
}

TEST(SnapshotContainer, SectionsRoundtripThroughBytes) {
  Snapshot snap;
  Writer::write(snap.add_section("alpha"), [](auto& ar) {
    const std::uint64_t v = 42;
    ar.field(v);
  });
  Writer::write(snap.add_section("beta"), [](auto& ar) {
    const std::string s = "payload";
    ar.field(s);
  });
  EXPECT_TRUE(snap.has_section("alpha"));
  EXPECT_FALSE(snap.has_section("gamma"));
  EXPECT_THROW((void)snap.section("gamma"), SnapshotError);

  const Snapshot parsed = Snapshot::from_bytes(snap.to_bytes());
  ASSERT_EQ(parsed.section_count(), 2u);
  std::uint64_t alpha = 0;
  Reader a(parsed.section("alpha"), kNodes, kSegments);
  a.field(alpha);
  EXPECT_EQ(alpha, 42u);
  std::string beta;
  Reader b(parsed.section("beta"), kNodes, kSegments);
  b.field(beta);
  EXPECT_EQ(beta, "payload");
}

TEST(SnapshotContainer, RejectsBadMagic) {
  // Some other file format.
  EXPECT_THROW((void)Snapshot::from_bytes(container(0x4b4f4f42u, Snapshot::kVersion, {})),
               SnapshotError);
}

// The version-skew contract: an old-format snapshot is rejected loudly,
// with a message that says what to do — never half-parsed.
TEST(SnapshotContainer, RejectsVersionSkewLoudly) {
  try {
    (void)Snapshot::from_bytes(container(Snapshot::kMagic, Snapshot::kVersion + 1, {}));
    FAIL() << "version skew accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("re-record"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, RejectsTruncatedSectionTable) {
  Snapshot snap;
  Writer::write(snap.add_section("alpha"), [](auto& ar) {
    const std::uint64_t v = 42;
    ar.field(v);
  });
  std::vector<std::uint8_t> bytes = snap.to_bytes();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)Snapshot::from_bytes(bytes), SnapshotError);
}

// add_section resets a section it already has, so a repeated name would
// let the later payload silently replace the earlier one.
TEST(SnapshotContainer, RejectsRepeatedSectionName) {
  const auto parse = [](const std::vector<std::string>& names) {
    return Snapshot::from_bytes(container(Snapshot::kMagic, Snapshot::kVersion, names));
  };
  EXPECT_EQ(parse({"alpha", "beta"}).section_count(), 2u);
  EXPECT_THROW((void)parse({"alpha", "alpha"}), SnapshotError);
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

// The oracle's tally is saved in strictly increasing id order, so restore
// rejects a repeated id (which would overwrite the earlier entry) and an
// id out of order.
TEST(SimWorldSnapshot, OracleTallyIdsMustStrictlyIncrease) {
  SimWorld source(tiny_config());
  source.step();
  Snapshot snap;
  source.save(snap);
  const auto with_tally = [&](std::initializer_list<std::uint64_t> ids) {
    Snapshot edited = snap;
    Writer::write(edited.add_section("oracle"), [&](auto& ar) {
      const std::uint64_t count = ids.size();
      const std::int64_t adjustment_sum = 0;
      const std::uint64_t exit_events = 0;
      const std::uint16_t times = 1;
      ar.field(count);  // count events
      ar.field(adjustment_sum);
      ar.field(exit_events);
      ar.field(count);
      for (const std::uint64_t id : ids) {
        ar.field(id);
        ar.field(times);
      }
    });
    return edited;
  };

  SimWorld target(tiny_config(), SimWorld::Mode::Restore);
  EXPECT_NO_THROW(target.restore(with_tally({3, 7})));
  EXPECT_EQ(target.oracle().times_counted(traffic::VehicleId{7}), 1);
  EXPECT_THROW(target.restore(with_tally({7, 7})), SnapshotError);
  EXPECT_THROW(target.restore(with_tally({7, 3})), SnapshotError);
}

// Each step spends whole arrivals from the demand model's budget, so a
// restored budget past 1 would make the next step loop until it is spent:
// 1e300 minus 1 is 1e300 again, so that step never returned.
TEST(SimWorldSnapshot, ArrivalBudgetOutsideItsRangeIsRejected) {
  SimWorld source(open_smoke_config());
  for (int i = 0; i < 200; ++i) source.step();
  Snapshot snap;
  source.save(snap);
  const std::vector<std::uint8_t> demand = snap.section("demand");
  // The budget follows two config echoes (u64, f64) and the rng state.
  const std::size_t at = 8 + 8 + 41;
  SimWorld target(open_smoke_config(), SimWorld::Mode::Restore);
  for (const double budget : {1e300, 1.0, -0.5}) {
    Snapshot edited = snap;
    std::vector<std::uint8_t>& bytes = edited.add_section("demand");
    bytes.assign(demand.begin(), demand.begin() + static_cast<std::ptrdiff_t>(at));
    Writer::write(bytes, [&](auto& ar) { ar.field(budget); });
    bytes.insert(bytes.end(), demand.begin() + static_cast<std::ptrdiff_t>(at + 8), demand.end());
    EXPECT_THROW(target.restore(edited), SnapshotError) << "budget " << budget;
  }
  EXPECT_NO_THROW(target.restore(snap));
}

// The engine clock advances by one dt per step from 0, so restore rejects
// a clock other than step count × dt, and one with no room for the next
// step: a clock of INT64_MAX − 100 ms would otherwise restore, and the next
// engine step overflow it.
TEST(SimWorldSnapshot, EngineClockOffItsStepCountIsRejected) {
  SimWorld source(open_smoke_config());
  for (int i = 0; i < 200; ++i) source.step();
  Snapshot snap;
  source.save(snap);
  const std::vector<std::uint8_t> engine = snap.section("engine");
  // The clock (i64 ms) and then the step count (u64) follow the section's
  // 58-byte echo block.
  constexpr std::size_t kClockAt = 58;
  const std::int64_t now = source.engine().now().millis();
  std::vector<std::uint8_t> want(8, 0);
  put_u64(want, 0, static_cast<std::uint64_t>(now));
  ASSERT_TRUE(std::equal(want.begin(), want.end(), engine.begin() + kClockAt));
  const std::uint64_t steps = source.engine().step_count();
  const std::int64_t tick = util::SimTime::from_seconds(source.engine().dt()).millis();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const auto with_clock = [&](std::int64_t clock, std::uint64_t step_count) {
    Snapshot edited = snap;
    std::vector<std::uint8_t>& bytes = edited.add_section("engine");
    bytes = engine;
    put_u64(bytes, kClockAt, static_cast<std::uint64_t>(clock));
    put_u64(bytes, kClockAt + 8, step_count);
    return edited;
  };

  SimWorld target(open_smoke_config(), SimWorld::Mode::Restore);
  for (const std::int64_t clock : {now + 1, now - tick, std::int64_t{-1}, kMax - 100, kMax}) {
    EXPECT_THROW(target.restore(with_clock(clock, steps)), SnapshotError) << "clock " << clock;
  }
  // Consistent with its step count, but the next step would overflow it.
  const std::uint64_t last = static_cast<std::uint64_t>(kMax / tick);
  EXPECT_THROW(target.restore(with_clock(static_cast<std::int64_t>(last) * tick, last)),
               SnapshotError);
  // The step before it leaves room for one more.
  const std::uint64_t room = last - 1;
  EXPECT_NO_THROW(target.restore(with_clock(static_cast<std::int64_t>(room) * tick, room)));
  target.engine().step();
  EXPECT_EQ(target.engine().now().millis(), static_cast<std::int64_t>(last) * tick);
}

// Hostile input over a whole snapshot with all six sections (a patrol
// fleet included): every section cut short at every length must be
// rejected, and every byte of the encoding XOR-ed with 0xFF must either
// restore (the flip hit a value no check can tell from a real one) or be
// rejected with SnapshotError — never an abort, std::bad_alloc or anything
// else. The target then still restores the original, and re-saves it to
// the same bytes.
TEST(SimWorldSnapshot, EveryTruncationIsRejectedAndEveryByteFlipIsSafe) {
  experiment::ScenarioConfig config = tiny_config();
  config.num_patrol = 1;
  SimWorld source(config);
  for (int i = 0; i < 100; ++i) source.step();
  Snapshot snap;
  source.save(snap);
  const std::vector<std::uint8_t> bytes = snap.to_bytes();
  const std::vector<std::string> names = {"engine", "demand", "protocol",
                                          "oracle", "patrol", "world"};
  ASSERT_EQ(snap.section_count(), names.size());

  SimWorld target(config, SimWorld::Mode::Restore);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  const auto restore = [&](const Snapshot& corrupt, const std::string& what) {
    try {
      target.restore(corrupt);
      ++restored;
    } catch (const SnapshotError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << ": restore threw " << typeid(e).name() << " (" << e.what()
                    << ") instead of SnapshotError";
    }
  };

  for (const std::string& name : names) {
    const std::vector<std::uint8_t>& payload = snap.section(name);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      Snapshot cut = snap;
      cut.add_section(name).assign(payload.begin(),
                                   payload.begin() + static_cast<std::ptrdiff_t>(len));
      restore(cut, name + " cut to " + std::to_string(len) + " bytes");
    }
  }
  EXPECT_EQ(restored, 0u) << "a truncated section restored";

  restored = rejected = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[at] ^= 0xFF;
    try {
      restore(Snapshot::from_bytes(flipped), "byte " + std::to_string(at) + " flipped");
    } catch (const SnapshotError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(restored + rejected, bytes.size());
  EXPECT_GT(restored, 0u);
  EXPECT_GT(rejected, 0u);

  target.restore(snap);
  Snapshot again;
  target.save(again);
  EXPECT_EQ(again.to_bytes(), bytes);
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

// The bytes record_trace writes for two registry scenarios and a fuzz
// case: their length and FNV-1a. The replay tests only prove the reader
// agrees with the writer; these pins prove the bytes themselves did not
// drift, so a codec rewrite that keeps kTraceVersion must reproduce them.
// Pinned for trace version 2. A deliberate layout change bumps the version
// and re-pins these from the failure message; any other mismatch is a
// regression: bisect it, do not re-pin it.
TEST(TraceReplay, RecordedBytesArePinned) {
  struct Pin {
    TraceSource source;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {TraceSource::registry("manhattan-open-steady", experiment::ScenarioScale::Smoke), 102'074,
       0xeea23bee70f5f8cbull},
      {TraceSource::registry("roundabout-town-lossless", experiment::ScenarioScale::Smoke),
       41'277, 0xb7156408e2c8d9d3ull},
      {TraceSource::fuzz_case(0x1234567), 244'853, 0xb75a9f8dedf17568ull},
  };
  for (const Pin& pin : pins) {
    const std::vector<std::uint8_t> bytes = record_trace(pin.source);
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
    for (const std::uint8_t byte : bytes) digest = (digest ^ byte) * 1099511628211ull;
    EXPECT_EQ(bytes.size(), pin.size) << pin.source.describe();
    EXPECT_EQ(digest, pin.digest) << pin.source.describe() << ": pinned 0x" << std::hex
                                  << pin.digest << ", actual 0x" << digest;
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
