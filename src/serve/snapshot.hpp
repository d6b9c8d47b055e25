// Versioned engine-state snapshots (serving layer).
//
// A Snapshot is a set of named sections, each an opaque byte payload
// written through an explicit little-endian codec — the format is
// endian-stable by construction (every integer is stored with shifts into
// bytes of known significance, doubles as their IEEE-754 bit patterns),
// never a memory dump. Sections keep producers independent: the engine,
// demand model, protocol, oracle, patrol fleet and world each own one
// section, and restore looks its section up by name instead of trusting a
// global offset.
//
// One field list per section: each component's SnapshotAccess::visit names
// every field once, and three archives run it. A Sizer pass adds up the
// section's encoded bytes; a Writer pass fills one ByteWriter::Record of
// exactly that size (one allocation per section; a visit that writes other
// than it sized aborts); a Reader pass decodes and checks. The checks live
// in the archives' typed ops, so each is written once: a count whose
// elements cannot fit in the bytes left, a segment or intersection id
// outside the world, an enumeration or flag byte out of range, map keys out
// of order and a config echo that differs all throw SnapshotError.
//
// Versioning contract: kVersion is bumped on ANY layout change, and
// from_bytes rejects a mismatched version loudly (SnapshotError) — an
// old-format snapshot is never misread. Within one version, every
// section additionally opens with a structural-validation block (seeds,
// network shape, config echoes) so a snapshot can only be restored into
// a world built from the same inputs.
//
// Determinism contract: save() is legal only between steps (no buffered
// events, no pending frees); restore-then-continue reproduces the
// uninterrupted run's event stream bit for bit.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "roadnet/types.hpp"
#include "traffic/vehicle.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "v2x/message.hpp"

namespace ivc::traffic {
class DemandModel;
class SimEngine;
}  // namespace ivc::traffic
namespace ivc::counting {
class CountingProtocol;
class Oracle;
class PatrolFleet;
}  // namespace ivc::counting

namespace ivc::serve {

class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

// Stores `v` at `at` as sizeof(U) little-endian bytes.
template <class U>
inline void store_le(std::uint8_t* at, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// The value writers ByteWriter and ByteWriter::Record share; `Derived`
// supplies `std::uint8_t* take(std::size_t n)`, the next n bytes to fill.
template <class Derived>
class LittleEndianWriter {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    put(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const std::uint8_t* data, std::size_t n) {
    if (n > 0) std::memcpy(static_cast<Derived*>(this)->take(n), data, n);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

 private:
  friend Derived;
  LittleEndianWriter() = default;

  template <class U>
  void put(U v) {
    store_le(static_cast<Derived*>(this)->take(sizeof(U)), v);
  }
};

// Append-only little-endian encoder over a caller-owned byte vector.
class ByteWriter : public LittleEndianWriter<ByteWriter> {
 public:
  // A cursor over `n` bytes that record(n) has already appended. It points
  // into the writer's buffer, which the next extend() may move: finish one
  // record before starting the next. Writing past the end, or leaving
  // bytes unwritten, is a bug in the caller's size and aborts.
  class Record : public LittleEndianWriter<Record> {
   public:
    Record(const Record&) = delete;
    Record& operator=(const Record&) = delete;
    ~Record() { IVC_ASSERT_MSG(at_ == end_, "snapshot record left bytes unwritten"); }

   private:
    friend class ByteWriter;
    friend class LittleEndianWriter<Record>;
    Record(std::uint8_t* at, std::size_t n) : at_(at), end_(at + n) {}
    std::uint8_t* take(std::size_t n) {
      IVC_ASSERT_MSG(n <= static_cast<std::size_t>(end_ - at_), "snapshot record overrun");
      return std::exchange(at_, at_ + n);
    }
    std::uint8_t* at_;
    std::uint8_t* end_;
  };

  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  // Room for `n` more bytes, so the appends that follow never reallocate.
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }
  [[nodiscard]] Record record(std::size_t n) { return Record(extend(n), n); }

 private:
  friend class LittleEndianWriter<ByteWriter>;
  std::uint8_t* take(std::size_t n) { return extend(n); }
  // Appends `n` bytes and returns where they start. Out of line: gcc 12
  // inlining the vector growth into a caller raises a false-positive
  // -Wstringop-overflow.
  std::uint8_t* extend(std::size_t n);
  std::vector<std::uint8_t>& out_;
};

// Sequential little-endian decoder; every overrun throws SnapshotError
// instead of reading garbage.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return in_[pos_++];
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    need(n);
    std::vector<std::uint8_t> out(in_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(in_.data()) + pos_, n);
    pos_ += n;
    return s;
  }
  // A u64 element count that sizes a container or a loop. Each element
  // takes at least `min_element_bytes` (>= 1) of encoding, so a count
  // whose elements cannot fit in the bytes left is corrupt: it throws
  // SnapshotError here, before the caller reserves or loops on it.
  std::size_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = u64();
    if (n > (in_.size() - pos_) / min_element_bytes) {
      throw SnapshotError("snapshot length prefix exceeds the remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == in_.size(); }
  void expect_end(const char* what) const {
    if (!at_end()) throw SnapshotError(std::string(what) + ": trailing bytes in section");
  }

 private:
  std::uint64_t le(int bytes) {
    need(static_cast<std::size_t>(bytes));
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  void need(std::size_t n) const {
    if (n > in_.size() - pos_) throw SnapshotError("snapshot truncated");
  }
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
};

class Snapshot {
 public:
  static constexpr std::uint32_t kMagic = 0x53435649;    // "IVCS", little-endian
  static constexpr std::uint32_t kEndianMark = 0x01020304;
  // Bump on ANY section-layout change; from_bytes rejects mismatches.
  static constexpr std::uint32_t kVersion = 3;

  // Creates (or resets) the named section and returns its payload buffer.
  std::vector<std::uint8_t>& add_section(std::string_view name);
  [[nodiscard]] const std::vector<std::uint8_t>& section(std::string_view name) const;
  [[nodiscard]] bool has_section(std::string_view name) const;
  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }

  // Wire format: header {magic, version, endian mark} + section table.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  [[nodiscard]] static Snapshot from_bytes(const std::vector<std::uint8_t>& bytes);

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Section> sections_;
};

class SimWorld;
class Sizer;

// Whether every value of a type encodes to the same size.
template <class T>
constexpr bool kFixedSize =
    std::is_arithmetic_v<T> || std::is_same_v<T, util::SimTime> ||
    std::is_same_v<T, traffic::VehicleId> || std::is_same_v<T, roadnet::EdgeId> ||
    std::is_same_v<T, roadnet::NodeId>;

// The ops a visit may call; every archive offers exactly these, so one
// field list serves all three. Saving archives (Sizer, Writer) take each
// value by const reference, the Reader by reference, and it overwrites it.
// `Derived` supplies scalar(v) for the eight scalar types and text(s) for
// strings; the Reader also checked_count(min) and checked(id, may_be_invalid).
template <class Derived, bool Loading>
class Archive {
 public:
  static constexpr bool kLoading = Loading;
  template <class T>
  using Ref = std::conditional_t<Loading, T&, const T&>;

  // A bool is one byte, which the Reader rejects unless it is 0 or 1.
  template <class U>
    requires std::is_arithmetic_v<std::remove_const_t<U>>
  void field(U& v) {
    self().scalar(v);
  }
  // A u32 length, then the bytes.
  void field(Ref<std::string> s) { self().text(s); }
  void field(Ref<util::SimTime> t) {
    std::int64_t ms = t.millis();
    field(ms);
    if constexpr (Loading) t = util::SimTime::from_millis(ms);
  }
  // Decoded as is: the id's owner checks it against the restored engine.
  void field(Ref<traffic::VehicleId> id) {
    std::uint64_t v = id.value();
    field(v);
    if constexpr (Loading) {
      id = traffic::VehicleId{static_cast<std::uint32_t>(v), static_cast<std::uint32_t>(v >> 32)};
    }
  }
  // A segment or intersection of this world. The Reader rejects any other
  // value, and the invalid id unless the field may hold it.
  void field(Ref<roadnet::EdgeId> e) { strong_id(e, false); }
  void field(Ref<roadnet::NodeId> n) { strong_id(n, false); }
  void field_or_invalid(Ref<roadnet::EdgeId> e) { strong_id(e, true); }
  void field_or_invalid(Ref<roadnet::NodeId> n) { strong_id(n, true); }
  void field(Ref<util::Rng> rng) {
    util::Rng::State st = rng.state();
    for (std::uint64_t& word : st.s) field(word);
    field(st.spare_normal);
    field(st.has_spare_normal);
    if constexpr (Loading) rng.set_state(st);
  }
  void field(Ref<v2x::Label> label) {
    field(label.issuer);
    field(label.edge);
    field(label.issued_at);
  }
  // The payload follows a kind byte: 0 for a tree ack, 1 for a count report.
  void field(Ref<v2x::Message> msg) {
    field(msg.source);
    field(msg.destination);
    auto kind = static_cast<std::uint8_t>(msg.payload.index());
    field(kind);
    if constexpr (Loading) {
      if (kind > 1) throw SnapshotError("unknown message payload kind in snapshot");
      msg.payload = kind == 0 ? v2x::Payload{v2x::TreeAck{}} : v2x::Payload{v2x::CountReport{}};
    }
    if (auto* ack = std::get_if<v2x::TreeAck>(&msg.payload)) {
      field(ack->from);
      field(ack->is_child);
    } else if (auto* report = std::get_if<v2x::CountReport>(&msg.payload)) {
      field(report->from);
      field(report->subtree_total);
    }
    field(msg.created_at);
    field(msg.hops);
  }

  // One byte, which the Reader rejects past `last`.
  template <class E>
  void enumeration(E& e, std::remove_const_t<E> last) {
    auto v = static_cast<std::uint8_t>(e);
    field(v);
    if constexpr (Loading) {
      if (v > static_cast<std::uint8_t>(last)) throw SnapshotError("snapshot enum out of range");
      e = static_cast<E>(v);
    }
  }

  // A value the world's inputs fix, repeated so that restore refuses a
  // world built from other inputs.
  template <class T>
  void echo(const T& expected, const char* what) {
    T value = expected;
    field(value);
    if (!(value == expected)) {
      throw SnapshotError(std::string("snapshot incompatible with this world: ") + what +
                          " differs");
    }
  }

  // A u64 element count. The Reader rejects one whose elements, each at
  // least `min_element_bytes` long, cannot fit in the bytes left.
  void count(Ref<std::size_t> n, std::size_t min_element_bytes) {
    if constexpr (Loading) n = self().checked_count(min_element_bytes);
    if constexpr (!Loading) field(n);
  }

  // A count, then each element through `elem(archive, element)`. The
  // Reader checks the count against a Sizer pass over a default element
  // before it reserves. Without `elem` each element is one field, and the
  // Sizer sizes a sequence of fixed-size values without visiting them.
  template <class Seq, class Elem>
  void sequence(Seq& seq, const Elem& elem) {
    std::size_t n = seq.size();
    count(n, Loading ? min_bytes<typename Seq::value_type>(elem) : 0);
    if constexpr (Loading) {
      seq.clear();
      if constexpr (requires { seq.reserve(n); }) seq.reserve(n);
      for (std::size_t i = 0; i < n; ++i) elem(self(), seq.emplace_back());
    } else {
      for (const auto& element : seq) elem(self(), element);
    }
  }
  template <class Seq>
  void sequence(Seq& seq) {
    const auto element = [](auto& ar, auto& x) { ar.field(x); };
    if constexpr (std::is_same_v<Derived, Sizer> && kFixedSize<typename Seq::value_type>) {
      std::size_t n = seq.size();
      count(n, 0);
      self().bytes_ += n * min_bytes<typename Seq::value_type>(element);
    } else {
      sequence(seq, element);
    }
  }

  // A presence flag, then the value if present.
  template <class Opt>
  void optional(Opt& opt) {
    bool present = opt.has_value();
    field(present);
    if constexpr (Loading) opt = present ? Opt{std::in_place} : Opt{};
    if (opt.has_value()) field(*opt);
  }

  // A count, then key/value pairs of fixed-size types. The Reader rejects
  // keys that do not strictly increase: a repeated key would replace the
  // earlier entry.
  template <class Map>
  void map(Map& m) {
    using Entry = std::pair<typename Map::key_type, typename Map::mapped_type>;
    const auto entry = [](auto& ar, auto& kv) {
      ar.field(kv.first);
      ar.field(kv.second);
    };
    static_assert(kFixedSize<typename Map::key_type> && kFixedSize<typename Map::mapped_type>);
    std::size_t n = m.size();
    count(n, Loading ? min_bytes<Entry>(entry) : 0);
    if constexpr (Loading) {
      m.clear();
      for (std::size_t i = 0; i < n; ++i) {
        Entry kv;
        entry(self(), kv);
        if (!m.empty() && !(m.rbegin()->first < kv.first)) {
          throw SnapshotError("snapshot map keys do not strictly increase");
        }
        m.emplace_hint(m.end(), std::move(kv));
      }
    } else if constexpr (std::is_same_v<Derived, Sizer>) {
      self().bytes_ += n * min_bytes<Entry>(entry);
    } else {
      for (const auto& kv : m) entry(self(), kv);
    }
  }

 private:
  friend Derived;
  Archive() = default;
  Derived& self() { return static_cast<Derived&>(*this); }
  template <class Id>
  void strong_id(Id& id, bool may_be_invalid) {
    std::uint32_t v = id.value();
    field(v);
    if constexpr (Loading) id = self().checked(Id{v}, may_be_invalid);
  }
  // The smallest encoding of a T: a Sizer pass over a default one.
  template <class T, class Elem>
  static std::size_t min_bytes(const Elem& elem);
};

// Adds up the encoded size of everything a visit passes it.
class Sizer : public Archive<Sizer, false> {
 public:
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  friend class Archive<Sizer, false>;
  template <class U>
  void scalar(const U& /*value*/) {
    bytes_ += sizeof(U);
  }
  void text(const std::string& s) { bytes_ += sizeof(std::uint32_t) + s.size(); }
  std::size_t bytes_ = 0;
};

template <class Derived, bool Loading>
template <class T, class Elem>
std::size_t Archive<Derived, Loading>::min_bytes(const Elem& elem) {
  const T empty{};
  Sizer sizer;
  elem(sizer, empty);
  return sizer.size();
}

// Encodes a visit into one ByteWriter::Record, sized by a Sizer pass.
class Writer : public Archive<Writer, false> {
 public:
  // Appends what `visit(archive)` encodes to `out`. A visit that writes
  // more or less than it sized aborts. Flattened so the archive never
  // escapes: its record cursor then stays in a register instead of making
  // a round trip through memory for every value written.
  template <class Visit>
  [[gnu::flatten]] static void write(std::vector<std::uint8_t>& out, const Visit& visit) {
    Sizer sizer;
    visit(sizer);
    ByteWriter bytes(out);
    Writer writer(bytes, sizer.size());
    visit(writer);
  }

 private:
  friend class Archive<Writer, false>;
  Writer(ByteWriter& out, std::size_t size) : rec_(out.record(size)) {}
  void scalar(std::uint8_t v) { rec_.u8(v); }
  void scalar(std::uint16_t v) { rec_.u16(v); }
  void scalar(std::uint32_t v) { rec_.u32(v); }
  void scalar(std::uint64_t v) { rec_.u64(v); }
  void scalar(std::int32_t v) { rec_.i32(v); }
  void scalar(std::int64_t v) { rec_.i64(v); }
  void scalar(double v) { rec_.f64(v); }
  void scalar(bool v) { rec_.boolean(v); }
  void text(const std::string& s) { rec_.str(s); }
  ByteWriter::Record rec_;
};

// Decodes a visit from one section; whatever it cannot accept throws
// SnapshotError.
class Reader : public Archive<Reader, true> {
 public:
  // `nodes` and `segments` bound every NodeId and EdgeId decoded.
  Reader(const std::vector<std::uint8_t>& in, std::size_t nodes, std::size_t segments)
      : in_(in), nodes_(nodes), segments_(segments) {}
  [[nodiscard]] std::size_t remaining() const { return in_.remaining(); }
  void expect_end(const char* what) const { in_.expect_end(what); }

 private:
  friend class Archive<Reader, true>;
  void scalar(std::uint8_t& v) { v = in_.u8(); }
  void scalar(std::uint16_t& v) { v = in_.u16(); }
  void scalar(std::uint32_t& v) { v = in_.u32(); }
  void scalar(std::uint64_t& v) { v = in_.u64(); }
  void scalar(std::int32_t& v) { v = in_.i32(); }
  void scalar(std::int64_t& v) { v = in_.i64(); }
  void scalar(double& v) { v = in_.f64(); }
  void scalar(bool& v) {
    const std::uint8_t byte = in_.u8();
    if (byte > 1) throw SnapshotError("snapshot flag byte is neither 0 nor 1");
    v = byte == 1;
  }
  void text(std::string& s) { s = in_.str(); }
  std::size_t checked_count(std::size_t min_element_bytes) { return in_.count(min_element_bytes); }
  template <class Id>
  Id checked(Id id, bool may_be_invalid) const {
    const std::size_t limit = std::is_same_v<Id, roadnet::EdgeId> ? segments_ : nodes_;
    if (id.valid() ? id.value() >= limit : !may_be_invalid) {
      throw SnapshotError("snapshot id out of this world's range");
    }
    return id;
  }
  ByteReader in_;
  std::size_t nodes_;
  std::size_t segments_;
};

template <class Ar, class T>
using ArchiveRef = typename Ar::template Ref<T>;

// The one type the stateful components befriend. Each component's field
// list, which must mirror its data members exactly, is its visit here,
// defined in src/serve/snapshot.cpp.
struct SnapshotAccess {
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, traffic::SimEngine> engine);
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, traffic::DemandModel> demand);
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, counting::CountingProtocol> protocol);
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, counting::Oracle> oracle);
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, counting::PatrolFleet> fleet);
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, SimWorld> world);

  // Every section of a world. Restore then checks what the demand model,
  // the protocol and the patrol fleet will use of the restored state.
  static void save(const SimWorld& world, Snapshot& snap);
  static void restore(SimWorld& world, const Snapshot& snap);
};

}  // namespace ivc::serve
