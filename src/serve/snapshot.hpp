// Versioned engine-state snapshots (serving layer).
//
// A Snapshot is a set of named sections, each an opaque byte payload.
// Sections keep producers independent: the engine, demand model, protocol,
// oracle, patrol fleet and world each own one section, and restore looks
// its section up by name instead of trusting a global offset.
//
// One codec: every byte of a snapshot, and of a trace (trace.hpp), is
// written by the Writer archive below and read by the Reader. The format is
// explicit little-endian and endian-stable by construction (every integer
// is stored with shifts into bytes of known significance, doubles as their
// IEEE-754 bit patterns), never a memory dump.
//
// One field list per section: each component's SnapshotAccess::visit names
// every field once, and three archives run it. A Sizer pass adds up the
// section's encoded bytes; a Writer pass appends exactly that many bytes in
// one go and fills them (a visit that writes other than it sized aborts); a
// Reader pass decodes and checks. The checks live in the archives' typed
// ops, so each is written once: a truncated value, a count whose elements
// cannot fit in the bytes left, a segment or intersection id outside the
// world, an enumeration or flag byte out of range, map keys out of order and
// a config echo that differs all throw SnapshotError. The container is one
// more visit: the envelope (magic, version, endian mark), a u32 section
// count, then each section's name and payload as u32-length byte strings.
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

#include <bit>
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
#include "util/string_util.hpp"
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
// `Derived` supplies scalar(v) for the eight scalar types and
// byte_string(b) for strings and byte vectors; the Reader also
// checked_count(min) and checked(id, may_be_invalid).
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
  void field(Ref<std::string> s) { self().byte_string(s); }
  void field(Ref<std::vector<std::uint8_t>> b) { self().byte_string(b); }
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
  template <class Bytes>
  void byte_string(const Bytes& b) {
    bytes_ += sizeof(std::uint32_t) + b.size();
  }
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

// Encodes a visit into bytes sized by a Sizer pass: each integer as its
// bytes in increasing significance, a double as its IEEE-754 bit pattern
// and a bool as one byte, 0 or 1.
class Writer : public Archive<Writer, false> {
 public:
  // Appends what `visit(archive)` encodes to `out`, which grows once. A
  // visit that writes more or less than it sized aborts. Flattened so the
  // archive never escapes: its cursor then stays in a register instead of
  // making a round trip through memory for every value written.
  template <class Visit>
  [[gnu::flatten]] static void write(std::vector<std::uint8_t>& out, const Visit& visit) {
    Sizer sizer;
    visit(sizer);
    Writer writer(extend(out, sizer.size()), sizer.size());
    visit(writer);
    IVC_ASSERT_MSG(writer.at_ == writer.end_, "snapshot record left bytes unwritten");
  }

 private:
  friend class Archive<Writer, false>;
  Writer(std::uint8_t* at, std::size_t n) : at_(at), end_(at + n) {}
  // Appends `n` bytes to `out` and returns where they start. Out of line:
  // gcc 12 inlining the vector growth into a caller raises a false-positive
  // -Wstringop-overflow.
  static std::uint8_t* extend(std::vector<std::uint8_t>& out, std::size_t n);
  // The next `n` bytes to fill.
  std::uint8_t* take(std::size_t n) {
    IVC_ASSERT_MSG(n <= static_cast<std::size_t>(end_ - at_), "snapshot record overrun");
    return std::exchange(at_, at_ + n);
  }
  template <class U>
  void scalar(U v) {
    if constexpr (std::is_same_v<U, double>) {
      scalar(std::bit_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<U, bool>) {
      scalar(static_cast<std::uint8_t>(v ? 1 : 0));
    } else {
      const auto bits = static_cast<std::make_unsigned_t<U>>(v);
      std::uint8_t* at = take(sizeof(U));
      for (std::size_t i = 0; i < sizeof(U); ++i) {
        at[i] = static_cast<std::uint8_t>(bits >> (8 * i));
      }
    }
  }
  template <class Bytes>
  void byte_string(const Bytes& b) {
    scalar(static_cast<std::uint32_t>(b.size()));
    if (!b.empty()) std::memcpy(take(b.size()), b.data(), b.size());
  }
  std::uint8_t* at_;
  std::uint8_t* end_;
};

// Decodes a visit from bytes; whatever it cannot accept, a read past the
// end included, throws SnapshotError.
class Reader : public Archive<Reader, true> {
 public:
  // `nodes` and `segments` bound every NodeId and EdgeId decoded.
  Reader(const std::vector<std::uint8_t>& in, std::size_t nodes, std::size_t segments)
      : in_(in), nodes_(nodes), segments_(segments) {}
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  void expect_end(const char* what) const {
    if (pos_ != in_.size()) throw SnapshotError(std::string(what) + ": trailing bytes in section");
  }

 private:
  friend class Archive<Reader, true>;
  template <class U>
  void scalar(U& v) {
    if constexpr (std::is_same_v<U, double>) {
      v = std::bit_cast<double>(le(sizeof(std::uint64_t)));
    } else if constexpr (std::is_same_v<U, bool>) {
      const std::uint64_t byte = le(1);
      if (byte > 1) throw SnapshotError("snapshot flag byte is neither 0 nor 1");
      v = byte == 1;
    } else {
      v = static_cast<U>(le(sizeof(U)));
    }
  }
  template <class Bytes>
  void byte_string(Bytes& b) {
    const auto n = static_cast<std::size_t>(le(sizeof(std::uint32_t)));
    need(n);
    const std::uint8_t* at = in_.data() + pos_;
    b.assign(at, at + n);
    pos_ += n;
  }
  // A u64 element count that sizes a container or a loop. Each element
  // takes at least `min_element_bytes` (>= 1) of encoding, so a count
  // whose elements cannot fit in the bytes left is corrupt: it throws
  // here, before the caller reserves or loops on it.
  std::size_t checked_count(std::size_t min_element_bytes) {
    const std::uint64_t n = le(sizeof(std::uint64_t));
    if (n > remaining() / min_element_bytes) {
      throw SnapshotError("snapshot length prefix exceeds the remaining bytes");
    }
    return static_cast<std::size_t>(n);
  }
  template <class Id>
  Id checked(Id id, bool may_be_invalid) const {
    const std::size_t limit = std::is_same_v<Id, roadnet::EdgeId> ? segments_ : nodes_;
    if (id.valid() ? id.value() >= limit : !may_be_invalid) {
      throw SnapshotError("snapshot id out of this world's range");
    }
    return id;
  }
  // The next `bytes` bytes as a little-endian integer.
  std::uint64_t le(std::size_t bytes) {
    need(bytes);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) v |= std::uint64_t{in_[pos_ + i]} << (8 * i);
    pos_ += bytes;
    return v;
  }
  void need(std::size_t n) const {
    if (n > in_.size() - pos_) throw SnapshotError("snapshot truncated");
  }
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_ = 0;
  std::size_t nodes_;
  std::size_t segments_;
};

template <class Ar, class T>
using ArchiveRef = typename Ar::template Ref<T>;

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

  // Wire format: the envelope, then the section table.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  [[nodiscard]] static Snapshot from_bytes(const std::vector<std::uint8_t>& bytes);

 private:
  struct Section {
    std::string name;
    std::vector<std::uint8_t> payload;
  };
  // The container's field list (src/serve/snapshot.cpp).
  template <class Ar>
  static void visit(Ar& ar, ArchiveRef<Ar, Snapshot> snap);
  std::vector<Section> sections_;
};

// The header a snapshot and a trace both open with: the file kind's magic
// and format version, then the endian mark. The Reader rejects any other
// value of each; `kind` names the file in the message.
template <class Ar>
void visit_envelope(Ar& ar, std::uint32_t magic, std::uint32_t version, const char* kind) {
  std::uint32_t value = magic;
  ar.field(value);
  if (value != magic) throw SnapshotError(util::format("not an IVC %s (bad magic)", kind));
  value = version;
  ar.field(value);
  if (value != version) {
    throw SnapshotError(util::format(
        "%s format version %u is not the supported version %u; re-record the %s with this build",
        kind, value, version, kind));
  }
  value = Snapshot::kEndianMark;
  ar.field(value);
  if (value != Snapshot::kEndianMark) {
    throw SnapshotError(util::format("%s endian mark corrupt", kind));
  }
}

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
