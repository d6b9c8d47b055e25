// Versioned engine-state snapshots (serving layer).
//
// A Snapshot is a set of named sections, each an opaque byte payload
// written through an explicit little-endian codec — the format is
// endian-stable by construction (every integer is stored with shifts into
// bytes of known significance, doubles as their IEEE-754 bit patterns),
// never a memory dump. Each value grows the buffer once, through one
// out-of-line ByteWriter::extend; a hot loop sizes a whole record up front
// (ByteWriter::record) and fills it through a cursor, and the big sections
// reserve their exact size before they write.
// Sections keep producers independent: the engine, demand model,
// protocol, oracle and patrol fleet each own one section, and restore
// looks its section up by name instead of trusting a global offset.
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
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ivc::traffic {
class DemandModel;
}
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
  void bytes(const std::uint8_t* data, std::size_t n) {
    if (n > 0) std::memcpy(extend(n), data, n);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
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
  static constexpr std::uint32_t kVersion = 2;

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

// Serialization backdoor: the one type the stateful components befriend.
// Keeps every component's data members private while concentrating the
// field-by-field save/restore code — which must mirror those members
// exactly — in src/serve/snapshot.cpp.
struct SnapshotAccess {
  static void save(const traffic::DemandModel& demand, Snapshot& snap);
  static void restore(traffic::DemandModel& demand, const Snapshot& snap);
  static void save(const counting::CountingProtocol& protocol, Snapshot& snap);
  static void restore(counting::CountingProtocol& protocol, const Snapshot& snap);
  static void save(const counting::Oracle& oracle, Snapshot& snap);
  static void restore(counting::Oracle& oracle, const Snapshot& snap);
  static void save(const counting::PatrolFleet& fleet, Snapshot& snap);
  static void restore(counting::PatrolFleet& fleet, const Snapshot& snap);
};

}  // namespace ivc::serve
