// Versioned engine-state snapshots (serving layer).
//
// A Snapshot is a set of named sections, each an opaque byte payload
// written through an explicit little-endian codec — the format is
// endian-stable by construction (every integer is serialized byte by
// byte, doubles as their IEEE-754 bit patterns), never a memory dump.
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
#include <vector>

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

// Append-only little-endian encoder over a caller-owned byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  void le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
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
