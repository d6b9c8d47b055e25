// Metric and check bookkeeping for one benchmark run, plus the small
// statistics helpers every workload uses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ivc::bench {

// End-to-end metrics come from untraced runs and per-layer metrics from
// traced runs; the final JSON line carries exactly one of the two kinds.
// Info metrics are printed in the report only.
enum class Kind { EndToEnd, Layer, Info };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::Info;
};

// Everything one run prints: named metrics with units, and the count of
// checked operations and how many of them failed.
class Report {
 public:
  void add(Kind kind, std::string name, double value, std::string unit);
  // Host and settings block, printed with every report.
  void set(std::string key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& settings() const {
    return settings_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  // Free-form lines (one per measured run) printed with the report.
  void note(std::string line) { notes_.push_back(std::move(line)); }
  [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

  // Records one checked operation; a failure is counted and its reason
  // kept (the first few are printed).
  void check(bool ok, std::string_view what);
  // Records `attempted` operations of which `failed` failed.
  void check_many(std::uint64_t attempted, std::uint64_t failed, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> settings_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample set; 0 for
// an empty set. Partially sorts a copy.
template <class T>
[[nodiscard]] double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return static_cast<double>(values[rank - 1]);
}
template <class T>
[[nodiscard]] double median(std::vector<T> values) {
  return percentile(std::move(values), 0.5);
}

// Arithmetic mean; 0 for an empty set.
[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Wall seconds between two util::steady_now_nanos() readings.
[[nodiscard]] inline double seconds_between(std::uint64_t begin, std::uint64_t end) {
  return static_cast<double>(end - begin) * 1e-9;
}

// FNV-1a over a byte buffer: the fingerprint the cross-checks compare.
[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

}  // namespace ivc::bench
