#include "report.hpp"

#include <utility>

namespace ivc::bench {

void Report::add(Kind kind, std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), kind});
}

void Report::set(std::string key, std::string value) {
  settings_.emplace_back(std::move(key), std::move(value));
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.emplace_back(what);
}

void Report::check_many(std::uint64_t attempted, std::uint64_t failed, std::string_view what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 16) failures_.emplace_back(what);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace ivc::bench
