#include "tracer.hpp"

#include "util/perf.hpp"

namespace ivc::bench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<std::int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, util::steady_now_nanos(), 0, tracer_->open_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = util::steady_now_nanos();
  tracer_->open_ = span.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children always follow their parent in recording order, so one pass
  // collects each span's child time before its self time is taken.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t ns = spans_[i].end_ns - spans_[i].start_ns;
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += ns;
    t.self_ns += ns - child_ns[i];
  }
  return out;
}

std::map<std::string, Tracer::Totals> TraceSet::totals() const {
  std::map<std::string, Tracer::Totals> all;
  for (const auto& tracer : tracers) {
    for (const auto& [name, t] : tracer->totals()) {
      Tracer::Totals& sum = all[name];
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  }
  return all;
}

void Tracer::write_tsv(std::ostream& out, int thread) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << thread << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

}  // namespace ivc::bench
