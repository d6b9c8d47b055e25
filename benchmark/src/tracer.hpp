// In-memory span recorder for the traced run.
//
// A span is {name, start, end, parent}; the parent is whichever span was
// open on the same tracer when this one began. One tracer belongs to one
// thread (the stepping thread and each reader get their own), so recording
// takes no lock. Spans stay in memory and are written out once, at exit.
// A disabled tracer records nothing and reads no clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ivc::bench {

class Tracer {
 public:
  struct Span {
    const char* name;  // string literal; outlives the tracer
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::int32_t parent;  // index of the enclosing span, -1 for a root
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span that closes when the returned scope ends.
  [[nodiscard]] Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;  // duration minus the part covered by children
  };
  // Per span name: how many, their summed duration and their summed self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  // One line per span: thread, id, parent, name, start_ns, end_ns.
  void write_tsv(std::ostream& out, int thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
};

// Tracers of every thread of a run, collected for the span totals and dump.
struct TraceSet {
  std::vector<std::unique_ptr<Tracer>> tracers;
  Tracer& add(bool enabled) {
    tracers.push_back(std::make_unique<Tracer>(enabled));
    return *tracers.back();
  }
  // Tracer::totals() summed over every tracer.
  [[nodiscard]] std::map<std::string, Tracer::Totals> totals() const;
};

}  // namespace ivc::bench
