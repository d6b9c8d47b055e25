// Fork-join parallel_for over a fixed number of threads.
//
// The benchmark harnesses sweep a (traffic volume x seed count x replica)
// grid; each grid point is an independent deterministic simulation, so the
// sweep is embarrassingly parallel. Threads pull indices from a shared atomic
// counter (dynamic scheduling) because run times vary strongly with traffic
// volume. Every caller runs one batch, so the threads live for one
// parallel_for: it starts them and joins them before it returns.
#pragma once

#include <cstddef>
#include <functional>

namespace ivc::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);  // 0 = hardware_concurrency

  [[nodiscard]] std::size_t size() const { return size_; }

  // Run body(i) for i in [0, count) on min(count, size()) threads, blocking
  // until done. If any invocation throws, the remaining indices are drained
  // without running the body and the first exception is rethrown on the
  // caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) const;

 private:
  std::size_t size_;
};

}  // namespace ivc::util
