// Fixed-size thread pool with a parallel_for helper.
//
// The benchmark harnesses sweep a (traffic volume x seed count x replica)
// grid; each grid point is an independent deterministic simulation, so the
// sweep is embarrassingly parallel. Tasks pull indices from a shared atomic
// counter (dynamic scheduling) because run times vary strongly with traffic
// volume.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ivc::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);  // 0 = hardware_concurrency
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Enqueue a task; tasks must not throw (they run under noexcept workers —
  // an escaping exception terminates, which is the desired fail-fast
  // behaviour for fire-and-forget submissions). Use parallel_for for work
  // that may throw: it captures and rethrows.
  void submit(std::function<void()> task);

  // Block until all submitted tasks have completed.
  void wait_idle();

  // Run body(i) for i in [0, count) across the pool, blocking until done.
  // If any invocation throws, the remaining indices are drained without
  // running the body and the first exception is rethrown on the caller.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace ivc::util
