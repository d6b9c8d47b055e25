#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ivc::util {

ThreadPool::ThreadPool(std::size_t num_threads) : size_(num_threads) {
  if (size_ == 0) size_ = std::thread::hardware_concurrency();
  if (size_ == 0) size_ = 2;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) const {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::exception_ptr first_exception;
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      // After a failure the remaining indices are drained, not run: the
      // caller is about to rethrow, so partial work past the first
      // exception would be wasted (and possibly unsafe).
      if (failed.load(std::memory_order_acquire)) continue;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_exception) first_exception = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  };
  {
    // A jthread joins when destroyed, so every thread started has finished
    // here, even if starting a later one threw.
    const std::size_t n = std::min(count, size_);
    std::vector<std::jthread> threads;
    threads.reserve(n);
    for (std::size_t t = 0; t < n; ++t) threads.emplace_back(drain);
  }
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace ivc::util
