#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/assert.hpp"

namespace ivc::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 2;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  IVC_ASSERT(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    IVC_ASSERT_MSG(!stop_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared between the spawned tasks; kept alive past this frame by the
  // shared_ptr captures (wait_idle normally outlives the tasks, but a
  // throwing body must not leave dangling captures behind).
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::exception_ptr first_exception;
  };
  auto state = std::make_shared<State>();
  const std::size_t tasks = std::min(count, workers_.size());
  for (std::size_t t = 0; t < tasks; ++t) {
    submit([state, count, &body] {
      for (;;) {
        const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        // After a failure the remaining indices are drained, not run: the
        // caller is about to rethrow, so partial work past the first
        // exception would be wasted (and possibly unsafe).
        if (state->failed.load(std::memory_order_acquire)) continue;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->first_exception) state->first_exception = std::current_exception();
          state->failed.store(true, std::memory_order_release);
        }
      }
    });
  }
  wait_idle();
  if (state->first_exception) std::rethrow_exception(state->first_exception);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace ivc::util
