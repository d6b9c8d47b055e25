// Thread pool behaviour: parallel_for coverage, reuse and exception
// propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace ivc::util {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.parallel_for(3, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelWorkActuallyParallel) {
  // With 2+ workers, tasks that block on each other's side effects would
  // deadlock a serial executor; here we just assert both workers make
  // progress on a large dynamic workload.
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 10000u * 9999u / 2);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("worker failure");
                        }),
      std::runtime_error);
  // The pool survives a failed batch and keeps running new work.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace ivc::util
