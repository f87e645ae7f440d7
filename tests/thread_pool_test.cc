#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace sdms {
namespace {

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::future<int> f = pool.Submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([]() -> void { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(touched.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A ParallelFor issued from inside a pool task must not deadlock even
  // when every worker is already occupied.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back(pool.Submit([&pool, &total] {
      pool.ParallelFor(100, [&total](size_t begin, size_t end) {
        total.fetch_add(static_cast<int>(end - begin));
      });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining.
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnv) {
  ::setenv("SDMS_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  ::setenv("SDMS_THREADS", "0", 1);  // clamped up to 1
  EXPECT_EQ(DefaultThreadCount(), 1u);
  ::setenv("SDMS_THREADS", "9999", 1);  // clamped down to 64
  EXPECT_EQ(DefaultThreadCount(), 64u);
  ::unsetenv("SDMS_THREADS");
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, DefaultThreadCountClampsNegative) {
  const char* prior = std::getenv("SDMS_THREADS");
  std::string saved = prior == nullptr ? "" : prior;
  ::setenv("SDMS_THREADS", "-4", 1);  // clamped up to 1, not all cores
  EXPECT_EQ(DefaultThreadCount(), 1u);
  if (prior == nullptr) {
    ::unsetenv("SDMS_THREADS");
  } else {
    ::setenv("SDMS_THREADS", saved.c_str(), 1);
  }
}

}  // namespace
}  // namespace sdms
