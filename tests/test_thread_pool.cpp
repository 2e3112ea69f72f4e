// Unit tests for ThreadPool: chunked bulk execution, exception transport,
// serial degradation at width 1, and lost-wakeup stress under a watchdog.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace bbng {
namespace {

TEST(ThreadPool, WidthDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.width(), 1U);
}

TEST(ThreadPool, SerialPoolRunsEverything) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.run_chunked(100, 7, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelPoolCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_chunked(1000, 13, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.run_chunked(0, 1, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ZeroGrainRejected) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.run_chunked(10, 0, [](std::uint64_t, std::uint64_t) {}),
               std::invalid_argument);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.run_chunked(100, 1,
                                [](std::uint64_t b, std::uint64_t) {
                                  if (b == 42) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAcrossManyBulks) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.run_chunked(64, 8, [&](std::uint64_t b, std::uint64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 64U * 50U);
}

/// Run `body` on a helper thread and fail if it has not returned within
/// `deadline`. A parked pool cannot be unwound, so on expiry the process
/// exits at once: the test fails fast instead of hanging the suite.
void run_with_watchdog(std::chrono::seconds deadline, const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(deadline) != std::future_status::ready) {
    std::fprintf(stderr, "thread pool watchdog: body still running after %llds (lost wakeup)\n",
                 static_cast<long long>(deadline.count()));
    std::_Exit(1);
  }
  runner.join();
}

// Each bulk is as small as the parallel path allows (one chunk per lane),
// so the submitter usually finishes its own chunk while a worker is still
// deregistering: the window in which an unlocked decrement-and-notify lost
// the submitter's wakeup and parked it forever.
TEST(ThreadPoolStress, TinyBulksNeverLoseAWakeup) {
  for (const unsigned width : {2U, 3U, 4U}) {
    run_with_watchdog(std::chrono::seconds(60), [width] {
      ThreadPool pool(width);
      std::atomic<std::uint64_t> total{0};
      constexpr int kBulks = 20000;
      for (int round = 0; round < kBulks; ++round) {
        pool.run_chunked(width, 1, [&](std::uint64_t b, std::uint64_t e) {
          total.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
      EXPECT_EQ(total.load(), std::uint64_t{width} * kBulks) << "width " << width;
    });
  }
}

TEST(ThreadPoolStress, ShortLivedPoolsShutDownCleanly) {
  // Construction, a few bulks and destruction in a loop: the stop flag and
  // the last bulk's completion race the same wakeups.
  run_with_watchdog(std::chrono::seconds(60), [] {
    std::uint64_t total = 0;
    for (int round = 0; round < 2000; ++round) {
      ThreadPool pool(2 + round % 3);
      std::atomic<std::uint64_t> sum{0};
      for (int bulk = 0; bulk < 4; ++bulk) {
        pool.run_chunked(3, 1, [&](std::uint64_t b, std::uint64_t e) {
          sum.fetch_add(e - b, std::memory_order_relaxed);
        });
      }
      total += sum.load();
    }
    EXPECT_EQ(total, 2000U * 4U * 3U);
  });
}

/// One bulk over [0, count) that checks every index was run exactly once.
/// Each chunk yields, so woken workers get to take chunks of it.
void expect_bulk_covers_once(ThreadPool& pool, std::uint64_t count, std::uint64_t grain) {
  std::vector<std::atomic<int>> hits(count);
  pool.run_chunked(count, grain, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  });
  for (std::uint64_t i = 0; i < count; ++i) ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolStress, ConcurrentSubmittersShareOnePool) {
  // Two and three threads submit bulks to one pool at once. Each submitter
  // clears the active bulk only while it is still its own, so a finishing
  // bulk never hides a newer one; every bulk must cover its range once.
  for (const unsigned submitters : {2U, 3U}) {
    run_with_watchdog(std::chrono::seconds(60), [submitters] {
      ThreadPool pool(3);
      std::vector<std::thread> threads;
      for (unsigned s = 0; s < submitters; ++s) {
        threads.emplace_back([&pool, s] {
          for (int round = 0; round < 2000; ++round) {
            expect_bulk_covers_once(pool, 8 + (round + s) % 24, 1 + (round + s) % 3);
          }
        });
      }
      for (auto& thread : threads) thread.join();
    });
  }
}

TEST(ThreadPoolStress, NestedSubmissionFromABody) {
  // A body submits its own bulk to the pool that runs it: the inner bulk
  // takes over the workers, the outer submitter finishes its own bulk, and
  // both cover their ranges once.
  run_with_watchdog(std::chrono::seconds(60), [] {
    ThreadPool pool(3);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::atomic<int>> outer(12);
      std::atomic<int> inner_failures{0};
      pool.run_chunked(outer.size(), 1, [&](std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) {
          outer[i].fetch_add(1, std::memory_order_relaxed);
          std::vector<std::atomic<int>> inner(16);
          pool.run_chunked(inner.size(), 2, [&](std::uint64_t ib, std::uint64_t ie) {
            for (std::uint64_t k = ib; k < ie; ++k) inner[k].fetch_add(1);
            std::this_thread::yield();
          });
          for (const auto& h : inner) {
            if (h.load() != 1) inner_failures.fetch_add(1);
          }
        }
      });
      for (const auto& h : outer) ASSERT_EQ(h.load(), 1) << "round " << round;
      ASSERT_EQ(inner_failures.load(), 0) << "round " << round;
    }
  });
}

TEST(ParallelFor, SumOfIndices) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> values(5000, 0);
  parallel_for(pool, values.size(), [&](std::uint64_t i) { values[i] = i; });
  const std::uint64_t sum = std::accumulate(values.begin(), values.end(), 0ULL);
  EXPECT_EQ(sum, 5000ULL * 4999 / 2);
}

TEST(ParallelFor, SharedPoolOverload) {
  std::vector<std::atomic<int>> hits(256);
  parallel_for(hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::uint64_t n = 10000;
  const auto sum = parallel_reduce<std::uint64_t>(
      pool, n, 0ULL, [](std::uint64_t i) { return i; },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(2);
  std::vector<std::uint64_t> data(777);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = (i * 37) % 1000;
  const auto max_val = parallel_reduce<std::uint64_t>(
      pool, data.size(), 0ULL, [&](std::uint64_t i) { return data[i]; },
      [](std::uint64_t a, std::uint64_t b) { return a > b ? a : b; });
  EXPECT_EQ(max_val, *std::max_element(data.begin(), data.end()));
}

TEST(PickGrain, NeverBelowMinimum) {
  EXPECT_GE(pick_grain(10, 4, 8), 8U);
  EXPECT_GE(pick_grain(1000000, 4, 1), 1U);
}

TEST(PickGrain, CoversCountWithChunks) {
  const std::uint64_t grain = pick_grain(100, 4);
  EXPECT_GT(grain, 0U);
  EXPECT_LE(grain, 100U);
}

}  // namespace
}  // namespace bbng
