// WorkerPool determinism contract: results are a pure function of the
// inputs — any pool size, including the inline (<=1) path, produces the
// same output vector — and every index runs exactly once. Chaos-labeled so
// the SANITIZE=thread build vets the synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

#include "util/worker_pool.h"

namespace nwade::util {
namespace {

TEST(WorkerPool, InlineModeSpawnsNoThreads) {
  WorkerPool pool0(0);
  WorkerPool pool1(1);
  EXPECT_EQ(pool0.thread_count(), 0);
  EXPECT_EQ(pool1.thread_count(), 0);
}

TEST(WorkerPool, NestedThreadBudgetKeepsOneLevelOfParallelism) {
  // Oversubscription policy (worker_pool.h): a parallel outer loop forces
  // every inner pool inline — an 8-shard grid over 4-thread worlds runs 8
  // workers, not 32. Only a serial outer loop passes the inner budget
  // through.
  EXPECT_EQ(nested_thread_budget(8, 4), 1);
  EXPECT_EQ(nested_thread_budget(2, 16), 1);
  EXPECT_EQ(nested_thread_budget(1, 4), 4);
  EXPECT_EQ(nested_thread_budget(0, 4), 4);
  // An inline inner pool stays inline either way.
  EXPECT_EQ(nested_thread_budget(8, 1), 1);
  EXPECT_EQ(nested_thread_budget(1, 1), 1);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {0, 1, 2, 4}) {
    WorkerPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    pool.for_each(kCount, [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(WorkerPool, MapMergesInFixedOrderForAnyPoolSize) {
  const auto job = [](std::size_t i) {
    // Unequal per-index cost, so completion order scrambles under threads.
    std::uint64_t acc = i;
    for (std::size_t k = 0; k < (i % 7) * 1000; ++k) acc = acc * 6364136223846793005ULL + 1;
    return acc;
  };
  WorkerPool inline_pool(1);
  const auto expected = inline_pool.map<std::uint64_t>(500, job);
  for (const int threads : {2, 3, 4, 8}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.map<std::uint64_t>(500, job), expected)
        << "pool size " << threads << " diverged from inline";
  }
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const auto out = pool.map<std::uint64_t>(
        64, [round](std::size_t i) { return static_cast<std::uint64_t>(round) * 64 + i; });
    std::uint64_t sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
    const std::uint64_t n = 64;
    const std::uint64_t base = static_cast<std::uint64_t>(round) * 64;
    EXPECT_EQ(sum, n * base + n * (n - 1) / 2);
  }
}

TEST(WorkerPool, BackToBackJobsNeverRunAStaleTask) {
  // Regression: a worker that took a job but was descheduled before its
  // first claim could wake into the caller's *next* job and claim indices
  // with the old count and a returned task — hanging for_each or running the
  // stale task. Short back-to-back jobs keep that window open; every slot is
  // tagged with its job number and checked after every call. A wall-clock
  // budget per pool keeps sanitized builds bounded; the ctest timeout turns
  // a hang into a failure.
  constexpr std::size_t kSizes[] = {3, 2, 9, 1, 5, 2, 7, 4};
  constexpr auto kBudget = std::chrono::milliseconds(1500);
  for (const int threads : {4, 8}) {
    WorkerPool pool(threads);
    std::vector<std::uint64_t> slots(9, 0);
    const auto deadline = std::chrono::steady_clock::now() + kBudget;
    std::uint64_t job = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (int burst = 0; burst < 256; ++burst) {
        ++job;
        const std::size_t n = kSizes[job % 8];
        pool.parallel_for(n, 1, [&slots, job](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) slots[i] = job;
        });
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(slots[i], job)
              << "slot " << i << " after job " << job << ", threads " << threads;
        }
      }
    }
  }
}

TEST(WorkerPool, EmptyJobReturnsImmediately) {
  WorkerPool pool(4);
  bool ran = false;
  pool.for_each(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(WorkerPool, ParallelForChunkBoundariesIgnoreThreadCount) {
  // The chunk set must be a pure function of (count, chunk_size): every pool
  // size visits exactly the same [begin, end) ranges, each exactly once.
  const std::size_t counts[] = {0, 1, 63, 64, 65, 129, 1000};
  const std::size_t chunk_sizes[] = {1, 16, 64, 1024};
  for (const std::size_t count : counts) {
    for (const std::size_t chunk : chunk_sizes) {
      std::vector<std::pair<std::size_t, std::size_t>> expected;
      WorkerPool inline_pool(1);
      inline_pool.parallel_for(count, chunk, [&](std::size_t b, std::size_t e) {
        expected.emplace_back(b, e);
      });
      for (const int threads : {2, 4, 8}) {
        WorkerPool pool(threads);
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::size_t>> got;
        pool.parallel_for(count, chunk, [&](std::size_t b, std::size_t e) {
          std::lock_guard<std::mutex> lock(mu);
          got.emplace_back(b, e);
        });
        std::sort(got.begin(), got.end());  // completion order scrambles
        ASSERT_EQ(got, expected) << "count=" << count << " chunk=" << chunk
                                 << " threads=" << threads;
      }
    }
  }
}

TEST(WorkerPool, ParallelForPartialMergeIsBitIdenticalAcrossPoolSizes) {
  // Per-chunk float partials merged in chunk order: float addition is
  // order-sensitive, so bit equality across pool sizes proves both the
  // boundaries and the merge order are thread-count independent.
  constexpr std::size_t kCount = 777;
  constexpr std::size_t kChunk = 64;
  const auto value = [](std::size_t i) {
    return 1.0 / (static_cast<double>(i) + 0.3);
  };
  const auto run = [&](int threads) {
    WorkerPool pool(threads);
    const std::size_t chunks = (kCount + kChunk - 1) / kChunk;
    std::vector<double> partials(chunks, 0.0);
    pool.parallel_for(kCount, kChunk, [&](std::size_t b, std::size_t e) {
      double acc = 0;
      for (std::size_t i = b; i < e; ++i) acc += value(i);
      partials[b / kChunk] = acc;
    });
    double total = 0;
    for (const double p : partials) total += p;
    return total;
  };
  const double expected = run(1);
  for (const int threads : {2, 4, 8}) {
    const double got = run(threads);
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
        << "pool size " << threads << ": " << got << " vs " << expected;
  }
}

}  // namespace
}  // namespace nwade::util
