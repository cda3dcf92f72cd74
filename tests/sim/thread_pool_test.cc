#include "src/sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace taichi::sim {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, BarriersBeforeReturning) {
  ThreadPool pool(4);
  // Every fn(i) writes its slot; after ParallelFor returns, all writes must
  // be visible to the caller — that is the epoch-hook contract.
  std::vector<uint64_t> out(512, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  int sum = 0;
  pool.ParallelFor(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ClampsNonPositiveThreadCounts) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool neg(-3);
  EXPECT_EQ(neg.threads(), 1);
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyJobs) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // The fleet calls ParallelFor once per epoch, thousands of times per run;
  // job-generation bookkeeping must not wedge or drop workers.
  ThreadPool pool(3);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(17, [&](size_t i) { total.fetch_add(i + 1); });
  }
  EXPECT_EQ(total.load(), 200u * (17u * 18u / 2u));
}

TEST(ThreadPoolTest, ParallelResultMatchesSerialResult) {
  // The determinism contract in miniature: independent per-index outputs are
  // identical whatever the thread count.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<uint64_t> out(256);
    pool.ParallelFor(out.size(), [&](size_t i) {
      uint64_t x = i + 1;
      for (int k = 0; k < 1000; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      out[i] = x;
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ThreadPoolTest, ShardStripesCoverLargeIndexSpacesExactlyOnce) {
  // n far above the thread count: every stripe owner plus the steal path
  // must together claim each index exactly once, including when n is not a
  // multiple of the thread count.
  ThreadPool pool(5);
  for (size_t n : {4u, 5u, 6u, 97u, 4096u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, StealingDrainsAnUnbalancedJob) {
  // One stripe carries nearly all the work (index 0 is slow, the rest are
  // instant): the other participants must steal through it rather than idle,
  // and the barrier still holds every write.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(hits.size(), [&](size_t i) {
    if (i == 0) {
      volatile uint64_t x = 1;
      for (int k = 0; k < 2000000; ++k) {
        x = x * 6364136223846793005ULL + 1;
      }
    }
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, StripeOwnershipRotatesEveryPeriod) {
  // Each fn(i) waits until both indices have started, so neither
  // participant can steal: each runs exactly the index of the stripe it owns
  // in that call. Index 0 (a fleet's hot node) must run on the caller for
  // kRotatePeriod calls, then on the worker for the next kRotatePeriod.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_by(2);
  std::atomic<int> started{0};
  for (uint64_t call = 0; call < 4 * ThreadPool::kRotatePeriod; ++call) {
    started.store(0);
    pool.ParallelFor(2, [&](size_t i) {
      ran_by[i] = std::this_thread::get_id();
      started.fetch_add(1);
      while (started.load() < 2) {
        std::this_thread::yield();
      }
    });
    const bool caller_owns_stripe0 = call / ThreadPool::kRotatePeriod % 2 == 0;
    ASSERT_EQ(ran_by[0] == caller, caller_owns_stripe0) << "call " << call;
    ASSERT_NE(ran_by[0], ran_by[1]) << "call " << call;
  }
}

TEST(ThreadPoolTest, ParallelForBindsAnyCallableThroughFunctionRef) {
  // ParallelFor takes a FunctionRef: mutable lambdas with captures and plain
  // function objects must both bind without copies or allocation.
  ThreadPool pool(2);
  struct Functor {
    std::atomic<uint64_t>* sum;
    void operator()(size_t i) const { sum->fetch_add(i); }
  };
  std::atomic<uint64_t> sum{0};
  Functor f{&sum};
  pool.ParallelFor(100, f);
  EXPECT_EQ(sum.load(), 4950u);
}

}  // namespace
}  // namespace taichi::sim
