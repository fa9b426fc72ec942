#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fdevolve {
namespace {

TEST(ResolveThreadsTest, ZeroAndNegativeMeanAuto) {
  EXPECT_GE(util::ResolveThreads(0), 1);
  EXPECT_GE(util::ResolveThreads(-3), 1);
  EXPECT_EQ(util::ResolveThreads(1), 1);
  EXPECT_EQ(util::ResolveThreads(7), 7);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  util::ThreadPool pool;
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, 8, [&](int, size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Runs n items at `threads` and checks that every item index is below n
// and runs once, and that every slot is below min(threads, n) and held by
// one executor at a time, so slot-indexed scratch is never shared.
void ExpectItemsOnceAndSlotsBelowWidth(util::ThreadPool& pool, size_t n,
                                       int threads) {
  const int width = std::min(threads, static_cast<int>(n));
  std::vector<std::atomic<bool>> busy(static_cast<size_t>(width));
  for (auto& b : busy) b.store(false);
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(n, threads, [&](int slot, size_t i) {
    ASSERT_LT(i, n) << "threads=" << threads;
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, width) << "n=" << n << " threads=" << threads;
    EXPECT_FALSE(busy[static_cast<size_t>(slot)].exchange(true))
        << "slot " << slot << " held by two executors";
    hits[i].fetch_add(1);
    busy[static_cast<size_t>(slot)].store(false);
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
  }
}

TEST(ThreadPoolTest, SlotsStayBelowWidth) {
  // More items than threads, and fewer items than threads.
  util::ThreadPool pool;
  ExpectItemsOnceAndSlotsBelowWidth(pool, 103, 4);
  ExpectItemsOnceAndSlotsBelowWidth(pool, 3, 8);
}

TEST(ThreadPoolTest, NoItemPastRangeWhenWidthDoesNotDivideIt) {
  // 5 items at width 4 and 7 at width 3: the executors that find the
  // cursor past the last item claim nothing.
  util::ThreadPool pool;
  ExpectItemsOnceAndSlotsBelowWidth(pool, 5, 4);
  ExpectItemsOnceAndSlotsBelowWidth(pool, 7, 3);
}

TEST(ThreadPoolTest, ItemCountCapsWidth) {
  // Three items at 8 threads: the caller and two workers, no more.
  util::ThreadPool pool;
  std::atomic<int> max_slot{-1};
  pool.ParallelFor(3, 8, [&](int slot, size_t) {
    int cur = max_slot.load();
    while (slot > cur && !max_slot.compare_exchange_weak(cur, slot)) {
    }
  });
  EXPECT_LT(max_slot.load(), 3);
  EXPECT_EQ(pool.worker_count(), 2);
}

TEST(ThreadPoolTest, GrownPoolAdmitsOnlyWidthExecutors) {
  // An 8-wide job grows the pool to seven workers; a later 2-wide job
  // must still run on two executors, whatever wakes up.
  util::ThreadPool pool;
  pool.ParallelFor(8, 8, [](int, size_t) {});
  ASSERT_EQ(pool.worker_count(), 7);
  std::mutex mu;
  std::set<std::thread::id> executors;
  pool.ParallelFor(32, 2, [&](int slot, size_t) {
    EXPECT_LT(slot, 2);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    std::lock_guard<std::mutex> lock(mu);
    executors.insert(std::this_thread::get_id());
  });
  EXPECT_LE(executors.size(), 2u);
}

TEST(ThreadPoolTest, SlowItemDoesNotHoldBackTheOthers) {
  // Item 0 returns only once the other seven have finished. Claimed one
  // at a time, the second executor takes items 1-7 while item 0 waits;
  // contiguous chunks of four would queue items 1-3 behind item 0 on its
  // own executor, and the wait would time out.
  util::ThreadPool pool;
  std::mutex mu;
  std::condition_variable cv;
  int others_done = 0;
  bool timed_out = false;
  pool.ParallelFor(8, 2, [&](int, size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      timed_out = !cv.wait_for(lock, std::chrono::seconds(10),
                               [&] { return others_done == 7; });
      return;
    }
    ++others_done;
    cv.notify_all();
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(others_done, 7);
}

TEST(ThreadPoolTest, WidthOneRunsInline) {
  util::ThreadPool pool;
  const auto caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(50, 1, [&](int slot, size_t i) {
    EXPECT_EQ(slot, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<size_t> expected(50);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
  EXPECT_EQ(pool.worker_count(), 0);  // no workers spawned for inline runs
}

TEST(ThreadPoolTest, EmptyRangeDoesNothing) {
  util::ThreadPool pool;
  bool called = false;
  pool.ParallelFor(0, 8, [&](int, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SumReductionMatchesSequential) {
  // A per-slot += reduction: each slot's partial belongs to one executor
  // for the whole call.
  util::ThreadPool pool;
  const size_t n = 100000;
  std::vector<uint64_t> partial(8, 0);
  pool.ParallelFor(n, 8, [&](int slot, size_t i) {
    partial[static_cast<size_t>(slot)] += i;
  });
  const uint64_t total = std::accumulate(partial.begin(), partial.end(),
                                         uint64_t{0});
  EXPECT_EQ(total, uint64_t{n} * (n - 1) / 2);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  // At every width, including the inline one, a throwing item is rethrown
  // only after every other item has run.
  util::ThreadPool pool;
  for (int threads : {4, 1}) {
    std::atomic<int> completed{0};
    auto run = [&] {
      pool.ParallelFor(100, threads, [&](int, size_t i) {
        if (i == 2) throw std::invalid_argument("item 2 failed");
        completed.fetch_add(1);
      });
    };
    EXPECT_THROW(run(), std::invalid_argument) << "threads=" << threads;
    EXPECT_EQ(completed.load(), 99) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  util::ThreadPool pool;
  std::atomic<int> inner_items{0};
  pool.ParallelFor(16, 4, [&](int, size_t) {
    // Nested call from inside a pool task: must not deadlock, must still
    // run every item — inline, as one pass in item order on this thread.
    const auto self = std::this_thread::get_id();
    size_t next = 0;
    pool.ParallelFor(5, 4, [&](int slot, size_t i) {
      EXPECT_EQ(slot, 0);
      EXPECT_EQ(i, next++);
      EXPECT_EQ(std::this_thread::get_id(), self);
      inner_items.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_items.load(), 16 * 5);
}

TEST(ThreadPoolTest, PoolGrowsOnDemandAndIsReusable) {
  util::ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), 0);
  pool.ParallelFor(100, 3, [](int, size_t) {});
  EXPECT_EQ(pool.worker_count(), 2);  // width 3 = caller + 2 workers
  pool.ParallelFor(100, 6, [](int, size_t) {});
  EXPECT_EQ(pool.worker_count(), 5);
  // Narrower follow-up jobs reuse the grown pool without shrinking.
  pool.ParallelFor(100, 2, [](int, size_t) {});
  EXPECT_EQ(pool.worker_count(), 5);
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  // Exercises the job generation/wakeup protocol more than the math.
  util::ThreadPool pool;
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(64, 4, [&](int, size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), uint64_t{64} * 65 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, GlobalPoolIsASingleton) {
  EXPECT_EQ(&util::ThreadPool::Global(), &util::ThreadPool::Global());
}

}  // namespace
}  // namespace fdevolve
