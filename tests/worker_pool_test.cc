// Coverage for src/common/worker_pool.*: the fixed pool under the sharded fleet's windowed
// ParallelFor. The contract: every index in [0, n) runs exactly once per batch, the call
// returns only after all n finished, workers <= 1 degrades to a plain inline loop (the serial
// fleet path), and one pool survives many batches of different sizes back to back.

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/worker_pool.h"

namespace stalloc {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(WorkerPool, SerialPoolRunsInlineOnTheCallingThread) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.workers(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  pool.ParallelFor(ran.size(), [&](size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ran) {
    EXPECT_EQ(id, caller);
  }
}

TEST(WorkerPool, ReturnsOnlyAfterAllWorkFinished) {
  WorkerPool pool(4);
  std::atomic<int> done{0};
  pool.ParallelFor(64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);  // the barrier: nothing still in flight after return
}

TEST(WorkerPool, SurvivesManyBatchesOfVaryingSize) {
  WorkerPool pool(3);
  uint64_t expected = 0;
  std::atomic<uint64_t> total{0};
  for (size_t n : {1u, 7u, 0u, 100u, 2u, 33u}) {
    pool.ParallelFor(n, [&](size_t i) { total.fetch_add(i + 1); });
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(WorkerPool, SingleItemBatchSkipsTheThreadMachinery) {
  WorkerPool pool(8);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran;
  pool.ParallelFor(1, [&](size_t) { ran = std::this_thread::get_id(); });
  EXPECT_EQ(ran, caller);  // n == 1 runs inline regardless of pool size
}

// Back-to-back batches smaller than the pool leave threads idle, and an idle thread may wake
// only after its batch already finished. It must then sit the batch out: joining late would
// read the next batch's index counter with this batch's (by then dead) function, or a null
// one. Two distinct function objects alternate so a cross-batch call lands in the wrong array.
TEST(WorkerPool, LateWakersNeverRunAFinishedBatch) {
  WorkerPool pool(4);
  std::vector<std::atomic<int>> a(4);
  std::vector<std::atomic<int>> b(4);
  for (int batch = 0; batch < 50000; ++batch) {
    const size_t n = 2 + static_cast<size_t>(batch % 3);
    std::vector<std::atomic<int>>& hits = batch % 2 == 0 ? a : b;
    for (auto& h : hits) h.store(0);
    if (batch % 2 == 0) {
      const std::function<void(size_t)> fn = [&a](size_t i) { a[i].fetch_add(1); };
      pool.ParallelFor(n, fn);
    } else {
      pool.ParallelFor(n, [&b](size_t i) { b[i].fetch_add(1); });
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
    }
  }
}

}  // namespace
}  // namespace stalloc
