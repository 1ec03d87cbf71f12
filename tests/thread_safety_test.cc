// Thread-safety coverage for the sharded fleet's concurrency model. The invariant is
// shard-confinement, not locking: each worker thread owns its shard's devices and allocators
// outright between scheduler boundaries, so AllocatorBase's unguarded counters are safe exactly
// because no two threads ever touch the same allocator. These tests drive that model hard — per-shard replay over a WorkerPool, full
// RunCluster calls racing each other — and are the payload of the STALLOC_SANITIZE=thread CI
// job: any cross-thread leak in the shard partitioning shows up as a TSan report here.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/allocators/caching_allocator.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/fleet.h"
#include "src/common/units.h"
#include "src/common/worker_pool.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace.h"

namespace stalloc {
namespace {

Trace MakeChurnTrace(int blocks, uint64_t size) {
  Trace trace;
  for (int i = 0; i < blocks; ++i) {
    MemoryEvent e;
    e.size = size + static_cast<uint64_t>(i % 7) * KiB;  // mixed sizes churn the cache
    e.ts = static_cast<LogicalTime>(i);
    e.te = static_cast<LogicalTime>(i + 3);
    trace.AddEvent(e);
  }
  return trace;
}

// One shard's worth of state, owned by whichever pool thread picks it up.
struct ShardFixture {
  explicit ShardFixture(uint64_t capacity) : device(capacity), alloc(&device) {}
  SimDevice device;
  CachingAllocator alloc;
  Trace trace;
  ReplayEngineResult result;
};

ReplayEngineResult ReplayOn(const Trace& trace, Allocator* alloc) {
  ReplayEngine engine(nullptr);
  ReplaySource src;
  src.trace = &trace;
  src.alloc = alloc;
  engine.AddSource(src);
  return engine.Run();
}

// Replays every shard concurrently over a WorkerPool of `workers` threads.
void ReplayShards(std::vector<std::unique_ptr<ShardFixture>>* shards, size_t workers) {
  WorkerPool pool(workers);
  pool.ParallelFor(shards->size(), [&](size_t s) {
    ShardFixture& shard = *(*shards)[s];
    shard.result = ReplayOn(shard.trace, &shard.alloc);
  });
}

// A shard's stats must equal those of the same trace replayed alone on this thread: any
// cross-shard write would show as a counter off by another shard's traffic.
void ExpectStatsMatchSerialReplay(const ShardFixture& shard, uint64_t capacity, int s) {
  SimDevice device(capacity);
  CachingAllocator alloc(&device);
  const ReplayEngineResult result = ReplayOn(shard.trace, &alloc);
  const AllocatorStats& want = alloc.stats();
  const AllocatorStats& got = shard.alloc.stats();
  EXPECT_EQ(shard.result.oom, result.oom) << s;
  EXPECT_EQ(got.allocated_current, want.allocated_current) << s;
  EXPECT_EQ(got.allocated_peak, want.allocated_peak) << s;
  EXPECT_EQ(got.reserved_peak, want.reserved_peak) << s;
  EXPECT_EQ(got.num_mallocs, want.num_mallocs) << s;
  EXPECT_EQ(got.num_frees, want.num_frees) << s;
  EXPECT_EQ(got.num_oom, want.num_oom) << s;
  EXPECT_EQ(got.live_blocks, want.live_blocks) << s;
  EXPECT_EQ(got.bytes_allocated_total, want.bytes_allocated_total) << s;
  EXPECT_EQ(got.bytes_freed_total, want.bytes_freed_total) << s;
}

// The production access pattern: N shards replayed concurrently over a WorkerPool. Everything
// is shard-local; every stats counter must come out exact.
TEST(ThreadSafety, StatsUnderConcurrentPerShardReplay) {
  constexpr int kShards = 8;
  constexpr int kBlocks = 400;
  constexpr uint64_t kCapacity = 1 * GiB;
  std::vector<std::unique_ptr<ShardFixture>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<ShardFixture>(kCapacity));
    shards.back()->trace = MakeChurnTrace(kBlocks, (1 + s) * MiB);
  }
  ReplayShards(&shards, 4);

  for (int s = 0; s < kShards; ++s) {
    const ShardFixture& shard = *shards[s];
    const AllocatorStats& stats = shard.alloc.stats();
    EXPECT_FALSE(shard.result.oom) << s;
    EXPECT_EQ(stats.num_mallocs, static_cast<uint64_t>(kBlocks)) << s;
    EXPECT_EQ(stats.num_frees, static_cast<uint64_t>(kBlocks)) << s;
    EXPECT_EQ(stats.allocated_current, 0u) << s;
    EXPECT_EQ(stats.bytes_allocated_total, stats.bytes_freed_total) << s;
    ExpectStatsMatchSerialReplay(shard, kCapacity, s);
  }
}

// OOM accounting stays shard-confined too: every shard's allocator is driven into failure
// concurrently and each must count only its own shard's failed mallocs.
TEST(ThreadSafety, OomCountsStayShardConfined) {
  constexpr int kShards = 6;
  constexpr uint64_t kCapacity = 8 * MiB;  // far too small for the trace
  std::vector<std::unique_ptr<ShardFixture>> shards;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<ShardFixture>(kCapacity));
    shards.back()->trace = MakeChurnTrace(64, 1 * MiB);
  }
  ReplayShards(&shards, 3);
  for (int s = 0; s < kShards; ++s) {
    EXPECT_TRUE(shards[s]->result.oom) << s;
    EXPECT_GT(shards[s]->alloc.stats().num_oom, 0u) << s;
    ExpectStatsMatchSerialReplay(*shards[s], kCapacity, s);
  }
}

// WorkerPool reuse: back-to-back ParallelFor batches from one pool must not leak work between
// generations. Each batch's indices are claimed exactly once.
TEST(ThreadSafety, WorkerPoolBatchesAreExactlyOnce) {
  WorkerPool pool(5);
  for (int batch = 0; batch < 20; ++batch) {
    const size_t n = 1 + static_cast<size_t>(batch * 7 % 41);
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "batch " << batch << " index " << i;
    }
  }
}

// Whole sharded-cluster runs racing each other: RunCluster holds no global mutable state, so
// concurrent invocations (each itself multi-threaded) must neither race nor diverge.
TEST(ThreadSafety, ConcurrentRunClusterInvocationsAgree) {
  ClusterWorkloadConfig wl;
  wl.num_jobs = 5;
  wl.train_fraction = 0.5;
  wl.mean_interarrival = 600;
  wl.micro_batches = {1, 2};
  wl.num_microbatches = 2;
  wl.max_pp = 2;
  wl.min_iterations = 1;
  wl.max_iterations = 1;
  wl.serve_requests = 10;
  wl.kv_budget_bytes = 1 * GiB;
  const auto jobs = GenerateClusterWorkload(wl, 31);

  FleetConfig fleet;
  fleet.device_capacities = {16 * GiB, 16 * GiB};
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.allocator = AllocatorKind::kCaching;
  fleet.workers = 2;

  constexpr int kRacers = 4;
  std::vector<std::string> digests(kRacers);
  std::vector<std::thread> racers;
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&, t] { digests[t] = RunCluster(fleet, jobs).Digest(); });
  }
  for (std::thread& t : racers) t.join();
  for (int t = 1; t < kRacers; ++t) {
    EXPECT_EQ(digests[t], digests[0]) << t;
  }
}

}  // namespace
}  // namespace stalloc
