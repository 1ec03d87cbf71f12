// Coverage for the accounting every allocator shares through AllocatorBase
// (src/allocators/allocator.h): the built-in AllocatorStats counters (bytes moved, live
// blocks, OOMs), the efficiency figures derived from them, and the request-size ceiling that
// refuses oversized mallocs before any allocator's policy sees them.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/allocators/caching_allocator.h"
#include "src/allocators/native_allocator.h"
#include "src/allocators/registry.h"
#include "src/common/units.h"
#include "src/core/profiler.h"
#include "src/driver/experiment.h"
#include "src/gpu/sim_device.h"
#include "src/trace/synthetic.h"

namespace stalloc {
namespace {

TEST(AllocatorStats, BytesMovedAccumulate) {
  SimDevice dev(1 * GiB);
  NativeAllocator alloc(&dev);
  auto a = alloc.Malloc(10 * MiB);
  auto b = alloc.Malloc(6 * MiB);
  ASSERT_TRUE(a.has_value() && b.has_value());
  alloc.Free(*a);

  const AllocatorStats& s = alloc.stats();
  EXPECT_EQ(s.bytes_allocated_total, 16 * MiB);
  EXPECT_EQ(s.bytes_freed_total, 10 * MiB);
  EXPECT_EQ(s.allocated_current, 6 * MiB);
  EXPECT_EQ(s.live_blocks, 1u);
}

TEST(AllocatorStats, CountersTrackEveryOp) {
  SimDevice dev(1 * GiB);
  CachingAllocator alloc(&dev);
  auto a = alloc.Malloc(8 * MiB);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(alloc.stats().allocated_current, 8 * MiB);
  auto b = alloc.Malloc(3 * MiB);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(alloc.stats().allocated_current, 11 * MiB);
  EXPECT_GE(alloc.ReservedBytes(), alloc.stats().allocated_current);
  ASSERT_TRUE(alloc.Free(*a));
  EXPECT_EQ(alloc.stats().allocated_current, 3 * MiB);
  ASSERT_TRUE(alloc.Free(*b));
  EXPECT_FALSE(alloc.Free(*b));  // unknown address: not counted as a free

  const AllocatorStats& s = alloc.stats();
  EXPECT_EQ(s.allocated_current, 0u);
  EXPECT_EQ(s.allocated_peak, 11 * MiB);
  EXPECT_EQ(s.num_mallocs, 2u);
  EXPECT_EQ(s.num_frees, 2u);
  EXPECT_EQ(s.live_blocks, 0u);
  EXPECT_GE(s.reserved_peak, s.allocated_peak);
}

TEST(AllocatorStats, FailedMallocCountsAnOom) {
  SimDevice dev(16 * MiB);
  NativeAllocator alloc(&dev);
  EXPECT_FALSE(alloc.Malloc(64 * MiB).has_value());
  EXPECT_EQ(alloc.stats().num_oom, 1u);
  EXPECT_EQ(alloc.stats().num_mallocs, 1u);
  EXPECT_EQ(alloc.stats().allocated_current, 0u);

  auto a = alloc.Malloc(1 * MiB);
  ASSERT_TRUE(a.has_value());
  alloc.Free(*a);
  EXPECT_EQ(alloc.stats().num_oom, 1u);
}

TEST(AllocatorStats, EfficiencyAndFragmentationDeriveFromPeaks) {
  AllocatorStats s;
  s.allocated_peak = 3 * GiB;
  s.reserved_peak = 4 * GiB;
  EXPECT_DOUBLE_EQ(s.MemoryEfficiency(), 0.75);
  EXPECT_DOUBLE_EQ(s.FragmentationRatio(), 0.25);
  EXPECT_EQ(s.FragmentationBytes(), 1 * GiB);
  AllocatorStats empty;
  EXPECT_DOUBLE_EQ(empty.MemoryEfficiency(), 1.0);
  EXPECT_EQ(empty.FragmentationBytes(), 0u);
}

// Every registered kind, the plan-driven STAlloc kinds included (built from a small profiled
// trace), refuses sizes its round-up arithmetic could wrap, and a request right at the ceiling
// reaches the policy and fails there as an ordinary capacity OOM: each one is a counted OOM
// that leaves the ledger untouched, and the allocator keeps serving afterwards.
TEST(AllocatorStats, OversizedRequestsAreRefusedByEveryKind) {
  constexpr uint64_t kCapacity = 4 * GiB;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const Trace trace = BuildSyntheticTrace(SyntheticSpec{SyntheticMix::kTraining, 2000, 3});
  for (const AllocatorRegistry::Entry& entry : AllocatorRegistry::Global().entries()) {
    SimDevice dev(kCapacity);
    std::unique_ptr<Allocator> alloc;
    if (entry.requires_plan) {
      ExperimentResult unused;
      alloc = MakeSTAllocFromProfile(ProfileTrace(trace, kCapacity), entry.kind, &dev, &unused);
    } else {
      alloc = AllocatorRegistry::Global().Create(entry.name, &dev);
    }
    ASSERT_NE(alloc, nullptr) << entry.name;

    auto warm = alloc->Malloc(1 * MiB);
    ASSERT_TRUE(warm.has_value()) << entry.name;
    const uint64_t allocated = alloc->stats().allocated_current;
    for (uint64_t size : {kMax, kMax - 511, kMaxRequestBytes + 1, kMaxRequestBytes}) {
      const uint64_t ooms = alloc->stats().num_oom;
      EXPECT_FALSE(alloc->Malloc(size).has_value()) << entry.name << " size " << size;
      EXPECT_EQ(alloc->stats().num_oom, ooms + 1) << entry.name << " size " << size;
      EXPECT_EQ(alloc->stats().allocated_current, allocated) << entry.name << " size " << size;
    }
    auto after = alloc->Malloc(2 * MiB);
    ASSERT_TRUE(after.has_value()) << entry.name;
    EXPECT_EQ(alloc->stats().allocated_current, allocated + 2 * MiB) << entry.name;
    EXPECT_TRUE(alloc->Free(*after)) << entry.name;
    EXPECT_TRUE(alloc->Free(*warm)) << entry.name;
  }
}

}  // namespace
}  // namespace stalloc
