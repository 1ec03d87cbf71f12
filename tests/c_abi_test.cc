// The stalloc_c shared-library boundary (src/cabi): every behavior an external (PyTorch
// pluggable-allocator-style) client depends on, exercised through the exported C functions —
// round-trips, error returns instead of aborts, valid stats JSON, and replay digests that are
// bit-identical to the in-process path.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/report.h"
#include "src/allocators/registry.h"
#include "src/cabi/stalloc_c.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_io.h"

namespace stalloc {
namespace {

TEST(CAbi, MallocFreeRoundTrip) {
  stalloc_handle* h = stalloc_create("vmm", 1 * GiB, "vmm.granularity=2MiB");
  ASSERT_NE(h, nullptr) << stalloc_last_error();
  const uint64_t a = stalloc_malloc(h, 64 * MiB, 0);
  const uint64_t b = stalloc_malloc(h, 300, 0);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(stalloc_free(h, a), 0);
  EXPECT_EQ(stalloc_free(h, b), 0);
  stalloc_destroy(h);
}

TEST(CAbi, CreateRejectsBadArguments) {
  EXPECT_EQ(stalloc_create("no-such-allocator", 1 * GiB, nullptr), nullptr);
  EXPECT_NE(std::string(stalloc_last_error()), "");
  EXPECT_EQ(stalloc_create("vmm", 0, nullptr), nullptr);
  // Plan-requiring kinds cannot run behind the plan-less C boundary.
  EXPECT_EQ(stalloc_create("stalloc", 1 * GiB, nullptr), nullptr);
  // Malformed option strings fail at create, not at first malloc.
  EXPECT_EQ(stalloc_create("vmm", 1 * GiB, "vmm.granularity=512KB"), nullptr);
  EXPECT_EQ(stalloc_create("vmm", 1 * GiB, "vmm.granularity=3MiB"), nullptr);
}

TEST(CAbi, DoubleFreeReturnsErrorNotAbort) {
  stalloc_handle* h = stalloc_create("torch-caching", 1 * GiB, nullptr);
  ASSERT_NE(h, nullptr);
  const uint64_t a = stalloc_malloc(h, 1 * MiB, 0);
  ASSERT_NE(a, 0u);
  EXPECT_EQ(stalloc_free(h, a), 0);
  EXPECT_EQ(stalloc_free(h, a), -1) << "second free of the same address must be an error";
  EXPECT_NE(std::string(stalloc_last_error()), "");
  EXPECT_EQ(stalloc_free(h, 0xdeadbeef), -1);
  stalloc_destroy(h);
}

TEST(CAbi, OomReturnsZeroAndSetsError) {
  stalloc_handle* h = stalloc_create("native", 64 * MiB, nullptr);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(stalloc_malloc(h, 1 * GiB, 0), 0u);
  EXPECT_NE(std::string(stalloc_last_error()), "");
  stalloc_destroy(h);
}

// A size no device can hold — one whose round-up would wrap 64 bits — is an ordinary OOM
// across the boundary, for every kind a client can create, and the handle stays usable.
TEST(CAbi, MaxSizeMallocReturnsZeroAndSetsError) {
  for (const std::string& name : AllocatorRegistry::Global().Names(false)) {
    stalloc_handle* h = stalloc_create(name.c_str(), 1 * GiB, nullptr);
    ASSERT_NE(h, nullptr) << name << ": " << stalloc_last_error();
    EXPECT_EQ(stalloc_free(h, 0xdeadbeef), -1);  // leaves an unrelated error behind
    EXPECT_EQ(stalloc_malloc(h, UINT64_MAX, 0), 0u) << name;
    EXPECT_EQ(std::string(stalloc_last_error()), "stalloc_malloc: out of memory") << name;
    const uint64_t a = stalloc_malloc(h, 1 * MiB, 0);
    EXPECT_NE(a, 0u) << name;
    EXPECT_EQ(stalloc_free(h, a), 0) << name;
    stalloc_destroy(h);
  }
}

TEST(CAbi, StatsJsonIsValidAndSizeQueryable) {
  stalloc_handle* h = stalloc_create("vmm", 1 * GiB, nullptr);
  ASSERT_NE(h, nullptr);
  const uint64_t a = stalloc_malloc(h, 32 * MiB, 0);
  ASSERT_NE(a, 0u);

  const size_t needed = stalloc_stats_json(h, nullptr, 0);  // size query
  ASSERT_GT(needed, 0u);
  std::vector<char> buf(needed + 1);
  ASSERT_EQ(stalloc_stats_json(h, buf.data(), buf.size()), needed);

  std::string error;
  std::optional<Json> doc = Json::Parse(std::string(buf.data()), &error);
  ASSERT_TRUE(doc.has_value()) << "stats must be parseable JSON: " << error;
  EXPECT_EQ(doc->Find("allocator")->AsString(), "vmm");
  EXPECT_EQ(doc->Find("capacity_bytes")->AsUint(), 1 * GiB);
  EXPECT_EQ(doc->Find("allocated_current")->AsUint(), 32 * MiB);
  EXPECT_EQ(doc->Find("num_mallocs")->AsUint(), 1u);
  EXPECT_GE(doc->Find("reserved_current")->AsUint(), 32 * MiB);

  // A too-small buffer still reports the needed length and never overruns.
  char tiny[8];
  EXPECT_EQ(stalloc_stats_json(h, tiny, sizeof(tiny)), needed);
  EXPECT_EQ(stalloc_free(h, a), 0);
  stalloc_destroy(h);
}

// The acceptance bar for the C boundary: replaying a trace through the exported digest helper
// is bit-identical to the in-process replay path, for a VMM and a caching allocator.
TEST(CAbi, ReplayDigestMatchesInProcess) {
  const Trace trace = BuildStormTrace(3000, 11);
  const std::string path = ::testing::TempDir() + "/c_abi_digest.csv";
  ASSERT_TRUE(WriteTraceCsvFile(trace, path));
  const uint64_t capacity = 64 * GiB;

  for (const char* name : {"vmm", "torch-caching"}) {
    SimDevice device(capacity);
    std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(name, &device);
    PlacementDigestObserver in_process;
    ReplayTrace(trace, alloc.get(), &in_process);

    uint64_t c_digest = 0;
    ASSERT_EQ(stalloc_replay_digest(path.c_str(), name, capacity, nullptr, &c_digest), 0)
        << name << ": " << stalloc_last_error();
    EXPECT_EQ(c_digest, in_process.digest()) << name << " diverged across the C boundary";
  }
  std::remove(path.c_str());
}

// Options strings must change behavior, not just parse: a 64 KiB granularity tracks the same
// workload with a tighter reserved footprint than 2 MiB pages.
TEST(CAbi, GranularityOptionChangesFootprint) {
  auto reserved_peak = [](const char* options) {
    stalloc_handle* h = stalloc_create("vmm", 1 * GiB, options);
    EXPECT_NE(h, nullptr) << stalloc_last_error();
    const uint64_t a = stalloc_malloc(h, 3 * MiB + 512 * KiB, 0);
    EXPECT_NE(a, 0u);
    const size_t needed = stalloc_stats_json(h, nullptr, 0);
    std::vector<char> buf(needed + 1);
    stalloc_stats_json(h, buf.data(), buf.size());
    std::optional<Json> doc = Json::Parse(std::string(buf.data()));
    EXPECT_TRUE(doc.has_value());
    const uint64_t peak = doc->Find("reserved_peak")->AsUint();
    stalloc_destroy(h);
    return peak;
  };
  EXPECT_LT(reserved_peak("vmm.granularity=64KiB"), reserved_peak("vmm.granularity=2MiB"));
}

}  // namespace
}  // namespace stalloc
