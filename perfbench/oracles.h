// Reference oracles the benchmark checks the simulator against. They are written from the
// definitions alone and share no code with src/: a bug in the program's own bookkeeping
// (StaticPlan::Check, AllocatorBase's ledger, PeakPaddedBytes) cannot hide itself here.
#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// One request's lifetime: live on the half-open tick interval [ts, te).
struct Lifetime {
  uint64_t ts = 0;
  uint64_t te = 0;
  uint64_t size = 0;
};

struct PeakLive {
  uint64_t requested = 0;  // max over time of the summed requested sizes of live requests
  uint64_t padded = 0;     // same with every size rounded up to `pad_align`
};

// Sweeps the lifetimes in tick order. A request freed at tick t is gone before one allocated at
// t starts (half-open lifetimes), which is also the replay engine's frees-first tie rule.
PeakLive PeakLiveBytes(const std::vector<Lifetime>& lifetimes, uint64_t pad_align);

// Tracks the live blocks an allocator hands out, op by op, and counts every violation:
// a block that overlaps a live one (or is empty), and a free of an address that is not live.
class LiveBlockChecker {
 public:
  bool OnMalloc(uint64_t addr, uint64_t size);
  bool OnFree(uint64_t addr);
  uint64_t violations() const { return violations_; }
  uint64_t live_bytes() const { return live_bytes_; }
  size_t live_blocks() const { return live_.size(); }

 private:
  std::map<uint64_t, uint64_t> live_;  // addr -> size, pairwise disjoint
  uint64_t live_bytes_ = 0;
  uint64_t violations_ = 0;
};

// One placed block of a plan: request `id` occupies [addr, addr + size) during [ts, te).
struct PlacedBlock {
  uint64_t id = 0;
  uint64_t ts = 0;
  uint64_t te = 0;
  uint64_t addr = 0;
  uint64_t size = 0;
};

// Checks a plan: every id in `expected_ids` is placed exactly once and nothing else is placed;
// no two blocks overlap in both time and address; every block ends at or below `pool`.
// Returns "" when the plan is valid, else the first violation found.
std::string CheckPlacement(const std::vector<PlacedBlock>& blocks,
                           const std::vector<uint64_t>& expected_ids, uint64_t pool);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
