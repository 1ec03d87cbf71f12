// Shared machinery of the workloads: the metric tables, the outcome every run reports,
// the round loop, and the per-op layer passes that drive one module directly from a
// pre-decoded op array (allocators, SimDevice, TraceCursor).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/oracles.h"
#include "perfbench/spans.h"
#include "src/allocators/allocator.h"
#include "src/driver/replay.h"
#include "src/gpu/sim_device.h"
#include "src/replay/replay_engine.h"
#include "src/trace/trace_v2.h"

namespace perfbench {

using stalloc::Allocator;
using stalloc::DeviceApiCounters;
using stalloc::ReplayEngine;
using stalloc::ReplayObserver;
using stalloc::ReplayOpView;
using stalloc::RequestContext;
using stalloc::SimDevice;
using stalloc::TraceView;

struct MetricSpec {
  std::string name;
  std::string unit;
};
// Every end-to-end metric (printed by runs with --trace 0) and every per-layer metric (printed
// by runs with --trace 1), in BENCHMARK.json order. A per-layer metric of a layer the workload
// does not cross reads 0.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files (trace files, span dumps) live here
};

// What one run reports: the correctness verdict, the operation counts and the metrics.
class Outcome {
 public:
  // Records a failed check (the run then reports correct = false) and prints it to stderr.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Sets a metric; the name must be in one of the two tables.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

 private:
  bool correct_ = true;
  std::map<std::string, double> values_;
};

// Set-up times and round timings are medians. On a shared host, rounds of identical
// allocation-heavy work swing by up to 30% within one run; the fastest round of a run moved
// two to three times as much between runs as the median did, so medians are what the gate uses.
double Median(std::vector<double> v);
uint64_t PeakRssBytes();

// Runs `round` at least once and then again until `seconds` have passed since the first round
// started. Returns the number of rounds run. Every round does the same work.
int RunRounds(double seconds, const std::function<void()>& round);

// Runs `check` in a forked child process and waits for it. The child gets a fresh Outcome,
// whose failed checks it prints, and sends back the values `check` appends; the parent records
// one failed check, under `what`, when the child's checks failed or it died. The oracles and the
// decoded copies the checks build live only in the child, so the parent's peak_rss_bytes covers
// the simulator's memory and not the benchmark's.
bool RunInChild(const std::string& what, Outcome* out,
                const std::function<void(Outcome* child, std::vector<uint64_t>* values)>& check,
                std::vector<uint64_t>* values = nullptr);

// The baseline allocator kinds the trace workloads sweep, in registry order.
const std::vector<std::string>& SweepKinds();

// A registered allocator kind on `device`; aborts on a kind the registry does not know.
std::unique_ptr<Allocator> MakeAllocator(const std::string& kind, SimDevice* device);

// What a replay reports. Only the ReplayTrace calls are on the clock.
struct ReplayRun {
  double wall_s = 0;            // summed over the iterations
  uint64_t ops = 0;             // mallocs + frees over the iterations
  bool oom = false;             // some iteration hit OOM
  uint64_t allocated_peak = 0;  // Ma of the last iteration
  uint64_t reserved_peak = 0;   // Mr of the last iteration
  DeviceApiCounters counters;   // the device's API counters after the replay (ReplayFresh)
  bool drained = false;         // device memory back to zero after EmptyCache (ReplayFresh)
};

// `iterations` back-to-back replays of `source` (a Trace or a TraceView) into `alloc`, as
// successive training iterations; each ReplayTrace call is one span labelled `label`.
template <typename Source>
ReplayRun ReplayIterations(const Source& source, Allocator* alloc, const std::string& label,
                           int iterations = 1, ReplayObserver* observer = nullptr) {
  ReplayRun run;
  for (int i = 0; i < iterations; ++i) {
    ScopedSpan span("ReplayTrace", label);
    const uint64_t start = NowNs();
    const stalloc::ReplayResult one = stalloc::ReplayTrace(source, alloc, observer);
    run.wall_s += static_cast<double>(NowNs() - start) / 1e9;
    run.ops += one.num_mallocs + one.num_frees;
    run.oom = run.oom || one.oom;
    run.allocated_peak = one.allocated_peak;
    run.reserved_peak = one.reserved_peak;
  }
  return run;
}

// ReplayIterations into a fresh `kind` allocator on a fresh device of `capacity`, which then
// empties its cache so the device can be checked for leftovers.
template <typename Source>
ReplayRun ReplayFresh(const Source& source, const std::string& kind, uint64_t capacity,
                      const std::string& label, int iterations = 1,
                      ReplayObserver* observer = nullptr) {
  SimDevice device(capacity);
  std::unique_ptr<Allocator> alloc = MakeAllocator(kind, &device);
  ReplayRun run = ReplayIterations(source, alloc.get(), label, iterations, observer);
  run.counters = device.counters();
  alloc->EmptyCache();
  run.drained = device.physical_used() == 0;
  return run;
}

// A trace's op stream decoded once into flat arrays, so a layer can be driven with no trace
// decode on the clock.
struct DecodedTrace {
  std::vector<uint64_t> op_ref;  // (event id << 1) | is_free, in replay order
  std::vector<uint64_t> size;    // per event
  std::vector<RequestContext> ctx;
  std::vector<Lifetime> lifetimes;
};
DecodedTrace Decode(const TraceView& view);

// Folds malloc addresses, in op order, into one digest: equal digests mean equal placements.
class PlacementDigest : public ReplayObserver {
 public:
  void AfterMalloc(ReplayEngine& /*engine*/, const ReplayOpView& /*op*/, uint64_t addr) override {
    Add(addr);
  }
  void Add(uint64_t addr) { digest_ = (digest_ ^ addr) * 1099511628211ull; }
  uint64_t digest() const { return digest_; }

 private:
  uint64_t digest_ = 14695981039346656037ull;
};

// One pass of `kind` driven directly through Allocator::Malloc/Free from the decoded ops.
struct DirectPass {
  bool ok = true;            // every malloc succeeded and every free was accepted
  uint64_t wall_ns = 0;      // whole-pass wall time
  uint64_t digest = 0;       // placement digest
  uint64_t violations = 0;   // LiveBlockChecker violations (checked passes only)
  bool device_drained = true;  // SimDevice back to zero after EmptyCache
  LatencyHist malloc_ns, free_ns;  // per-op latencies (timed passes only)
};
enum class DriveMode { kPlain, kChecked, kTimed };
DirectPass DriveAllocator(const std::string& kind, const DecodedTrace& trace, uint64_t capacity,
                          DriveMode mode);

// SimDevice::DevMalloc/DevFree driven directly with the op stream; returns ns per op, or
// nothing when a call fails.
std::optional<double> DriveDeviceNsPerOp(const DecodedTrace& trace, uint64_t capacity);

// A full TraceCursor walk over every op and its event's fields, no allocator; ns per op.
double CursorWalkNsPerOp(const TraceView& view);

// Sets the per-layer metrics of the trace, replay, allocators, vmm, gpu and telemetry modules
// from one traced pass of every kind over `view`: ReplayTrace, direct drive (whole-pass and
// per-op timed), the device and the cursor walk.
void ProbeTraceLayers(const TraceView& view, const DecodedTrace& decoded, uint64_t capacity,
                      Outcome* out);

// The workloads (storm_replay.cc, train_plan.cc).
void RunStormReplay(const Options& options, Outcome* out);
void RunTrainPlan(const Options& options, Outcome* out);

// Sets the cluster module's per-layer metrics from one serial fleet day (cluster_probe.cc).
void ProbeClusterLayers(Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
