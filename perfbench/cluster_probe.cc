// The cluster layers' probe, run by train-plan's traced run: bench_cluster's scale-scenario
// queue shape (a diurnal two-day mix of training and serving jobs, drawn with seed 42) on 96
// shared 16 GiB torch-caching devices with first-fit admission, simulated once, serially.
//
// It is not a gated workload: a fleet day's cost moved by about 30% between queue seeds and by
// 20% between runs of one seed on the reference host, and 2 of 5 runs of a round of serial,
// 4-worker and metrics-armed days died with SIGSEGV (see README.md).
#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/cluster/cluster_workload.h"
#include "src/cluster/sharded_fleet.h"
#include "src/common/units.h"

namespace perfbench {

using namespace stalloc;

namespace {

constexpr int kDevices = 96;
constexpr int kJobs = 144;
constexpr uint64_t kCapacity = 16 * GiB;
constexpr uint64_t kQueueSeed = 42;
// Generating the queue takes tens of microseconds, so each sample times a batch.
constexpr int kGenSamples = 21;
constexpr int kGenBatch = 50;

ClusterWorkloadConfig DayConfig() {
  ClusterWorkloadConfig config;
  config.num_jobs = kJobs;
  config.train_fraction = 0.5;
  config.mean_interarrival = 2 * 86400 / kJobs;  // two simulated days
  config.min_interarrival = 0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period = 86400;
  config.micro_batches = {1, 2};
  config.num_microbatches = 2;
  config.max_pp = 2;
  config.min_iterations = 1;
  config.max_iterations = 2;
  config.serve_requests = 32;
  config.kv_budget_bytes = 2 * GiB;
  return config;
}

}  // namespace

void ProbeClusterLayers(Outcome* out) {
  const ClusterWorkloadConfig config = DayConfig();
  std::vector<ClusterJob> jobs;
  std::vector<double> gen_s;
  for (int i = 0; i < kGenSamples; ++i) {
    ScopedSpan span("GenerateClusterWorkload");
    const uint64_t start = NowNs();
    for (int b = 0; b < kGenBatch; ++b) {
      jobs = GenerateClusterWorkload(config, kQueueSeed);
    }
    gen_s.push_back(static_cast<double>(NowNs() - start) / 1e9 / kGenBatch);
  }
  out->Set("cluster.gen_s", Median(gen_s));

  FleetConfig fleet;
  fleet.device_capacities.assign(kDevices, kCapacity);
  fleet.allocator = AllocatorKind::kCaching;
  fleet.policy = SchedulerPolicy::kFirstFit;
  fleet.max_oom_retries = 1;
  ClusterResult day;
  {
    ScopedSpan span("RunShardedCluster", "serial");
    day = RunShardedCluster(fleet, jobs);
  }
  out->Check(day.num_jobs == jobs.size(), "fleet day: jobs lost");
  out->Check(day.completed + day.rejected_upfront + day.rejected_oom + day.starved ==
                 day.num_jobs,
             "fleet day: completed + rejected + starved != jobs");
  uint64_t peak_max = 0;
  for (const DeviceMetrics& d : day.devices) {
    out->Check(d.peak_used <= d.capacity, "fleet day: a device peak exceeds its capacity");
    peak_max = std::max(peak_max, d.peak_used);
  }
  out->Set("cluster.day_s", day.wall_seconds);
  out->Set("cluster.ops_replayed", static_cast<double>(day.ops_replayed));
  out->Set("cluster.oom_events", static_cast<double>(day.oom_events));
  out->Set("cluster.requeues", static_cast<double>(day.requeues));
  out->Set("cluster.peak_used_bytes", static_cast<double>(peak_max));
  out->Set("cluster.jobs_completed", static_cast<double>(day.completed));
}

}  // namespace perfbench
