#include "perfbench/harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/allocators/registry.h"
#include "src/driver/replay.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {

using namespace stalloc;

namespace {

std::vector<MetricSpec> BuildPerLayer() {
  std::vector<MetricSpec> m = {
      {"trace.gen_s", "s"},
      {"trace.open_s", "s"},
      {"trace.decode_ns_per_op", "ns/op"},
  };
  auto add = [&](const std::string& name, const char* unit) { m.push_back({name, unit}); };
  for (const std::string& kind : SweepKinds()) {
    add("replay." + kind + ".engine_ns_per_op", "ns/op");
  }
  for (const std::string& kind : SweepKinds()) {
    const std::string prefix = kind == "vmm" ? "vmm." : "allocators." + kind + ".";
    add(prefix + "ns_per_op", "ns/op");
    add(prefix + "malloc_p99_ns", "ns");
    add(prefix + "free_p99_ns", "ns");
    add(prefix + "reserved_peak_bytes", "bytes");
  }
  for (const std::string& kind : SweepKinds()) {
    add("gpu." + kind + ".api_calls", "count");
    add("gpu." + kind + ".release_calls", "count");
    add("gpu." + kind + ".modeled_cost_us", "us");
  }
  const std::vector<MetricSpec> rest = {
      {"gpu.devmalloc_ns_per_op", "ns/op"},
      {"telemetry.metrics_ns_per_op", "ns/op"},
      {"trainsim.build_s", "s"},
      {"core.profile_s", "s"},
      {"core.plan.ranks_s", "s"},
      {"core.plan.trace_s", "s"},
      {"core.plan.static_events", "count"},
      {"core.plan.phase_groups", "count"},
      {"core.plan.fusions", "count"},
      {"core.plan.layers", "count"},
      {"core.plan.pool_bytes", "bytes"},
      {"core.plan.lower_bound_bytes", "bytes"},
      {"core.stalloc.static_hits", "count"},
      {"core.stalloc.dynamic_reuse_hits", "count"},
      {"core.stalloc.fallbacks", "count"},
      {"core.stalloc.ns_per_op", "ns/op"},
      {"core.compact_s", "s"},
      {"core.compact.moves", "count"},
      {"core.compact.bytes_moved", "bytes"},
      {"cluster.gen_s", "s"},
      {"cluster.day_s", "s"},
      {"cluster.ops_replayed", "count"},
      {"cluster.oom_events", "count"},
      {"cluster.requeues", "count"},
      {"cluster.peak_used_bytes", "bytes"},
      {"cluster.jobs_completed", "count"},
      {"bench.round_s", "s"},
      {"bench.probe_s", "s"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *table) {
      if (name == m.name) {
        return &m;
      }
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Allocator> MakeAllocator(const std::string& kind, SimDevice* device) {
  std::unique_ptr<Allocator> alloc = AllocatorRegistry::Global().Create(kind, device);
  if (alloc == nullptr) {
    std::fprintf(stderr, "perfbench: allocator kind %s is not registered\n", kind.c_str());
    std::abort();
  }
  return alloc;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"},
      {"round_s", "s"},
      {"replay_mops", "Mops/s"},
      {"replay_metrics_mops", "Mops/s"},
      {"reserved_peak_bytes", "bytes"},
      {"peak_rss_bytes", "bytes"},
  };
  return m;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> m = BuildPerLayer();
  return m;
}

const std::vector<std::string>& SweepKinds() {
  static const std::vector<std::string> kinds = {"native", "torch-caching", "torch-expandable",
                                                 "gmlake", "vmm"};
  return kinds;
}

void Outcome::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Outcome::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: metric %s is in neither table\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Outcome::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t PeakRssBytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is in KiB on Linux
}

int RunRounds(double seconds, const std::function<void()>& round) {
  const uint64_t start = NowNs();
  int rounds = 0;
  do {
    round();
    ++rounds;
  } while (static_cast<double>(NowNs() - start) < seconds * 1e9);
  return rounds;
}

bool RunInChild(const std::string& what, Outcome* out,
                const std::function<void(Outcome* child, std::vector<uint64_t>* values)>& check,
                std::vector<uint64_t>* values) {
  int fds[2];
  if (pipe(fds) != 0) {
    out->Check(false, what + ": pipe() failed");
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out->Check(false, what + ": fork() failed");
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    Outcome child;
    std::vector<uint64_t> v;
    check(&child, &v);
    const char* p = reinterpret_cast<const char*>(v.data());
    size_t left = v.size() * sizeof(uint64_t);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        _exit(2);
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    std::fflush(stderr);
    _exit(child.correct() ? 0 : 1);
  }
  close(fds[1]);
  std::string bytes;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    bytes.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    out->Check(false, what + ": the checking child died with signal " +
                          std::to_string(WTERMSIG(status)));
    return false;
  }
  const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                  bytes.size() % sizeof(uint64_t) == 0;
  out->Check(ok, what + ": checks failed in the checking child");
  if (ok && values != nullptr) {
    values->resize(bytes.size() / sizeof(uint64_t));
    std::copy(bytes.begin(), bytes.end(), reinterpret_cast<char*>(values->data()));
  }
  return ok;
}

DecodedTrace Decode(const TraceView& view) {
  const TraceCursor cursor(view);
  DecodedTrace d;
  d.op_ref.resize(cursor.num_ops());
  for (uint64_t i = 0; i < cursor.num_ops(); ++i) {
    d.op_ref[i] = (cursor.OpEventId(i) << 1) | (cursor.OpIsFree(i) ? 1 : 0);
  }
  const uint64_t n = cursor.num_events();
  d.size.resize(n);
  d.ctx.resize(n);
  d.lifetimes.resize(n);
  for (uint64_t id = 0; id < n; ++id) {
    d.size[id] = cursor.EventSize(id);
    RequestContext& ctx = d.ctx[id];
    ctx.dyn = cursor.EventDyn(id);
    ctx.phase = cursor.EventPs(id);
    ctx.layer = cursor.EventLs(id);
    ctx.stream = cursor.EventStream(id);
    d.lifetimes[id] = {cursor.EventTs(id), cursor.EventTe(id), d.size[id]};
  }
  return d;
}

namespace {

template <DriveMode kMode>
void Drive(Allocator* alloc, const DecodedTrace& trace, DirectPass* pass) {
  std::vector<uint64_t> addr(trace.size.size(), 0);
  LiveBlockChecker checker;
  PlacementDigest digest;
  const uint64_t start = NowNs();
  for (const uint64_t ref : trace.op_ref) {
    const uint64_t id = ref >> 1;
    uint64_t t0 = 0;
    if constexpr (kMode == DriveMode::kTimed) {
      t0 = NowNs();
    }
    if ((ref & 1) == 0) {
      const std::optional<uint64_t> a = alloc->Malloc(trace.size[id], trace.ctx[id]);
      if constexpr (kMode == DriveMode::kTimed) {
        pass->malloc_ns.Add(NowNs() - t0);
      }
      if (!a.has_value()) {
        pass->ok = false;
        break;
      }
      addr[id] = *a;
      digest.Add(*a);
      if constexpr (kMode == DriveMode::kChecked) {
        checker.OnMalloc(*a, trace.size[id]);
      }
    } else {
      const bool freed = alloc->Free(addr[id]);
      if constexpr (kMode == DriveMode::kTimed) {
        pass->free_ns.Add(NowNs() - t0);
      }
      pass->ok = pass->ok && freed;
      if constexpr (kMode == DriveMode::kChecked) {
        checker.OnFree(addr[id]);
      }
    }
  }
  pass->wall_ns = NowNs() - start;
  pass->digest = digest.digest();
  pass->violations = checker.violations() + checker.live_blocks();
}

}  // namespace

DirectPass DriveAllocator(const std::string& kind, const DecodedTrace& trace, uint64_t capacity,
                          DriveMode mode) {
  SimDevice device(capacity);
  std::unique_ptr<Allocator> alloc = MakeAllocator(kind, &device);
  DirectPass pass;
  switch (mode) {
    case DriveMode::kPlain:
      Drive<DriveMode::kPlain>(alloc.get(), trace, &pass);
      break;
    case DriveMode::kChecked:
      Drive<DriveMode::kChecked>(alloc.get(), trace, &pass);
      break;
    case DriveMode::kTimed:
      Drive<DriveMode::kTimed>(alloc.get(), trace, &pass);
      break;
  }
  alloc->EmptyCache();
  pass.device_drained = device.physical_used() == 0;
  return pass;
}

std::optional<double> DriveDeviceNsPerOp(const DecodedTrace& trace, uint64_t capacity) {
  SimDevice device(capacity);
  std::vector<DevPtr> ptr(trace.size.size(), 0);
  ScopedSpan span("SimDevice::DevMalloc/DevFree");
  const uint64_t start = NowNs();
  for (const uint64_t ref : trace.op_ref) {
    const uint64_t id = ref >> 1;
    if ((ref & 1) == 0) {
      const std::optional<DevPtr> p = device.DevMalloc(trace.size[id]);
      if (!p.has_value()) {
        return std::nullopt;
      }
      ptr[id] = *p;
    } else if (device.DevFree(ptr[id]) != DeviceStatus::kOk) {
      return std::nullopt;
    }
  }
  return static_cast<double>(NowNs() - start) / static_cast<double>(trace.op_ref.size());
}

double CursorWalkNsPerOp(const TraceView& view) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan span("TraceCursor walk");
    const TraceCursor cursor(view);
    const uint64_t start = NowNs();
    uint64_t fold = 0;
    for (uint64_t i = 0; i < cursor.num_ops(); ++i) {
      const uint64_t id = cursor.OpEventId(i);
      fold += cursor.OpTime(i) ^ cursor.EventSize(id) ^ (cursor.OpIsFree(i) ? 1 : 0);
      fold += static_cast<uint64_t>(cursor.EventPs(id)) +
              static_cast<uint64_t>(cursor.EventLs(id)) + cursor.EventStream(id) +
              (cursor.EventDyn(id) ? 1 : 0);
    }
    const uint64_t ns = NowNs() - start;
    // The fold is data-dependent on every field read, so the walk cannot be elided.
    if (fold == 42) {
      std::fprintf(stderr, " ");
    }
    samples.push_back(static_cast<double>(ns) / static_cast<double>(cursor.num_ops()));
  }
  return Median(samples);
}

void ProbeTraceLayers(const TraceView& view, const DecodedTrace& decoded, uint64_t capacity,
                      Outcome* out) {
  ScopedSpan probe_span("layer probes");
  const uint64_t probe_start = NowNs();
  const double decode_ns = CursorWalkNsPerOp(view);
  out->Set("trace.decode_ns_per_op", decode_ns);
  const double ops = static_cast<double>(decoded.op_ref.size());

  for (const std::string& kind : SweepKinds()) {
    // Best of two for both sides of the engine difference, interleaved.
    ReplayRun replay;
    uint64_t direct_wall_ns = 0;
    bool direct_ok = true;
    for (int rep = 0; rep < 2; ++rep) {
      const ReplayRun r = ReplayFresh(view, kind, capacity, kind);
      if (rep == 0 || r.wall_s < replay.wall_s) {
        replay = r;
      }
      ScopedSpan span("Allocator::Malloc/Free", kind);
      const DirectPass plain = DriveAllocator(kind, decoded, capacity, DriveMode::kPlain);
      direct_ok = direct_ok && plain.ok;
      if (rep == 0 || plain.wall_ns < direct_wall_ns) {
        direct_wall_ns = plain.wall_ns;
      }
    }
    DirectPass timed;
    {
      ScopedSpan span("Allocator::Malloc/Free per-op timed", kind);
      timed = DriveAllocator(kind, decoded, capacity, DriveMode::kTimed);
    }
    Tracer::Get().AddLayerOps("Allocator::Malloc/" + kind, timed.malloc_ns);
    Tracer::Get().AddLayerOps("Allocator::Free/" + kind, timed.free_ns);
    out->Check(direct_ok && timed.ok, kind + ": a direct-drive malloc or free failed");

    const double direct_ns = static_cast<double>(direct_wall_ns) / ops;
    const std::string prefix = kind == "vmm" ? "vmm." : "allocators." + kind + ".";
    out->Set(prefix + "ns_per_op", direct_ns);
    out->Set(prefix + "malloc_p99_ns", timed.malloc_ns.Quantile(0.99));
    out->Set(prefix + "free_p99_ns", timed.free_ns.Quantile(0.99));
    out->Set(prefix + "reserved_peak_bytes", static_cast<double>(replay.reserved_peak));
    out->Set("replay." + kind + ".engine_ns_per_op",
             replay.wall_s * 1e9 / ops - direct_ns - decode_ns);
    const DeviceApiCounters& c = replay.counters;
    out->Set("gpu." + kind + ".api_calls", static_cast<double>(c.TotalCalls()));
    out->Set("gpu." + kind + ".release_calls",
             static_cast<double>(c.cuda_free + c.mem_unmap + c.mem_release));
    out->Set("gpu." + kind + ".modeled_cost_us", c.total_cost_us);
  }

  const std::optional<double> device_ns = DriveDeviceNsPerOp(decoded, capacity);
  out->Check(device_ns.has_value(), "SimDevice: a direct DevMalloc or DevFree failed");
  out->Set("gpu.devmalloc_ns_per_op", device_ns.value_or(0));

  // Telemetry: the same torch-caching replay with the metrics registry armed, minus plain.
  const ReplayRun plain = ReplayFresh(view, "torch-caching", capacity, "torch-caching");
  stalloc::telemetry::SetEnabled(true);
  const ReplayRun armed = ReplayFresh(view, "torch-caching", capacity, "torch-caching armed");
  stalloc::telemetry::SetEnabled(false);
  out->Set("telemetry.metrics_ns_per_op", (armed.wall_s - plain.wall_s) * 1e9 / ops);
  out->Set("bench.probe_s", static_cast<double>(NowNs() - probe_start) / 1e9);
}

}  // namespace perfbench
