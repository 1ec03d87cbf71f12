// storm-replay: a seeded 1M-op storm-mix trace streamed to a columnar v2 file and replayed from
// the mmap'd view, once per baseline allocator kind, plus one torch-caching pass with the
// telemetry metrics registry armed. The hot path of every replay: hundreds of distinct sizes,
// random lifetimes, no planning and no fleet scheduling.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/units.h"
#include "src/driver/replay.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/synthetic.h"

namespace perfbench {

using namespace stalloc;

namespace {

constexpr uint64_t kStormOps = 1000000;
constexpr uint64_t kCapacity = 64 * GiB;
constexpr int kSetups = 9;
// Kinds whose Malloc(UINT64_MAX) is probed, once per run. The right answer is a refusal; vmm
// (segfault) and the UINT64_MAX-511 aborts of torch-expandable/gmlake are kept out of the
// process (see README.md).
const char* const kOversizeProbeKinds[] = {"native", "torch-caching", "torch-expandable",
                                           "gmlake"};

void CheckPass(const ReplayRun& pass, const std::string& label, uint64_t oracle_peak,
               Outcome* out) {
  out->Check(!pass.oom, label + ": replay hit OOM");
  out->Check(pass.allocated_peak == oracle_peak,
             label + ": Ma " + std::to_string(pass.allocated_peak) + " != oracle peak " +
                 std::to_string(oracle_peak));
  out->Check(pass.allocated_peak <= pass.reserved_peak && pass.reserved_peak <= kCapacity,
             label + ": Ma <= Mr <= capacity violated");
  out->Check(pass.drained, label + ": device memory not back to zero after EmptyCache");
}

// Malloc(UINT64_MAX) on a fresh instance of each probed kind; returns how many accepted it.
uint64_t OversizeProbe() {
  uint64_t accepted = 0;
  for (const char* kind : kOversizeProbeKinds) {
    SimDevice device(kCapacity);
    std::unique_ptr<Allocator> alloc = MakeAllocator(kind, &device);
    ScopedSpan span("Allocator::Malloc(UINT64_MAX)", kind);
    if (alloc->Malloc(~uint64_t{0}).has_value()) {
      ++accepted;
    }
  }
  return accepted;
}

// The check round, run in a child process: the oracle's peak live bytes, and for each kind the
// view replay and the direct drive (fed to the overlap oracle), which must place identically,
// and the metrics-armed torch-caching pass, which must place as the plain one. Appends the
// oracle's peak to `values`.
void CheckRound(const TraceView& view, Outcome* out, std::vector<uint64_t>* values) {
  const DecodedTrace decoded = Decode(view);
  const uint64_t oracle_peak = PeakLiveBytes(decoded.lifetimes, 1).requested;
  std::map<std::string, uint64_t> view_digest;
  for (const std::string& kind : SweepKinds()) {
    PlacementDigest digest;
    CheckPass(ReplayFresh(view, kind, kCapacity, kind, 1, &digest), kind, oracle_peak, out);
    view_digest[kind] = digest.digest();
    const DirectPass direct = DriveAllocator(kind, decoded, kCapacity, DriveMode::kChecked);
    out->Check(direct.ok, kind + ": a direct-drive malloc or free failed");
    out->Check(direct.violations == 0,
               kind + ": " + std::to_string(direct.violations) + " live-block violations");
    out->Check(direct.device_drained, kind + ": direct drive left device memory behind");
    out->Check(direct.digest == view_digest[kind],
               kind + ": direct drive placed differently from the view replay");
  }
  PlacementDigest digest;
  telemetry::SetEnabled(true);
  const ReplayRun armed = ReplayFresh(view, "torch-caching", kCapacity, "torch-caching armed", 1,
                                      &digest);
  telemetry::SetEnabled(false);
  CheckPass(armed, "torch-caching (metrics armed)", oracle_peak, out);
  out->Check(digest.digest() == view_digest["torch-caching"],
             "metrics-armed pass placed differently from the plain pass");
  values->push_back(oracle_peak);
}

}  // namespace

void RunStormReplay(const Options& options, Outcome* out) {
  const std::string path = options.work_dir + "/storm-" + std::to_string(options.seed) + ".v2";
  SyntheticSpec spec;
  spec.mix = SyntheticMix::kStorm;
  spec.num_ops = kStormOps;
  spec.seed = options.seed;

  // Set-up: stream the trace to disk and map it, several times; the last view is kept.
  TraceView view;
  std::vector<double> setup_s, gen_s, open_s;
  for (int i = 0; i < kSetups; ++i) {
    view.Close();
    const uint64_t t0 = NowNs();
    bool written = false;
    {
      ScopedSpan span("GenerateSyntheticV2File", "storm");
      written = GenerateSyntheticV2File(spec, path);
    }
    const uint64_t t1 = NowNs();
    TraceIoError err;
    bool opened = false;
    {
      ScopedSpan span("TraceView::Open");
      opened = written && view.Open(path, &err);
    }
    const uint64_t t2 = NowNs();
    if (!opened) {
      out->Check(false, "could not write or open " + path + ": " + err.message);
      return;
    }
    gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    open_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  }
  out->Set("setup_s", Median(setup_s));
  out->Set("trace.gen_s", Median(gen_s));
  out->Set("trace.open_s", Median(open_s));

  out->Check(view.num_ops() == kStormOps, "storm trace does not hold 1M ops");
  std::vector<uint64_t> oracle;
  if (!RunInChild("storm-replay check round", out,
                  [&](Outcome* child, std::vector<uint64_t>* values) {
                    CheckRound(view, child, values);
                  },
                  &oracle) ||
      oracle.size() != 1) {
    return;
  }
  const uint64_t oracle_peak = oracle[0];

  // The known fault, once per run: every acceptance is a failed operation.
  out->attempted += std::size(kOversizeProbeKinds);
  out->failed += OversizeProbe();

  // Per-kind pass times; round_s sums each kind's median pass. Every round replays the same
  // operations, so `attempted` counts one round's.
  std::map<std::string, std::vector<double>> kind_s;
  std::vector<double> metrics_mops;
  uint64_t round_ops = 0;
  uint64_t round_armed_ops = 0;
  uint64_t reserved_sum = 0;
  RunRounds(options.seconds, [&] {
    ScopedSpan round_span("round");
    uint64_t ops = 0;
    uint64_t reserved = 0;
    for (const std::string& kind : SweepKinds()) {
      const ReplayRun pass = ReplayFresh(view, kind, kCapacity, kind);
      CheckPass(pass, kind, oracle_peak, out);
      kind_s[kind].push_back(pass.wall_s);
      ops += pass.ops;
      reserved += pass.reserved_peak;
    }
    round_ops = ops;
    out->Check(reserved_sum == 0 || reserved == reserved_sum,
               "reserved peaks moved between rounds");
    reserved_sum = reserved;

    {
      ScopedSpan span("telemetry::SetEnabled", "true");
      telemetry::SetEnabled(true);
    }
    const ReplayRun armed = ReplayFresh(view, "torch-caching", kCapacity, "torch-caching armed");
    {
      ScopedSpan span("telemetry::SetEnabled", "false");
      telemetry::SetEnabled(false);
    }
    CheckPass(armed, "torch-caching (metrics armed)", oracle_peak, out);
    metrics_mops.push_back(static_cast<double>(armed.ops) / armed.wall_s / 1e6);
    round_armed_ops = armed.ops;
  });
  out->attempted += round_ops + round_armed_ops;

  double round_s = 0;
  for (const auto& [kind, seconds] : kind_s) {
    round_s += Median(seconds);
  }
  out->Set("round_s", round_s);
  out->Set("bench.round_s", round_s);
  out->Set("replay_mops", static_cast<double>(round_ops) / round_s / 1e6);
  out->Set("replay_metrics_mops", Median(metrics_mops));
  out->Set("reserved_peak_bytes", static_cast<double>(reserved_sum));
  if (options.trace) {
    ProbeTraceLayers(view, Decode(view), kCapacity, out);
  }
  view.Close();
  std::remove(path.c_str());
}

}  // namespace perfbench
