// train-plan: STAlloc's own offline + online pipeline. A handful of simulated training ranks
// (dense and MoE; recompute, virtual pipeline and ZeRO configs) are each profiled with the
// profile seed, planned by SynthesizePlan and served by STAllocAllocator while a different
// run seed is replayed, so MoE expert sizes differ and the dynamic space and the fallback are
// used; each run trace is also replayed through torch-caching, and every replay runs three
// back-to-back iterations into one allocator. One synthetic train-mix trace of 200k ops is
// self-planned (the Table 2 scale point), and CompactPlan runs on the caching allocator's
// layout of one rank, the copy-defragmentation baseline. The profiler, planner and compaction
// do nearly all the work; the allocators see regular sizes and nested lifetimes.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "src/common/units.h"
#include "src/core/compaction.h"
#include "src/core/planner.h"
#include "src/core/profiler.h"
#include "src/core/stalloc_allocator.h"
#include "src/driver/replay.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/synthetic.h"
#include "src/trainsim/workload.h"

namespace perfbench {

using namespace stalloc;

namespace {

constexpr uint64_t kCapacity = 80 * GiB;
constexpr uint64_t kSyntheticOps = 200000;
constexpr int kSetups = 15;
constexpr int kIterations = 3;
constexpr uint64_t kPlanAlignBytes = 512;

struct Rank {
  std::string name;
  WorkloadBuilder builder;
};

std::vector<Rank> Ranks() {
  std::vector<Rank> ranks;
  auto add = [&](const char* name, const ModelConfig& model, TrainConfig c) {
    ranks.push_back({name, WorkloadBuilder(model, c)});
  };
  TrainConfig c;
  c.num_microbatches = 8;
  c.parallel = {1, 2, 1, 1, 1};
  c.micro_batch_size = 4;
  add("gpt2 pp2 rank0", Gpt2_345M(), c);

  c = TrainConfig{};
  c.num_microbatches = 8;
  c.parallel = {2, 2, 1, 1, 1};
  c.micro_batch_size = 2;
  c.rank = 1;
  c.opt.recompute = RecomputeMode::kFull;
  c.opt.zero = ZeroStage::kStage1;
  add("llama2-7b tp2 pp2 rank1 ZR", Llama2_7B(), c);

  c = TrainConfig{};
  c.num_microbatches = 8;
  c.parallel = {1, 2, 1, 4, 1};
  c.micro_batch_size = 4;
  c.opt.recompute = RecomputeMode::kFull;
  add("qwen1.5-moe ep4 pp2 R", Qwen15_MoE_A27B(), c);

  c = TrainConfig{};
  c.num_microbatches = 8;
  c.parallel = {1, 2, 1, 4, 2};
  c.micro_batch_size = 2;
  add("qwen1.5-moe ep4 pp2 vpp2", Qwen15_MoE_A27B(), c);

  c = TrainConfig{};
  c.num_microbatches = 8;
  c.parallel = {1, 4, 1, 1, 2};
  c.micro_batch_size = 4;
  c.opt.recompute = RecomputeMode::kSelective;
  c.opt.zero = ZeroStage::kStage3;
  add("gpt2 pp4 vpp2 selective ZeRO-3", Gpt2_345M(), c);
  return ranks;
}
// The rank whose torch-caching layout CompactPlan compacts.
constexpr size_t kCompactRank = 4;

std::vector<Lifetime> Lifetimes(const Trace& trace, bool static_only) {
  std::vector<Lifetime> out;
  for (const MemoryEvent& e : trace.events()) {
    if (!static_only || !e.dyn) {
      out.push_back({e.ts, e.te, e.size});
    }
  }
  return out;
}

// Checks a plan of `trace`'s static events with the oracle; returns the oracle lower bound.
// The plan checks stay in this process: forking before each timed replay would put the
// parent's copy-on-write faults on the replay's clock.
uint64_t CheckPlan(const StaticPlan& plan, const Trace& trace, const std::string& label,
                   Outcome* out) {
  std::vector<PlacedBlock> blocks;
  blocks.reserve(plan.decisions.size());
  for (const PlanDecision& d : plan.decisions) {
    blocks.push_back({d.event.id, d.event.ts, d.event.te, d.addr, d.padded_size});
  }
  std::vector<uint64_t> expected;
  for (const MemoryEvent& e : trace.events()) {
    if (!e.dyn) {
      expected.push_back(e.id);
    }
  }
  const std::string error = CheckPlacement(blocks, expected, plan.pool_size);
  out->Check(error.empty(), label + ": plan rejected by the oracle: " + error);
  const uint64_t lower_bound = PeakLiveBytes(Lifetimes(trace, true), kPlanAlignBytes).padded;
  out->Check(plan.pool_size >= lower_bound, label + ": pool below the oracle's lower bound");
  return lower_bound;
}

// Records every placement of an online allocator as a plan decision, rebased to offset 0.
class LayoutCapture : public ReplayObserver {
 public:
  void AfterMalloc(ReplayEngine& /*engine*/, const ReplayOpView& op, uint64_t addr) override {
    PlanDecision d;
    d.event = *op.event;
    d.addr = addr;
    d.padded_size = AlignUp(op.event->size, kPlanAlignBytes);
    plan_.decisions.push_back(d);
  }
  StaticPlan Take() {
    uint64_t lo = ~uint64_t{0};
    for (const PlanDecision& d : plan_.decisions) {
      lo = std::min(lo, d.addr);
    }
    for (PlanDecision& d : plan_.decisions) {
      d.addr -= lo;
      plan_.pool_size = std::max(plan_.pool_size, d.end_addr());
    }
    std::sort(plan_.decisions.begin(), plan_.decisions.end(),
              [](const PlanDecision& a, const PlanDecision& b) { return a.event.ts < b.event.ts; });
    return std::move(plan_);
  }

 private:
  StaticPlan plan_;
};

double Seconds(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

}  // namespace

void RunTrainPlan(const Options& options, Outcome* out) {
  const uint64_t profile_seed = options.seed * 2 + 1;
  const uint64_t run_seed = options.seed * 2 + 2;
  std::vector<Rank> ranks = Ranks();
  const std::string path = options.work_dir + "/train-" + std::to_string(options.seed) + ".v2";
  SyntheticSpec spec;
  spec.mix = SyntheticMix::kTraining;
  spec.num_ops = kSyntheticOps;
  spec.seed = options.seed;

  // Set-up: the ranks' run traces, the synthetic trace file, its view and an owned copy.
  std::vector<Trace> run_traces;
  TraceView view;
  Trace synthetic;
  std::vector<double> setup_s, build_s, gen_s, open_s;
  for (int i = 0; i < kSetups; ++i) {
    view.Close();
    const uint64_t t0 = NowNs();
    run_traces.clear();
    for (const Rank& rank : ranks) {
      ScopedSpan span("WorkloadBuilder::Build", rank.name);
      run_traces.push_back(rank.builder.Build(run_seed));
    }
    const uint64_t t1 = NowNs();
    bool ok = false;
    {
      ScopedSpan span("GenerateSyntheticV2File", "train");
      ok = GenerateSyntheticV2File(spec, path);
    }
    const uint64_t t2 = NowNs();
    TraceIoError err;
    {
      ScopedSpan span("TraceView::Open");
      ok = ok && view.Open(path, &err);
    }
    const uint64_t t3 = NowNs();
    if (!ok) {
      out->Check(false, "could not write or open " + path + ": " + err.message);
      return;
    }
    {
      ScopedSpan span("TraceView::Materialize");
      synthetic = view.Materialize();
    }
    setup_s.push_back(Seconds(t0));
    build_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    gen_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    open_s.push_back(static_cast<double>(t3 - t2) / 1e9);
  }
  out->Set("setup_s", Median(setup_s));
  out->Set("trainsim.build_s", Median(build_s));
  out->Set("trace.gen_s", Median(gen_s));
  out->Set("trace.open_s", Median(open_s));

  // The oracle's peak live bytes of every run trace, then of the synthetic trace, swept in a
  // child process before the rounds.
  std::vector<uint64_t> run_peak;
  if (!RunInChild("peak live bytes", out,
                  [&](Outcome* /*child*/, std::vector<uint64_t>* values) {
                    for (const Trace& t : run_traces) {
                      values->push_back(PeakLiveBytes(Lifetimes(t, false), 1).requested);
                    }
                    values->push_back(PeakLiveBytes(Lifetimes(synthetic, false), 1).requested);
                  },
                  &run_peak) ||
      run_peak.size() != ranks.size() + 1) {
    return;
  }
  const uint64_t synthetic_peak = run_peak.back();

  // The copy-defragmentation baseline: one rank's run trace as torch-caching lays it out.
  StaticPlan layout;
  {
    SimDevice device(kCapacity);
    std::unique_ptr<Allocator> alloc = MakeAllocator("torch-caching", &device);
    LayoutCapture capture;
    out->Check(!ReplayTrace(run_traces[kCompactRank], alloc.get(), &capture).oom,
               "layout capture hit OOM");
    layout = capture.Take();
  }
  std::vector<uint64_t> layout_ids;
  for (const PlanDecision& d : layout.decisions) {
    layout_ids.push_back(d.event.id);
  }

  // Per-stage times; round_s sums each stage's median.
  std::vector<double> replay_s, metrics_mops, profile_s, plan_ranks_s, plan_trace_s, compact_s,
      stalloc_ns;
  uint64_t round_replay_ops = 0;
  RunRounds(options.seconds, [&] {
    ScopedSpan round_span("round");
    double profile = 0, plan_ranks = 0, plan_trace = 0, replay = 0, stalloc_wall = 0;
    uint64_t replay_ops = 0, stalloc_ops = 0, attempted = 0;
    uint64_t reserved = 0, static_events = 0, phase_groups = 0, fusions = 0, layers = 0;
    uint64_t pool = 0, lower_bound = 0, static_hits = 0, reuse_hits = 0, fallbacks = 0;

    // Serves `run` with the plan (on a fresh device) and replays it through torch-caching.
    auto serve = [&](SynthesisResult synthesis, const auto& run, uint64_t oracle_peak,
                     const std::string& label) {
      SimDevice device(kCapacity);
      STAllocAllocator stalloc_alloc(&device, std::move(synthesis.plan),
                                     std::move(synthesis.dyn_space));
      if (!stalloc_alloc.Init()) {
        out->Check(false, label + ": static pool reservation failed");
        return;
      }
      const ReplayRun served =
          ReplayIterations(run, &stalloc_alloc, "stalloc/" + label, kIterations);
      out->Check(!served.oom, label + ": STAlloc replay hit OOM");
      out->Check(served.allocated_peak == oracle_peak,
                 label + ": STAlloc Ma differs from the oracle peak of the run trace");
      const ReplayRun cached =
          ReplayFresh(run, "torch-caching", kCapacity, "torch-caching/" + label, kIterations);
      out->Check(!cached.oom, label + ": torch-caching replay hit OOM");
      replay += served.wall_s + cached.wall_s;
      replay_ops += served.ops + cached.ops;
      stalloc_wall += served.wall_s;
      stalloc_ops += served.ops;
      reserved += served.reserved_peak;
      const STAllocBreakdown& b = stalloc_alloc.breakdown();
      static_hits += b.static_hits;
      reuse_hits += b.dynamic_reuse_hits;
      fallbacks += b.dynamic_fallbacks + b.static_mismatches;
    };
    auto account_plan = [&](const SynthesisResult& s, uint64_t oracle_lower_bound) {
      static_events += s.stats.num_static_events;
      phase_groups += s.stats.num_phase_groups;
      fusions += s.stats.num_fusions;
      layers += s.stats.num_layers;
      pool += s.plan.pool_size;
      lower_bound += oracle_lower_bound;
      attempted += 1;
    };

    for (size_t i = 0; i < ranks.size(); ++i) {
      ProfileResult profiled;
      {
        ScopedSpan span("ProfileWorkload", ranks[i].name);
        const uint64_t start = NowNs();
        profiled = ProfileWorkload(ranks[i].builder, kCapacity, profile_seed);
        profile += Seconds(start);
      }
      out->Check(profiled.feasible, ranks[i].name + ": profile infeasible");
      SynthesisResult synthesis;
      {
        ScopedSpan span("SynthesizePlan", ranks[i].name);
        const uint64_t start = NowNs();
        synthesis = SynthesizePlan(profiled.trace);
        plan_ranks += Seconds(start);
      }
      account_plan(synthesis, CheckPlan(synthesis.plan, profiled.trace, ranks[i].name, out));
      attempted += profiled.trace.size() * 2;
      serve(std::move(synthesis), run_traces[i], run_peak[i], ranks[i].name);
    }

    // The self-planned synthetic trace: profiled and planned from an owned copy, served from
    // the mmap'd view.
    Trace copy = synthetic;
    ProfileResult profiled;
    {
      ScopedSpan span("ProfileTrace", "train-mix");
      const uint64_t start = NowNs();
      profiled = ProfileTrace(std::move(copy), kCapacity);
      profile += Seconds(start);
    }
    out->Check(profiled.feasible, "train-mix: profile infeasible");
    SynthesisResult synthesis;
    {
      ScopedSpan span("SynthesizePlan", "train-mix");
      const uint64_t start = NowNs();
      synthesis = SynthesizePlan(profiled.trace);
      plan_trace = Seconds(start);
    }
    account_plan(synthesis, CheckPlan(synthesis.plan, profiled.trace, "train-mix", out));
    attempted += profiled.trace.size() * 2;
    serve(std::move(synthesis), view, synthetic_peak, "train-mix");

    CompactionResult compacted;
    double compact = 0;
    {
      ScopedSpan span("CompactPlan", ranks[kCompactRank].name);
      const uint64_t start = NowNs();
      compacted = CompactPlan(layout);
      compact = Seconds(start);
    }
    attempted += 1;
    std::vector<PlacedBlock> blocks;
    for (const PlanDecision& d : compacted.plan.decisions) {
      blocks.push_back({d.event.id, d.event.ts, d.event.te, d.addr, d.padded_size});
    }
    const std::string error = CheckPlacement(blocks, layout_ids, compacted.plan.pool_size);
    out->Check(error.empty(), "compacted layout rejected by the oracle: " + error);
    out->Check(compacted.plan.pool_size <= layout.pool_size, "compaction grew the pool");

    // The metrics-armed torch-caching replays of every run trace.
    double armed_wall = 0;
    uint64_t armed_ops = 0;
    {
      ScopedSpan span("telemetry::SetEnabled", "true");
      telemetry::SetEnabled(true);
    }
    for (size_t i = 0; i < ranks.size(); ++i) {
      const ReplayRun r = ReplayFresh(run_traces[i], "torch-caching", kCapacity,
                                      "torch-caching armed/" + ranks[i].name, kIterations);
      armed_wall += r.wall_s;
      armed_ops += r.ops;
    }
    const ReplayRun r = ReplayFresh(view, "torch-caching", kCapacity,
                                    "torch-caching armed/train-mix", kIterations);
    armed_wall += r.wall_s;
    armed_ops += r.ops;
    {
      ScopedSpan span("telemetry::SetEnabled", "false");
      telemetry::SetEnabled(false);
    }

    // Every round does the same operations, so `attempted` counts one round's.
    out->attempted = attempted + replay_ops + armed_ops;
    replay_s.push_back(replay);
    round_replay_ops = replay_ops;
    metrics_mops.push_back(static_cast<double>(armed_ops) / armed_wall / 1e6);
    profile_s.push_back(profile);
    plan_ranks_s.push_back(plan_ranks);
    plan_trace_s.push_back(plan_trace);
    compact_s.push_back(compact);
    stalloc_ns.push_back(stalloc_wall * 1e9 / static_cast<double>(stalloc_ops));

    // Exact counts: identical in every round.
    out->Set("reserved_peak_bytes", static_cast<double>(reserved));
    out->Set("core.plan.static_events", static_cast<double>(static_events));
    out->Set("core.plan.phase_groups", static_cast<double>(phase_groups));
    out->Set("core.plan.fusions", static_cast<double>(fusions));
    out->Set("core.plan.layers", static_cast<double>(layers));
    out->Set("core.plan.pool_bytes", static_cast<double>(pool));
    out->Set("core.plan.lower_bound_bytes", static_cast<double>(lower_bound));
    out->Set("core.stalloc.static_hits", static_cast<double>(static_hits));
    out->Set("core.stalloc.dynamic_reuse_hits", static_cast<double>(reuse_hits));
    out->Set("core.stalloc.fallbacks", static_cast<double>(fallbacks));
    out->Set("core.compact.moves", static_cast<double>(compacted.moves));
    out->Set("core.compact.bytes_moved", static_cast<double>(compacted.bytes_moved));
  });

  const double round_s = Median(profile_s) + Median(plan_ranks_s) + Median(plan_trace_s) +
                         Median(replay_s) + Median(compact_s);
  out->Set("round_s", round_s);
  out->Set("bench.round_s", round_s);
  out->Set("replay_mops", static_cast<double>(round_replay_ops) / Median(replay_s) / 1e6);
  out->Set("replay_metrics_mops", Median(metrics_mops));
  out->Set("core.profile_s", Median(profile_s));
  out->Set("core.plan.ranks_s", Median(plan_ranks_s));
  out->Set("core.plan.trace_s", Median(plan_trace_s));
  out->Set("core.compact_s", Median(compact_s));
  out->Set("core.stalloc.ns_per_op", Median(stalloc_ns));
  if (options.trace) {
    ProbeTraceLayers(view, Decode(view), kCapacity, out);
    ProbeClusterLayers(out);
  }
  view.Close();
  std::remove(path.c_str());
}

}  // namespace perfbench
