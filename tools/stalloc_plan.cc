// stalloc_plan: the standalone Plan Synthesizer (§8). Reads a profiled trace CSV, synthesizes
// the Static Allocation Plan and the Dynamic Reusable Space, reports statistics, and optionally
// writes the plan to a CSV consumable by the runtime allocator.
//
//   stalloc_plan trace.csv [--out plan.csv] [--svg plan.svg] [--json stats.json]
//                [--no-fusion] [--no-gap-insertion] [--no-greedy]

#include <string>
#include <utility>
#include <vector>

#include "src/api/report.h"
#include "src/api/serializers.h"
#include "src/common/flags.h"
#include "src/core/plan_io.h"
#include "src/core/planner.h"
#include "src/trace/timeline.h"
#include "src/trace/trace_io.h"

int main(int argc, char** argv) {
  using namespace stalloc;

  std::string trace_path;
  std::string out;
  std::string svg;
  std::string json_path;
  bool no_fusion = false, no_gap_insertion = false, no_greedy = false;
  PlanSynthesizerConfig config;

  FlagParser flags("stalloc_plan",
                   "Synthesize the Static Allocation Plan from a profiled trace.");
  flags.AddPositional(&trace_path, "TRACE", "profiled trace (CSV or columnar v2; format "
                                            "auto-detected)");
  flags.Add("--out", &out, "FILE", "write the synthesized plan CSV");
  flags.Add("--svg", &svg, "FILE", "render the plan timeline to SVG");
  flags.Add("--json", &json_path, "FILE", "machine-readable plan stats ('-' = stdout)");
  flags.AddFlag("--no-fusion", &no_fusion, "disable phase-group fusion");
  flags.AddFlag("--no-gap-insertion", &no_gap_insertion, "disable gap insertion");
  flags.AddFlag("--no-greedy", &no_greedy, "disable greedy first-fit refinement");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }
  config.enable_fusion = !no_fusion;
  config.enable_gap_insertion = !no_gap_insertion;
  config.enable_greedy_refinement = !no_greedy;

  ReportSink sink("stalloc_plan", json_path);

  Trace trace;
  TraceIoError trace_err;
  if (!ReadTraceAnyFile(trace_path, &trace, &trace_err)) {
    std::fprintf(stderr, "stalloc_plan: cannot read %s: %s\n", trace_path.c_str(),
                 trace_err.ToString().c_str());
    return 2;
  }
  sink.Printf("loaded %s: %zu events\n", trace_path.c_str(), trace.size());
  SynthesisResult result = SynthesizePlan(trace, config);
  sink.Printf("%s", result.stats.ToString().c_str());
  if (result.stats.used_greedy_refinement) {
    sink.Printf("(greedy first-fit refinement selected over the grouped plan)\n");
  }
  if (!out.empty()) {
    if (!WritePlanCsvFile(result.plan, result.dyn_space, out)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    sink.Printf("plan written to %s (%zu decisions)\n", out.c_str(),
                result.plan.decisions.size());
  }
  if (!svg.empty()) {
    std::vector<TimelineBox> boxes;
    for (const auto& d : result.plan.decisions) {
      boxes.push_back({d.addr, d.padded_size, d.event.ts, d.event.te, d.event.dyn});
    }
    if (!WriteSvgTimelineFile(boxes, result.plan.pool_size, trace.end_time(), svg)) {
      std::fprintf(stderr, "cannot write %s\n", svg.c_str());
      return 1;
    }
    sink.Printf("SVG rendering written to %s\n", svg.c_str());
  }

  sink.Meta("trace", trace_path);
  sink.Meta("trace_events", static_cast<uint64_t>(trace.size()));
  sink.Meta("decisions", static_cast<uint64_t>(result.plan.decisions.size()));
  sink.Meta("stats", ToJson(result.stats));
  return sink.Finish();
}
