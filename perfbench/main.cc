// perfbench: the simulator's benchmark. One workload per run; prints the run's verdict and
// metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload storm-replay|train-plan --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around every call into the
// simulator, writes them to DIR/spans-<workload>-<seed>.json and prints the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

namespace {

using perfbench::MetricSpec;
using perfbench::Options;
using perfbench::Outcome;

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      o->workload = value;
    } else if (flag == "--seed") {
      o->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o->seconds = std::atof(value);
    } else if (flag == "--trace") {
      o->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      o->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

void PrintResult(const Outcome& out, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct() ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const auto& table = trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  for (size_t i = 0; i < table.size(); ++i) {
    const MetricSpec& m = table[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), out.Get(m.name), m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".";
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  if (options.trace) {
    perfbench::Tracer::Get().Enable();
  }
  Outcome out;
  if (options.workload == "storm-replay") {
    perfbench::RunStormReplay(options, &out);
  } else if (options.workload == "train-plan") {
    perfbench::RunTrainPlan(options, &out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  out.Set("peak_rss_bytes", static_cast<double>(perfbench::PeakRssBytes()));
  if (options.trace) {
    const std::string path = options.work_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".json";
    if (!perfbench::Tracer::Get().Write(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
      return 1;
    }
  }
  std::fflush(stderr);
  PrintResult(out, options.trace);
  return 0;
}
