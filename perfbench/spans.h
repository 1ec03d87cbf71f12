// The benchmark's own tracing, recorded from outside the simulator: a span around each call the
// benchmark makes into a module's public function, and per-layer aggregates (count, total time,
// latency histogram) for per-op calls such as Allocator::Malloc. Everything stays in memory
// and is written once, when the run ends. Off (one branch per span) unless --trace 1.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-linear latency histogram: 8 sub-buckets per power of two (about 9% resolution).
class LatencyHist {
 public:
  void Add(uint64_t ns) {
    ++buckets_[Bucket(ns)];
    ++count_;
    total_ns_ += ns;
  }
  uint64_t count() const { return count_; }
  uint64_t total_ns() const { return total_ns_; }
  // Upper bound of the bucket holding quantile q (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 8;
  static constexpr int kBuckets = 16 + (64 - 4) * kSub;
  static int Bucket(uint64_t v);
  static uint64_t BucketUpper(int b);
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t total_ns_ = 0;
};

class Tracer {
 public:
  static Tracer& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open one; returns its index.
  size_t Begin(std::string name, std::string detail);
  void End(size_t index);
  // Stores the per-op aggregate of one pass under `layer` (e.g.
  // "Allocator::Malloc/torch-caching"); each layer name is measured by exactly one pass.
  void AddLayerOps(const std::string& layer, const LatencyHist& hist);
  // Writes {"spans": [...], "layers": {...}} as JSON. False on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string detail;
    int64_t parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  bool enabled_ = false;
  uint64_t origin_ns_ = NowNs();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  std::map<std::string, LatencyHist> layers_;
};

// RAII span; records nothing when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string detail = "") {
    if (Tracer::Get().enabled()) {
      index_ = static_cast<int64_t>(Tracer::Get().Begin(name, std::move(detail)));
    }
  }
  ~ScopedSpan() {
    if (index_ >= 0) {
      Tracer::Get().End(static_cast<size_t>(index_));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
