#include "perfbench/spans.h"

#include <cstdio>
#include <string>
#include <utility>

namespace perfbench {

int LatencyHist::Bucket(uint64_t v) {
  if (v < 16) {
    return static_cast<int>(v);
  }
  const int exp = 63 - __builtin_clzll(v);  // >= 4
  const int sub = static_cast<int>((v >> (exp - 3)) & (kSub - 1));
  return 16 + (exp - 4) * kSub + sub;
}

uint64_t LatencyHist::BucketUpper(int b) {
  if (b < 16) {
    return static_cast<uint64_t>(b);
  }
  const int exp = (b - 16) / kSub + 4;
  const uint64_t sub = static_cast<uint64_t>((b - 16) % kSub);
  const uint64_t lo = (uint64_t{1} << exp) + (sub << (exp - 3));
  return lo + (uint64_t{1} << (exp - 3)) - 1;
}

double LatencyHist::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (static_cast<double>(seen) >= rank && buckets_[b] != 0) {
      return static_cast<double>(BucketUpper(b));
    }
  }
  return static_cast<double>(BucketUpper(kBuckets - 1));
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

size_t Tracer::Begin(std::string name, std::string detail) {
  Span span;
  span.name = std::move(name);
  span.detail = std::move(detail);
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ns = NowNs() - origin_ns_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  spans_[index].end_ns = NowNs() - origin_ns_;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void Tracer::AddLayerOps(const std::string& layer, const LatencyHist& hist) {
  layers_[layer] = hist;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", \"detail\": \"%s\", "
                 "\"start_ns\": %llu, \"end_ns\": %llu}%s\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(), s.detail.c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"layers\": {\n");
  size_t i = 0;
  for (const auto& [name, hist] : layers_) {
    std::fprintf(f,
                 "  \"%s\": {\"count\": %llu, \"total_ns\": %llu, \"p50_ns\": %.0f, "
                 "\"p99_ns\": %.0f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(hist.count()),
                 static_cast<unsigned long long>(hist.total_ns()), hist.Quantile(0.5),
                 hist.Quantile(0.99), ++i < layers_.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
