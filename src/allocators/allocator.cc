#include "src/allocators/allocator.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/common/stopwatch.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/tracer.h"

namespace stalloc {

namespace {

// Emit an "alloc occupancy" counter-track sample every 2^8 ops per allocator — frequent enough
// to draw a usable occupancy curve in the trace viewer, sparse enough not to dominate the ring.
constexpr uint64_t kCounterSampleMask = (1u << 8) - 1;

}  // namespace

std::optional<uint64_t> AllocatorBase::Malloc(uint64_t size, const RequestContext& ctx) {
  // Latency measurement is armed only with process telemetry: two clock reads per op are
  // measurable noise on the replay hot path, and a STALLOC_TELEMETRY=OFF build folds
  // telemetry_on to false and compiles the timer out.
  Stopwatch timer{Stopwatch::Unstarted{}};
  const bool telemetry_on = telemetry::Enabled();
  if (telemetry_on) {
    timer.Reset();
  }
  ++stats_.num_mallocs;
  // Zero-byte and oversized requests are refused here, once for every allocator: no policy's
  // size round-up ever sees a size it could wrap.
  if (size == 0 || size > kMaxRequestBytes) {
    ++stats_.num_oom;
    if (telemetry_on) {
      RecordTelemetryOom(size);
    }
    return std::nullopt;
  }
  auto addr = DoMalloc(size, ctx);
  if (!addr.has_value()) {
    ++stats_.num_oom;
    NotePressure();
    if (telemetry_on) {
      RecordTelemetryOom(size);
    }
    return std::nullopt;
  }
  // Memory-stomping detector: the returned block may not overlap any live block.
  auto next = live_.lower_bound(*addr);
  if (next != live_.end()) {
    STALLOC_CHECK(*addr + size <= next->first,
                  << name() << ": block [" << *addr << ", " << *addr + size
                  << ") stomps on live block at " << next->first);
  }
  if (next != live_.begin()) {
    auto prev = std::prev(next);
    STALLOC_CHECK(prev->first + prev->second <= *addr,
                  << name() << ": block at " << *addr << " stomped by live block [" << prev->first
                  << ", " << prev->first + prev->second << ")");
  }
  // `next` is exactly the successor of the new address: reuse it as the insertion hint so the
  // ledger insert costs O(1) instead of a second tree walk.
  live_.emplace_hint(next, *addr, size);
  stats_.allocated_current += size;
  stats_.allocated_peak = std::max(stats_.allocated_peak, stats_.allocated_current);
  stats_.bytes_allocated_total += size;
  stats_.live_blocks = live_.size();
  NotePressure();
  // Heap-map capture: one relaxed armed() load when telemetry is on but no heap map was
  // requested; compiled out entirely when STALLOC_TELEMETRY is off (telemetry_on is constant
  // false).
  if (telemetry_on &&
      (heap_ != nullptr || telemetry::HeapMapRecorder::Global().armed())) {
    MaybeHeapMapMalloc(*addr, ctx);
  }
  if (telemetry_on) {
    RecordTelemetryOp(telemetry::FlightOp::Kind::kMalloc, size, timer.ElapsedSeconds() * 1e6);
  }
  return addr;
}

bool AllocatorBase::Free(uint64_t addr) {
  Stopwatch timer{Stopwatch::Unstarted{}};
  const bool telemetry_on = telemetry::Enabled();
  if (telemetry_on) {
    timer.Reset();
  }
  auto it = live_.find(addr);
  if (it == live_.end()) {
    return false;
  }
  ++stats_.num_frees;
  const uint64_t size = it->second;
  // Exact high-water-mark capture: leaving a new global allocated peak for the first time,
  // snapshot before the ledger shrinks so the frame holds the full peak-resident set. One
  // relaxed armed() load when no heap map was requested; folded away when telemetry is off.
  if (telemetry_on && !heap_suppressed_ &&
      (heap_ != nullptr || telemetry::HeapMapRecorder::Global().armed()) &&
      stats_.allocated_current == stats_.allocated_peak) {
    MaybeHeapMapPeak();
  }
  live_.erase(it);
  stats_.allocated_current -= size;
  stats_.bytes_freed_total += size;
  stats_.live_blocks = live_.size();
  DoFree(addr, size);
  NotePressure();
  if (telemetry_on && heap_ != nullptr) {
    MaybeHeapMapFree(addr);
  }
  if (telemetry_on) {
    RecordTelemetryOp(telemetry::FlightOp::Kind::kFree, size, timer.ElapsedSeconds() * 1e6);
  }
  return true;
}

void AllocatorBase::RecordTelemetryOp(telemetry::FlightOp::Kind kind, uint64_t size,
                                      double latency_us) {
  auto& registry = telemetry::MetricsRegistry::Global();
  // Registry instruments are never deallocated, so caching the pointers is safe and skips the
  // map lookup on every op after the first.
  static telemetry::Histogram* malloc_hist = registry.GetHistogram("alloc.malloc_latency_us");
  static telemetry::Histogram* free_hist = registry.GetHistogram("alloc.free_latency_us");
  static telemetry::Counter* mallocs = registry.GetCounter("alloc.mallocs");
  static telemetry::Counter* frees = registry.GetCounter("alloc.frees");
  static telemetry::Counter* bytes_allocated = registry.GetCounter("alloc.bytes_allocated");
  static telemetry::Counter* bytes_freed = registry.GetCounter("alloc.bytes_freed");

  const uint64_t reserved = ReservedBytes();
  if (kind == telemetry::FlightOp::Kind::kMalloc) {
    malloc_hist->Record(latency_us);
    mallocs->Add();
    bytes_allocated->Add(size);
  } else {
    free_hist->Record(latency_us);
    frees->Add();
    bytes_freed->Add(size);
  }

  if (!flight_) {
    flight_ = std::make_unique<telemetry::FlightRing>();
  }
  telemetry::FlightOp op;
  op.kind = kind;
  op.size = size;
  op.op_index = stats_.num_mallocs + stats_.num_frees;
  op.allocated_after = stats_.allocated_current;
  op.reserved_after = reserved;
  op.latency_us = latency_us;
  flight_->Push(op);

  const uint64_t op_count = stats_.num_mallocs + stats_.num_frees;
  if ((op_count & kCounterSampleMask) == 0) {
    auto& tracer = telemetry::Tracer::Global();
    Json values = Json::Object();
    values.Set("allocated", stats_.allocated_current);
    values.Set("reserved", reserved);
    tracer.ThreadTrack()->CounterEvent(std::string(name()) + " occupancy", telemetry::kCatAlloc,
                                       tracer.NowUs(), std::move(values));
  }
}

void AllocatorBase::RecordTelemetryOom(uint64_t size) {
  auto& registry = telemetry::MetricsRegistry::Global();
  static telemetry::Counter* ooms = registry.GetCounter("alloc.oom_events");
  ooms->Add();

  auto& tracer = telemetry::Tracer::Global();
  const uint64_t now = tracer.NowUs();
  const uint64_t reserved = ReservedBytes();

  telemetry::OomReport report;
  report.allocator = std::string(name());
  report.ts_us = now;
  report.failed_size = size;
  report.allocated = stats_.allocated_current;
  report.reserved = reserved;
  report.num_mallocs = stats_.num_mallocs;
  report.num_frees = stats_.num_frees;
  report.num_oom = stats_.num_oom;
  report.fragmentation =
      reserved == 0 ? 0.0
                    : 1.0 - static_cast<double>(stats_.allocated_current) /
                                static_cast<double>(reserved);
  // The OOM itself becomes the newest flight entry before the snapshot, so this report's
  // recent-ops tail is the failure — and a later OOM's report shows this one too.
  if (!flight_) {
    flight_ = std::make_unique<telemetry::FlightRing>();
  }
  telemetry::FlightOp op;
  op.kind = telemetry::FlightOp::Kind::kOom;
  op.size = size;
  op.op_index = stats_.num_mallocs + stats_.num_frees;
  op.allocated_after = stats_.allocated_current;
  op.reserved_after = reserved;
  flight_->Push(op);
  report.recent = flight_->Snapshot();

  Json args = Json::Object();
  args.Set("allocator", report.allocator);
  args.Set("failed_size", size);
  args.Set("allocated", report.allocated);
  args.Set("reserved", reserved);
  tracer.ThreadTrack()->Instant("OOM " + report.allocator, telemetry::kCatAlloc, now,
                                std::move(args));

  telemetry::FlightRecorder::Global().Report(std::move(report));

  // The address space at the instant of failure is the heap map's most valuable frame: it
  // shows which blocks pinned the gaps that refused this request.
  if (!heap_suppressed_ && telemetry::HeapMapRecorder::Global().armed() &&
      EnsureHeapMapState()->config.on_oom) {
    CaptureHeapSnapshot(telemetry::HeapTrigger::kOom, size);
  }
}

void AllocatorBase::AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const {
  for (const auto& [addr, size] : live_) {
    telemetry::HeapSegment seg;
    seg.base = addr;
    seg.size = size;
    seg.pool = "direct";
    out->push_back(std::move(seg));
  }
}

AllocatorBase::HeapMapState* AllocatorBase::EnsureHeapMapState() {
  if (heap_ == nullptr) {
    heap_ = std::make_unique<HeapMapState>();
    heap_->config = telemetry::HeapMapRecorder::Global().config();
  }
  return heap_.get();
}

void AllocatorBase::MaybeHeapMapMalloc(uint64_t addr, const RequestContext& ctx) {
  if (heap_suppressed_) {
    return;  // the owning allocator's ledger covers this pool's blocks
  }
  HeapMapState* hs = EnsureHeapMapState();
  HeapMapState::Tag& tag = hs->tags[addr];  // overwrites a stale tag on address reuse
  tag.phase = ctx.phase;
  tag.layer = ctx.layer;
  tag.stream = ctx.stream;
  tag.dyn = ctx.dyn;
  tag.tenant = ctx.tenant;

  // Trigger evaluation, at most one snapshot per op, in priority order. All inputs are
  // allocator-local and deterministic on pinned seeds (no host time anywhere).
  const telemetry::HeapMapConfig& cfg = hs->config;
  bool fire = false;
  telemetry::HeapTrigger trigger = telemetry::HeapTrigger::kManual;
  if (cfg.on_phase_change && ctx.phase != kInvalidPhase && ctx.phase != hs->last_phase) {
    // First tagged op establishes the baseline phase without snapshotting.
    fire = hs->last_phase != kInvalidPhase;
    trigger = telemetry::HeapTrigger::kPhaseChange;
    hs->last_phase = ctx.phase;
  }
  if (!fire && cfg.on_peak) {
    const uint64_t growth = static_cast<uint64_t>(
        static_cast<double>(hs->last_peak) * cfg.peak_growth);
    if (stats_.allocated_current >= hs->last_peak + std::max<uint64_t>(1, growth)) {
      fire = true;
      trigger = telemetry::HeapTrigger::kPeak;
      hs->last_peak = stats_.allocated_current;
    }
  }
  if (!fire && cfg.every_n_ops > 0 &&
      (stats_.num_mallocs + stats_.num_frees) % cfg.every_n_ops == 0) {
    fire = true;
    trigger = telemetry::HeapTrigger::kEveryN;
  }
  if (fire) {
    CaptureHeapSnapshot(trigger);
  }
}

void AllocatorBase::MaybeHeapMapPeak() {
  HeapMapState* hs = EnsureHeapMapState();
  // Strictly-greater: a sawtooth that merely re-touches a known peak does not re-snapshot, so
  // captures are bounded by the number of distinct global maxima (typically one or two per
  // run). Ramp snapshots in MaybeHeapMapMalloc share this watermark: if one already fired at
  // exactly the peak value, the frame exists and this is a no-op.
  if (hs->config.on_peak && stats_.allocated_peak > hs->last_peak) {
    hs->last_peak = stats_.allocated_peak;
    CaptureHeapSnapshotImpl(telemetry::HeapTrigger::kPeak, 0, /*urgent=*/true);
  }
}

void AllocatorBase::MaybeHeapMapFree(uint64_t addr) {
  heap_->tags.erase(addr);
  const telemetry::HeapMapConfig& cfg = heap_->config;
  if (cfg.every_n_ops > 0 && (stats_.num_mallocs + stats_.num_frees) % cfg.every_n_ops == 0 &&
      telemetry::HeapMapRecorder::Global().armed()) {
    CaptureHeapSnapshot(telemetry::HeapTrigger::kEveryN);
  }
}

void AllocatorBase::CaptureHeapSnapshot(telemetry::HeapTrigger trigger, uint64_t failed_size) {
  CaptureHeapSnapshotImpl(trigger, failed_size,
                          /*urgent=*/trigger == telemetry::HeapTrigger::kOom);
}

void AllocatorBase::CaptureHeapSnapshotImpl(telemetry::HeapTrigger trigger,
                                            uint64_t failed_size, bool urgent) {
  if (!telemetry::Enabled() || heap_suppressed_) {
    return;
  }
  auto& recorder = telemetry::HeapMapRecorder::Global();
  if (!recorder.armed()) {
    return;
  }
  HeapMapState* hs = EnsureHeapMapState();
  // Per-allocator cap: each allocator stops on its own counter, deterministically. Urgent
  // frames (OOM, exact-peak) draw on a 2x reserve so phase/ramp snapshots cannot crowd out
  // the frames OOM triage and fragmentation attribution depend on.
  const uint64_t cap = hs->config.max_snapshots_per_allocator;
  if (hs->taken >= (urgent ? 2 * cap : cap)) {
    return;
  }
  ++hs->taken;

  telemetry::HeapSnapshot snap;
  snap.allocator = HeapLabel();
  snap.trigger = trigger;
  snap.seq = hs->next_seq++;
  snap.op_index = stats_.num_mallocs + stats_.num_frees;
  snap.allocated = stats_.allocated_current;
  snap.reserved = ReservedBytes();
  snap.num_oom = stats_.num_oom;
  snap.failed_size = failed_size;

  AppendHeapSegments(&snap.segments);
  std::sort(snap.segments.begin(), snap.segments.end(),
            [](const telemetry::HeapSegment& a, const telemetry::HeapSegment& b) {
              return a.base < b.base;
            });

  snap.blocks.reserve(live_.size());
  static const HeapMapState::Tag kUntagged;  // blocks allocated before the recorder was armed
  for (const auto& [addr, size] : live_) {  // live_ iterates address-sorted
    auto tag_it = hs->tags.find(addr);
    const HeapMapState::Tag& tag = tag_it == hs->tags.end() ? kUntagged : tag_it->second;
    telemetry::HeapBlock block;
    block.addr = addr;
    block.size = size;
    block.phase = tag.phase;
    block.layer = tag.layer;
    block.stream = tag.stream;
    block.dyn = tag.dyn;
    block.tenant = tag.tenant;
    snap.blocks.push_back(std::move(block));
  }

  telemetry::FinalizeHeapSnapshot(&snap);
  recorder.Record(std::move(snap));
}

uint64_t AllocatorBase::LiveSize(uint64_t addr) const {
  auto it = live_.find(addr);
  return it == live_.end() ? 0 : it->second;
}

void AllocatorBase::NotePressure() {
  stats_.reserved_peak = std::max(stats_.reserved_peak, ReservedBytes());
}

}  // namespace stalloc
