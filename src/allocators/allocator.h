// Allocator: the common interface of every GPU memory allocator in this repository — the PyTorch
// caching allocator, PyTorch expandable_segments, GMLake, the native (profiling) allocator and
// STAlloc itself. Mirrors the PyTorch PluggableAllocator surface (§8): malloc and free calls,
// routed through the framework, with request context describing the issuing module.
//
// AllocatorBase adds uniform accounting (allocated/reserved current & peak → memory efficiency
// E = Ma/Mr of §2.2) and a memory-stomping detector: no two live blocks may overlap. A stomping
// bug in any allocator aborts immediately rather than corrupting the "training".

#ifndef SRC_ALLOCATORS_ALLOCATOR_H_
#define SRC_ALLOCATORS_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/heap_map.h"
#include "src/trace/event.h"

namespace stalloc {

// Context forwarded with each request, as captured by framework hooks (§8: module tracking via
// PyTorch hook APIs). Baseline allocators ignore it; STAlloc's Request Matcher routes on it.
struct RequestContext {
  bool dyn = false;                 // issued by a dynamic (MoE expert) layer
  PhaseId phase = kInvalidPhase;    // current computation phase
  LayerId layer = kInvalidLayer;    // current model layer (module)
  StreamId stream = kComputeStream; // issuing CUDA stream
  uint64_t tenant = 0;              // owning job/request id (cluster replay; 0 = unattributed)
};

// Largest request any allocator accepts. AllocatorBase::Malloc refuses bigger sizes as an OOM
// before the policy runs, so no allocator's AlignUp or size arithmetic can wrap (2^62 plus any
// granularity up to 2^61 still fits in 64 bits) — and no simulated device is this large.
inline constexpr uint64_t kMaxRequestBytes = uint64_t{1} << 62;

struct AllocatorStats {
  uint64_t allocated_current = 0;  // live requested bytes
  uint64_t allocated_peak = 0;     // max allocated (Ma)
  uint64_t reserved_peak = 0;      // max reserved  (Mr)
  uint64_t num_mallocs = 0;
  uint64_t num_frees = 0;
  uint64_t num_oom = 0;            // failed mallocs
  uint64_t live_blocks = 0;
  // Built-in instrumentation, maintained uniformly for every allocator so drivers never
  // re-implement counter code:
  uint64_t bytes_allocated_total = 0;  // cumulative requested bytes over successful mallocs
  uint64_t bytes_freed_total = 0;      // cumulative requested bytes returned via Free

  // E = Ma / Mr (§2.2, Eq. 1). 1.0 when nothing was reserved.
  double MemoryEfficiency() const {
    return reserved_peak == 0 ? 1.0
                              : static_cast<double>(allocated_peak) /
                                    static_cast<double>(reserved_peak);
  }
  // Fragmentation ratio = 1 - E (§9.1).
  double FragmentationRatio() const { return 1.0 - MemoryEfficiency(); }
  // Fragmentation bytes = Mr - Ma.
  uint64_t FragmentationBytes() const {
    return reserved_peak > allocated_peak ? reserved_peak - allocated_peak : 0;
  }
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  // Allocates `size` bytes; returns the device address or nullopt on OOM.
  virtual std::optional<uint64_t> Malloc(uint64_t size, const RequestContext& ctx) = 0;
  std::optional<uint64_t> Malloc(uint64_t size) { return Malloc(size, RequestContext{}); }

  // Frees a previously returned address. Returns false if the address is unknown.
  virtual bool Free(uint64_t addr) = 0;

  // Human-readable allocator name ("torch-caching", "stalloc", ...).
  virtual std::string_view name() const = 0;

  // Bytes of device memory currently reserved by this allocator.
  virtual uint64_t ReservedBytes() const = 0;

  // Releases cached, unused device memory back to the device (torch.cuda.empty_cache analogue).
  virtual void EmptyCache() {}

  // Called by the driver at iteration boundaries; allocators may trim caches.
  virtual void EndIteration() {}

  virtual const AllocatorStats& stats() const = 0;

  // Label under which this allocator's heap snapshots appear in RunRecord.heap_timeline.
  // Defaults to name(); fleet drivers disambiguate devices with "<name>@devNNN".
  void SetHeapLabel(std::string label) { heap_label_ = std::move(label); }
  std::string HeapLabel() const { return heap_label_.empty() ? std::string(name()) : heap_label_; }

  // Appends this allocator's reserved address ranges (address-sorted) for heap-map snapshots.
  // The default treats every live block as its own "direct" reservation — exact for allocators
  // without caching (native); pooling allocators override to report their real segments.
  virtual void AppendHeapSegments(std::vector<telemetry::HeapSegment>* /*out*/) const {}

 private:
  std::string heap_label_;
};

// Base class with shared accounting + stomping detection. Concrete allocators implement DoMalloc
// and DoFree; size bookkeeping and peak tracking happen here.
class AllocatorBase : public Allocator {
 public:
  using Allocator::Malloc;  // keep the single-argument convenience overload visible
  std::optional<uint64_t> Malloc(uint64_t size, const RequestContext& ctx) final;
  bool Free(uint64_t addr) final;
  const AllocatorStats& stats() const final { return stats_; }

  // Live requested size for a given address (0 if unknown). For tests.
  uint64_t LiveSize(uint64_t addr) const;

  // Default segment view: one "direct" reservation per live block. Exact for the native
  // allocator; pooling allocators override with their real segments/slabs/pools.
  void AppendHeapSegments(std::vector<telemetry::HeapSegment>* out) const override;

  // Captures a heap-map snapshot of this allocator right now and hands it to the global
  // HeapMapRecorder. No-op unless telemetry is enabled and the recorder is armed (and this
  // allocator is not suppressed / over its per-allocator snapshot cap). `failed_size` is the
  // request size for kOom snapshots.
  void CaptureHeapSnapshot(telemetry::HeapTrigger trigger, uint64_t failed_size = 0);

  // Excludes this allocator from snapshot capture. Owners of nested pools (STAlloc's caching
  // fallback, GMLake's / expandable's / vmm's small pool) call this on the inner allocator: the
  // outer live_ ledger already covers every block the inner pool serves, so an inner snapshot
  // would double-report; the outer AppendHeapSegments delegates to the inner pool for segments
  // (the VMM additionally reports its own contiguous mapped-page runs as segments).
  void SuppressHeapSnapshots() { heap_suppressed_ = true; }

 protected:
  virtual std::optional<uint64_t> DoMalloc(uint64_t size, const RequestContext& ctx) = 0;
  virtual void DoFree(uint64_t addr, uint64_t size) = 0;

  // Refreshes the reserved-bytes peak; call after any operation that changes reservations.
  void NotePressure();

 private:
  // Telemetry emission (all behind telemetry::Enabled(); see src/telemetry/). The flight ring
  // records the last N ops for the OOM flight recorder; it is created lazily on the first
  // telemetry-enabled op so disabled runs never pay for it.
  void RecordTelemetryOp(telemetry::FlightOp::Kind kind, uint64_t size, double latency_us);
  void RecordTelemetryOom(uint64_t size);

  // Heap-map capture state: trigger bookkeeping plus the request-context tag for each live
  // block (live_ itself stays a bare addr->size map — the hot path without heap mapping must
  // not grow). Created lazily on the first op while the HeapMapRecorder is armed; the config
  // is cached at creation, so arm the recorder before the run, not during it.
  struct HeapMapState {
    struct Tag {
      PhaseId phase = kInvalidPhase;
      LayerId layer = kInvalidLayer;
      StreamId stream = kComputeStream;
      bool dyn = false;
      uint64_t tenant = 0;
    };
    telemetry::HeapMapConfig config;
    std::map<uint64_t, Tag> tags;  // addr -> context at malloc time
    uint64_t next_seq = 0;
    uint64_t taken = 0;            // snapshots captured (per-allocator cap, deterministic)
    PhaseId last_phase = kInvalidPhase;
    uint64_t last_peak = 0;        // allocated bytes at the last kPeak snapshot
  };
  HeapMapState* EnsureHeapMapState();
  void MaybeHeapMapMalloc(uint64_t addr, const RequestContext& ctx);
  // Called from Free *before* the ledger mutates: the first Free descending from a new global
  // allocated high-water mark snapshots the heap while the peak-resident set is fully live —
  // the exact Ma frame, which growth-threshold ramp snapshots can only approximate.
  void MaybeHeapMapPeak();
  void MaybeHeapMapFree(uint64_t addr);
  // `urgent` snapshots (OOM, exact-peak) draw on a 2x reserve above the per-allocator cap so
  // ramp/phase snapshots cannot crowd out the two frames attribution depends on.
  void CaptureHeapSnapshotImpl(telemetry::HeapTrigger trigger, uint64_t failed_size,
                               bool urgent);

  AllocatorStats stats_;
  std::unique_ptr<telemetry::FlightRing> flight_;
  std::unique_ptr<HeapMapState> heap_;
  bool heap_suppressed_ = false;
  // addr -> requested size of live blocks, used for accounting and overlap detection.
  std::map<uint64_t, uint64_t> live_;
};

}  // namespace stalloc

#endif  // SRC_ALLOCATORS_ALLOCATOR_H_
