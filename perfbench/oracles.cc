#include "perfbench/oracles.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

PeakLive PeakLiveBytes(const std::vector<Lifetime>& lifetimes, uint64_t pad_align) {
  struct Edge {
    uint64_t tick;
    bool is_free;
    uint64_t requested;
    uint64_t padded;
  };
  std::vector<Edge> edges;
  edges.reserve(lifetimes.size() * 2);
  for (const Lifetime& l : lifetimes) {
    const uint64_t padded = (l.size + pad_align - 1) / pad_align * pad_align;
    edges.push_back({l.ts, false, l.size, padded});
    edges.push_back({l.te, true, l.size, padded});
  }
  // Frees sort before allocations at the same tick.
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.tick != b.tick ? a.tick < b.tick : a.is_free > b.is_free;
  });
  PeakLive peak;
  uint64_t requested = 0;
  uint64_t padded = 0;
  for (const Edge& e : edges) {
    if (e.is_free) {
      requested -= e.requested;
      padded -= e.padded;
    } else {
      requested += e.requested;
      padded += e.padded;
      peak.requested = std::max(peak.requested, requested);
      peak.padded = std::max(peak.padded, padded);
    }
  }
  return peak;
}

bool LiveBlockChecker::OnMalloc(uint64_t addr, uint64_t size) {
  bool ok = size > 0 && addr + size > addr;
  auto next = live_.lower_bound(addr);
  if (ok && next != live_.end() && next->first < addr + size) {
    ok = false;
  }
  if (ok && next != live_.begin() && std::prev(next)->first + std::prev(next)->second > addr) {
    ok = false;
  }
  if (!ok) {
    ++violations_;
    return false;
  }
  live_.emplace_hint(next, addr, size);
  live_bytes_ += size;
  return true;
}

bool LiveBlockChecker::OnFree(uint64_t addr) {
  auto it = live_.find(addr);
  if (it == live_.end()) {
    ++violations_;
    return false;
  }
  live_bytes_ -= it->second;
  live_.erase(it);
  return true;
}

std::string CheckPlacement(const std::vector<PlacedBlock>& blocks,
                           const std::vector<uint64_t>& expected_ids, uint64_t pool) {
  std::vector<uint64_t> placed;
  placed.reserve(blocks.size());
  for (const PlacedBlock& b : blocks) {
    placed.push_back(b.id);
    if (b.addr + b.size < b.addr || b.addr + b.size > pool) {
      return "block " + std::to_string(b.id) + " ends past the pool (" + std::to_string(pool) +
             ")";
    }
    if (b.te <= b.ts) {
      return "block " + std::to_string(b.id) + " has an empty lifetime";
    }
  }
  std::vector<uint64_t> expected = expected_ids;
  std::sort(placed.begin(), placed.end());
  std::sort(expected.begin(), expected.end());
  const auto dup = std::adjacent_find(placed.begin(), placed.end());
  if (dup != placed.end()) {
    return "request " + std::to_string(*dup) + " is placed more than once";
  }
  if (placed != expected) {
    return "placed requests differ from the expected set (" + std::to_string(placed.size()) +
           " placed, " + std::to_string(expected.size()) + " expected)";
  }

  // Sweep in time; the blocks live at each instant are kept address-ordered and pairwise
  // disjoint, so each newcomer only needs checking against its two address neighbours.
  std::vector<const PlacedBlock*> by_start;
  by_start.reserve(blocks.size());
  for (const PlacedBlock& b : blocks) {
    by_start.push_back(&b);
  }
  std::sort(by_start.begin(), by_start.end(),
            [](const PlacedBlock* a, const PlacedBlock* b) { return a->ts < b->ts; });
  std::multimap<uint64_t, const PlacedBlock*> ends;  // te -> block, for expiry
  std::map<uint64_t, const PlacedBlock*> live;       // addr -> block
  for (const PlacedBlock* b : by_start) {
    while (!ends.empty() && ends.begin()->first <= b->ts) {
      live.erase(ends.begin()->second->addr);
      ends.erase(ends.begin());
    }
    if (b->size == 0) {
      continue;
    }
    auto next = live.lower_bound(b->addr);
    const PlacedBlock* clash = nullptr;
    if (next != live.end() && next->first < b->addr + b->size) {
      clash = next->second;
    } else if (next != live.begin() &&
               std::prev(next)->first + std::prev(next)->second->size > b->addr) {
      clash = std::prev(next)->second;
    }
    if (clash != nullptr) {
      return "blocks " + std::to_string(clash->id) + " and " + std::to_string(b->id) +
             " overlap in time and address";
    }
    live.emplace_hint(next, b->addr, b);
    ends.emplace(b->te, b);
  }
  return "";
}

}  // namespace perfbench
