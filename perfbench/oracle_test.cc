// Tests of the benchmark's oracles on hand-built tiny cases whose answers are worked out by
// hand in the comments. Exits non-zero on the first wrong answer; run.py runs it after every
// build, before any measurement.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/oracles.h"

namespace {

using perfbench::CheckPlacement;
using perfbench::LiveBlockChecker;
using perfbench::Lifetime;
using perfbench::PeakLiveBytes;
using perfbench::PlacedBlock;

int g_failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "oracle_test: FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestPeakLive() {
  // A [0,10) 100 B, B [2,5) 1000 B, C [5,8) 600 B, D [9,12) 1 B.
  // Live sets: t=2..4 {A,B} = 1100; t=5..7 {A,C} = 700 (B freed at 5 before C starts);
  // t=9 {A,D} = 101. Requested peak 1100. Padded to 512: A 512, B 1024, C 1024, D 512:
  // {A,B} = 1536, {A,C} = 1536, {A,D} = 1024 -> 1536.
  const std::vector<Lifetime> trace = {{0, 10, 100}, {2, 5, 1000}, {5, 8, 600}, {9, 12, 1}};
  const perfbench::PeakLive peak = PeakLiveBytes(trace, 512);
  Expect(peak.requested == 1100, "requested peak of the four-request trace is 1100");
  Expect(peak.padded == 1536, "padded peak of the four-request trace is 1536");

  // Back-to-back reuse: X [0,4) 300 B then Y [4,6) 300 B never coexist -> peak 300, not 600.
  const perfbench::PeakLive chain = PeakLiveBytes({{0, 4, 300}, {4, 6, 300}}, 1);
  Expect(chain.requested == 300, "a free at tick t precedes an allocation at tick t");
  Expect(PeakLiveBytes({}, 512).requested == 0, "an empty trace has no live bytes");
}

void TestLiveBlockChecker() {
  LiveBlockChecker c;
  Expect(c.OnMalloc(0, 100), "[0,100) into an empty heap");
  Expect(c.OnMalloc(100, 50), "[100,150) touches but does not overlap [0,100)");
  Expect(!c.OnMalloc(149, 10), "[149,159) overlaps [100,150)");
  Expect(!c.OnMalloc(50, 10), "[50,60) lies inside [0,100)");
  Expect(!c.OnMalloc(200, 0), "an empty block is a violation");
  Expect(c.live_bytes() == 150 && c.live_blocks() == 2, "two live blocks, 150 bytes");
  Expect(c.OnFree(0), "free of a live block");
  Expect(!c.OnFree(0), "double free");
  Expect(!c.OnFree(7), "free of an address never handed out");
  Expect(c.OnMalloc(40, 60), "[40,100) fits once [0,100) is gone");
  Expect(c.violations() == 5, "five violations counted");
}

void TestCheckPlacement() {
  // Two requests that share addresses but not time, one that shares time but not addresses.
  const std::vector<PlacedBlock> good = {
      {0, 0, 5, 0, 512}, {1, 5, 9, 0, 512}, {2, 0, 9, 512, 1024}};
  Expect(CheckPlacement(good, {0, 1, 2}, 1536).empty(), "valid three-block plan");
  Expect(!CheckPlacement(good, {0, 1, 2}, 1535).empty(), "block 2 ends at 1536 > pool 1535");
  Expect(!CheckPlacement(good, {0, 1, 2, 3}, 1536).empty(), "request 3 is never placed");
  Expect(!CheckPlacement(good, {0, 1}, 1536).empty(), "request 2 is not a static request");

  std::vector<PlacedBlock> twice = good;
  twice.push_back({1, 5, 9, 0, 512});
  Expect(!CheckPlacement(twice, {0, 1, 2}, 1536).empty(), "request 1 placed twice");

  // Block 1 starts at tick 4, while block 0 [0,5) still holds [0,512): a stomp.
  const std::vector<PlacedBlock> stomp = {{0, 0, 5, 0, 512}, {1, 4, 9, 256, 512}};
  Expect(!CheckPlacement(stomp, {0, 1}, 1024).empty(), "time and address overlap");

  // An overlap hidden behind a non-neighbour: block 2 spans [0,2048) while 0 and 1 are live.
  const std::vector<PlacedBlock> wide = {
      {0, 0, 9, 0, 512}, {1, 0, 9, 1024, 512}, {2, 1, 3, 600, 100}, {3, 3, 4, 0, 2048}};
  Expect(!CheckPlacement(wide, {0, 1, 2, 3}, 4096).empty(), "overlap with both neighbours");
}

}  // namespace

int main() {
  TestPeakLive();
  TestLiveBlockChecker();
  TestCheckPlacement();
  if (g_failures != 0) {
    std::fprintf(stderr, "oracle_test: %d failure(s)\n", g_failures);
    return 1;
  }
  return 0;
}
