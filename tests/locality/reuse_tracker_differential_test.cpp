// Differential tests pinning ReuseDistanceTracker (a rank-bitvector window
// over a direct-indexed last-access table) to two slower exact references,
// access by access: naiveReuseDistances on short traces and the O(log T)
// referee tracker on long ones.  The traces are chosen to force many window
// compactions, table growth at either end, and old marks at the edges of the
// bitvector's words, blocks and popcount scan; the app sweep checks that
// whole profiles stay byte-identical.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "ir/stats.hpp"
#include "locality/referee_reuse_tracker.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/sampled_reuse.hpp"
#include "store/codec.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

using testing::RefereeReuseTracker;
using testing::RefereeReuseSink;

// Per-access comparison against the referee, and against the naive
// definition too when the trace is no longer than `naiveLimit` (its cost is
// O(T * D)).
void expectExact(const std::vector<std::int64_t>& trace,
                 const std::string& what, std::size_t naiveLimit = 4000) {
  std::vector<std::uint64_t> naive;
  if (trace.size() <= naiveLimit) naive = naiveReuseDistances(trace);
  ReuseDistanceTracker t;
  RefereeReuseTracker ref;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t d = t.access(trace[i]);
    ASSERT_EQ(d, ref.access(trace[i])) << what << " pos " << i;
    if (!naive.empty()) {
      ASSERT_EQ(d, naive[i]) << what << " pos " << i;
    }
  }
  EXPECT_EQ(t.accesses(), ref.accesses()) << what;
  EXPECT_EQ(t.distinctData(), ref.distinctData()) << what;
}

TEST(ReuseTrackerDifferential, AllSameOver100kAccesses) {
  expectExact(std::vector<std::int64_t>(100000, 42), "all-same");
  expectExact(std::vector<std::int64_t>(3000, -9), "all-same short");
}

TEST(ReuseTrackerDifferential, AllDistinct) {
  // Every access is cold: the window doubles through every compaction.
  std::vector<std::int64_t> trace;
  for (std::int64_t i = 0; i < 100000; ++i) trace.push_back(i);
  expectExact(trace, "all-distinct");
  trace.resize(3000);
  expectExact(trace, "all-distinct short");
}

TEST(ReuseTrackerDifferential, AlternatingPairCompactsOften) {
  // Two data alternate: every reuse is at distance 1, so every access moves
  // a mark and a 1024-slot window compacts about every thousand accesses.
  std::vector<std::int64_t> trace;
  for (int i = 0; i < 50000; ++i) trace.push_back(i % 2);
  expectExact(trace, "alternating");
}

TEST(ReuseTrackerDifferential, WorkingSetsGrowAndShrink) {
  // Cyclic scans over a working set that grows to 5000 data and shrinks
  // back: the window is resized up and down across compactions while old
  // data stay live.
  std::vector<std::int64_t> trace;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::int64_t w = 1; w <= 5000; w = w * 3 / 2 + 1)
      for (int pass = 0; pass < 3; ++pass)
        for (std::int64_t i = 0; i < w; ++i) trace.push_back(i);
    for (std::int64_t w = 5000; w >= 1; w = w * 2 / 3)
      for (int pass = 0; pass < 3; ++pass)
        for (std::int64_t i = 0; i < w; ++i) trace.push_back(w - i);
  }
  expectExact(trace, "grow-shrink");

  std::vector<std::int64_t> shortTrace;
  for (std::int64_t w : {3, 40, 700, 60, 5, 900, 2})
    for (int pass = 0; pass < 2 && shortTrace.size() < 3800; ++pass)
      for (std::int64_t i = 0; i < w; ++i) shortTrace.push_back(i * 7);
  expectExact(shortTrace, "grow-shrink short");
}

TEST(ReuseTrackerDifferential, RandomHotAndColdMix) {
  SplitMix64 rng(5);
  std::vector<std::int64_t> trace;
  while (trace.size() < 200000) {
    const std::int64_t span = rng.nextBelow(2) ? 64 : 20000;
    for (int i = 0; i < 500; ++i) trace.push_back(rng.nextInRange(0, span));
  }
  expectExact(trace, "hot-cold");
}

TEST(ReuseTrackerDifferential, NegativeAndSparseKeys) {
  SplitMix64 rng(11);
  std::vector<std::int64_t> sparse;
  for (int i = 0; i < 60000; ++i)
    sparse.push_back(rng.nextInRange(-2000, 2000) * 997 - 123456789);
  expectExact(sparse, "sparse negative");

  // Keys walking outward on both sides: the table grows at its front and
  // its back in turn, renumbering the window's owners on each front growth.
  std::vector<std::int64_t> outward;
  for (std::int64_t i = 0; i < 20000; ++i) {
    outward.push_back(i);
    outward.push_back(-i);
    outward.push_back(i / 2);
  }
  expectExact(outward, "outward");
  outward.resize(3000);
  expectExact(outward, "outward short");

  // Keys at both ends of the int64 range, one tracker per end.
  std::vector<std::int64_t> low, high;
  for (int i = 0; i < 20000; ++i) {
    low.push_back(INT64_MIN + rng.nextInRange(0, 5000));
    high.push_back(INT64_MAX - rng.nextInRange(0, 5000));
  }
  expectExact(low, "near INT64_MIN");
  expectExact(high, "near INT64_MAX");
}

TEST(ReuseTrackerDifferential, ReserveHintDoesNotChangeDistances) {
  // The hint places the table at [0, hint); keys outside it, below zero and
  // past the end, must still come out exact.
  SplitMix64 rng(3);
  std::vector<std::int64_t> trace;
  for (int i = 0; i < 30000; ++i) trace.push_back(rng.nextInRange(-300, 3000));
  ReuseDistanceTracker hinted;
  hinted.reserve(1000);
  RefereeReuseTracker ref;
  for (std::size_t i = 0; i < trace.size(); ++i)
    ASSERT_EQ(hinted.access(trace[i]), ref.access(trace[i])) << "pos " << i;
  EXPECT_EQ(hinted.distinctData(), ref.distinctData());
}

TEST(ReuseTrackerDifferential, KeySpanBeyondCapThrows) {
  ReuseDistanceTracker t;
  t.access(0);
  t.access(5);
  const auto cap = static_cast<std::int64_t>(ReuseDistanceTracker::kMaxKeySpan);
  EXPECT_THROW(t.access(cap), Error);
  EXPECT_THROW(t.access(-cap), Error);
  EXPECT_THROW(t.access(INT64_MAX), Error);
  EXPECT_THROW(t.access(INT64_MIN), Error);
  // A refused key leaves the tracker as it was.
  EXPECT_EQ(t.accesses(), 2u);
  EXPECT_EQ(t.access(0), 1u);
  EXPECT_EQ(t.distinctData(), 2u);

  ReuseDistanceTracker extremes;
  extremes.access(INT64_MIN);
  EXPECT_THROW(extremes.access(INT64_MAX), Error);
  EXPECT_EQ(extremes.access(INT64_MIN), 0u);
}

// Slot geometry the bitvector tests below rely on: the k-th access of a trace
// whose accesses are all cold lands in window slot k, because a compaction
// then finds every mark live and leaves it in place.  The windows such a
// trace passes through hold 1024, 2050 and 4102 slots.  A block is 512 slots
// (8 words of 64), and a reuse whose old mark is at most 8 words before the
// newest slot's word is counted by popcount alone.

// Datum 0 marked at `prevSlot`, then cold fillers up to `endSlot`, then
// datum 0 again.  Then every datum twice more, newest first: the first pass
// counts old marks on both sides of the cleared one, the second counts
// through blocks the first pass filled.
std::vector<std::int64_t> reuseAcross(std::int64_t prevSlot,
                                      std::int64_t endSlot) {
  std::vector<std::int64_t> trace;
  for (std::int64_t s = 0; s < prevSlot; ++s) trace.push_back(s + 1);
  trace.push_back(0);
  for (std::int64_t s = prevSlot + 1; s <= endSlot; ++s) trace.push_back(s);
  trace.push_back(0);
  for (int pass = 0; pass < 2; ++pass)
    for (std::int64_t s = endSlot; s >= 0; --s) trace.push_back(s);
  return trace;
}

TEST(ReuseTrackerDifferential, BitvectorWordBlockAndScanEdges) {
  // Old marks at bit 0 and bit 63 of a word, at both ends of a block, and
  // across the 1024- and 2050-slot windows; newest marks 0 to 17 words
  // later, ending at bit 0 or 63 of their word.  Spans of 8 words are the
  // last counted by popcount alone, 9 the first counted through the tree.
  // With the newest mark in the same block the old mark is in the tail
  // block; with it in the next block, in the block just before the tail.
  for (std::int64_t prevSlot : {0, 63, 64, 127, 448, 511, 512, 575, 1023,
                                1024, 1535, 2047, 2049, 2050}) {
    for (std::int64_t spanWords : {0, 1, 7, 8, 9, 10, 17}) {
      for (std::int64_t endBit : {0, 63}) {
        const std::int64_t endSlot = (prevSlot / 64 + spanWords) * 64 + endBit;
        if (endSlot <= prevSlot) continue;
        expectExact(reuseAcross(prevSlot, endSlot),
                    "prev " + std::to_string(prevSlot) + " end " +
                        std::to_string(endSlot),
                    /*naiveLimit=*/0);
      }
    }
  }
}

TEST(ReuseTrackerDifferential, CompactionLeavesPartialTailBlock) {
  // Cyclic scans over m data compact to m live marks in a window of
  // 2 * (m + 1) slots, none of them a multiple of 512 but 1024 and 2048.
  // At m = 1023 the compaction leaves a tail block with 511 marks and the
  // very next mark crosses into the next block; at 700 and 2500 the tail is
  // partly filled and the crossing comes later.  Random reuses afterwards
  // put old marks in every block, tail included.
  for (std::int64_t m : {511, 512, 513, 700, 1023, 1024, 1535, 2500}) {
    std::vector<std::int64_t> trace;
    for (int pass = 0; pass < 6; ++pass)
      for (std::int64_t i = 0; i < m; ++i) trace.push_back(i);
    SplitMix64 rng(static_cast<std::uint64_t>(m));
    for (std::int64_t i = 0; i < 4 * m; ++i)
      trace.push_back(rng.nextInRange(0, m - 1));
    expectExact(trace, "m " + std::to_string(m), /*naiveLimit=*/0);
  }
}

// Expected output of a SampledReuseTracker, built from the referee over the
// sampled keys and the documented scaling.
void expectSampledExact(double rate, const std::vector<std::int64_t>& trace) {
  SampledReuseTracker sampled(rate);
  RefereeReuseTracker ref;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    std::uint64_t expected = SampledReuseTracker::kNotSampled;
    if (sampled.isSampled(trace[i])) {
      expected = ref.access(trace[i]);
      if (expected != SampledReuseTracker::kCold && rate < 1.0)
        expected = static_cast<std::uint64_t>(
            std::llround(static_cast<double>(expected) / rate));
    }
    ASSERT_EQ(sampled.access(trace[i]), expected)
        << "rate " << rate << " pos " << i;
  }
  EXPECT_EQ(sampled.sampledAccesses(), ref.accesses());
  EXPECT_EQ(sampled.distinctSampled(), ref.distinctData());
}

TEST(ReuseTrackerDifferential, SampledTrackerAtRate1And1Over64) {
  SplitMix64 rng(29);
  std::vector<std::int64_t> trace;
  while (trace.size() < 300000) {
    const std::int64_t base = rng.nextInRange(-50000, 50000);
    const std::int64_t w = rng.nextInRange(16, 40000);
    for (std::int64_t i = 0; i < w && trace.size() < 300000; ++i)
      trace.push_back(base + i);
  }
  expectSampledExact(1.0, trace);
  expectSampledExact(1.0 / 64.0, trace);
}

TEST(ReuseTrackerDifferential, RegistryAppsByteIdenticalProfiles) {
  // Every registry app at a small size, under the three strategies the
  // figures use, at element and cache-line granularity.
  for (const apps::AppInfo& app : apps::evaluationApps()) {
    const Program prog = app.build();
    const std::int64_t n = app.name == "SP" ? 8 : 24;
    for (Strategy s :
         {Strategy::NoOpt, Strategy::Fused, Strategy::FusedRegrouped}) {
      const ProgramVersion v = makeVersion(prog, s);
      const DataLayout layout = v.layoutAt(n);
      for (std::int64_t g : {8, 128}) {
        const std::string what = app.name + " strategy " +
                                 std::to_string(static_cast<int>(s)) +
                                 " granularity " + std::to_string(g);
        ReuseDistanceSink sink(g);
        sink.reserve(estimateDynamicRefs(v.program, n, 1),
                     static_cast<std::uint64_t>(layout.totalBytes()));
        RefereeReuseSink referee(g);
        TeeSink tee({&sink, &referee});
        execute(v.program, layout, {.n = n}, &tee);
        const ReuseProfile got = sink.takeProfile();
        const ReuseProfile want = referee.takeProfile();
        EXPECT_EQ(store::encodeReuseProfile(got),
                  store::encodeReuseProfile(want))
            << what;
        EXPECT_EQ(got.histogram.toCsv(), want.histogram.toCsv()) << what;
        EXPECT_EQ(got.histogram.coldCount(), want.histogram.coldCount())
            << what;
        for (int b = 0; b <= Log2Histogram::kMaxBin; ++b)
          EXPECT_EQ(got.histogram.binCount(b), want.histogram.binCount(b))
              << what << " bin " << b;
        EXPECT_GT(got.histogram.totalFinite(), 0u) << what;
      }
    }
  }
}

}  // namespace
}  // namespace gcr
