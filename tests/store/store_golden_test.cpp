// Golden bytes of the five store codecs: the FNV-1a 64 digest of each
// artifact's encoding for fixed, deterministic inputs.  Round-trip and
// canonical-re-encoding tests cannot see an encoder and decoder that are
// reordered together; these digests can.  A digest that changes means every
// store written before the change is unreadable, so a deliberate change to
// an artifact's encoding must bump that codec's version as well as the
// digest here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "driver/pipeline.hpp"
#include "store/codec.hpp"
#include "store/format.hpp"

namespace gcr::store {
namespace {

std::string digest(const std::vector<std::uint8_t>& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fnv1a64(bytes));
  return hex;
}

TEST(StoreGolden, MeasurementBytes) {
  Measurement m;
  m.counts.refs = 1000003;
  m.counts.l1Misses = 40961;
  m.counts.l2Misses = 5077;
  m.counts.tlbMisses = 311;
  m.counts.l2Writebacks = 1201;
  m.counts.l2Prefetches = 977;
  m.counts.l2PrefetchHits = 613;
  m.cycles = 2.5e7 + 0.125;
  m.memoryTrafficBytes = 649856;
  m.effectiveBandwidth = std::numeric_limits<double>::quiet_NaN();
  m.wallSeconds = 0.0375;
  m.accessesPerSecond = -1.0 / 3.0;
  EXPECT_EQ(digest(encodeMeasurement(m)), "2a09e31968f4df86");
}

TEST(StoreGolden, ReuseProfileBytes) {
  ReuseProfile p;
  p.histogram.add(Log2Histogram::kCold, 77);
  p.histogram.add(0, 10);
  p.histogram.add(3, 20);
  p.histogram.add(12345, 30);
  p.histogram.add(std::uint64_t{1} << 40, 5);
  p.accesses = 142;
  p.distinctData = 77;
  EXPECT_EQ(digest(encodeReuseProfile(p)), "3747012594c3c943");
}

TEST(StoreGolden, AdiFusedRegroupedPipelineResultBytes) {
  const PipelineResult r =
      runPipeline(apps::buildApp("ADI"),
                  pipelineOptionsFor(Strategy::FusedRegrouped));
  ASSERT_TRUE(r.regrouped);
  EXPECT_EQ(digest(encodePipelineResult(r)), "9c816475516d586f");
}

TEST(StoreGolden, SwimSymbolicProfileBytes) {
  const SymbolicReuseProfile p = analyzeSymbolicReuse(apps::buildApp("Swim"));
  ASSERT_FALSE(p.sites.empty());
  EXPECT_EQ(digest(encodeSymbolicProfile(p)), "8db628cf08fc7671");
}

TEST(StoreGolden, TwoCoreMulticoreProfileBytes) {
  MulticoreProfile p;
  p.cores = 2;
  p.schedule = ParallelSchedule::Cyclic;
  p.llcCapacityLines = 131072;
  p.perCore = {{5000, 600, 70, 8, 2500, 90}, {4000, 500, 60, 9, 2000, 80}};
  p.shared.add(Log2Histogram::kCold, 170);
  p.shared.add(1, 4);
  p.shared.add(700, 11);
  p.sharedAccesses = 4500;
  p.sharedColdLines = 170;
  p.llcMissFraction = 0.0625;
  p.cycles = 123456.75;
  p.wallSeconds = 0.5;
  EXPECT_EQ(digest(encodeMulticoreProfile(p)), "50b9622fda129ff1");
}

}  // namespace
}  // namespace gcr::store
