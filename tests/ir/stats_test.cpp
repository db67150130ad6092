#include "ir/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "ir/builder.hpp"

namespace gcr {
namespace {

TEST(Stats, CountsLoopsNestsLevels) {
  ProgramBuilder b("stats");
  ArrayId a = b.array("A", {AffineN::N(), AffineN::N()});
  ArrayId c = b.array("B", {AffineN::N(), AffineN::N()});
  b.array("Unused", {AffineN::N()});
  b.loop2("i", 0, AffineN::N() - AffineN(1), "j", 0, AffineN::N() - AffineN(1),
          [&](IxVar i, IxVar j) { b.assign(b.ref(a, {i, j}), {}); });
  b.loop("i", 0, AffineN::N() - AffineN(1), [&](IxVar i) {
    b.assign(b.ref(c, {i, cst(0)}), {b.ref(a, {i, cst(0)})});
  });
  Program p = b.take();
  const ProgramStats st = computeStats(p);
  EXPECT_EQ(st.numArrays, 3);
  EXPECT_EQ(st.numArraysUsed, 2);
  EXPECT_EQ(st.numStatements, 2);
  EXPECT_EQ(st.numLoops, 3);
  EXPECT_EQ(st.numLoopNests, 2);
  EXPECT_EQ(st.maxLevel, 2);
  ASSERT_EQ(st.loopsPerLevel.size(), 2u);
  EXPECT_EQ(st.loopsPerLevel[0], 2);
  EXPECT_EQ(st.loopsPerLevel[1], 1);
  EXPECT_FALSE(st.summary().empty());
}

// for i in [lo, hi]: A[0] = A[0] + A[0] — three references per iteration.
Program oneLoop(AffineN lo, AffineN hi) {
  ProgramBuilder b("refs");
  ArrayId a = b.array("A", {AffineN(1)});
  b.loop("i", lo, hi, [&](IxVar) {
    b.assign(b.ref(a, {cst(0)}), {b.ref(a, {cst(0)}), b.ref(a, {cst(0)})});
  });
  return b.take();
}

TEST(Stats, EstimateDynamicRefsCountsTripsTimesRefsTimesSteps) {
  const Program p = oneLoop(0, AffineN::N() - AffineN(1));
  EXPECT_EQ(estimateDynamicRefs(p, 10, 1), 30u);
  EXPECT_EQ(estimateDynamicRefs(p, 10, 7), 210u);
  EXPECT_EQ(estimateDynamicRefs(p, 0, 7), 0u);
}

TEST(Stats, EstimateDynamicRefsSaturatesInsteadOfWrapping) {
  const Program p = oneLoop(0, AffineN::N() - AffineN(1));
  // 3 * 2^40 references per step times 2^30 steps is 3 * 2^70.
  constexpr std::int64_t n = std::int64_t{1} << 40;
  EXPECT_EQ(estimateDynamicRefs(p, n, std::uint64_t{1} << 30), UINT64_MAX);
  // Just below the limit nothing saturates.
  EXPECT_EQ(estimateDynamicRefs(p, n, std::uint64_t{1} << 20),
            3 * (std::uint64_t{1} << 60));
  // The reference count alone overflows: 3 * 2^63.
  EXPECT_EQ(estimateDynamicRefs(p, std::int64_t{1} << 62, 2), UINT64_MAX);
  // A loop over the whole int64 range has 2^64 trips.
  EXPECT_EQ(estimateDynamicRefs(oneLoop(INT64_MIN, INT64_MAX), 1, 1),
            UINT64_MAX);

  // The trip-count product of a 2-deep nest overflows: 2^35 * 2^35.
  ProgramBuilder b("nest");
  ArrayId a = b.array("A", {AffineN(1)});
  b.loop2("i", 0, AffineN::N() - AffineN(1), "j", 0,
          AffineN::N() - AffineN(1),
          [&](IxVar, IxVar) { b.assign(b.ref(a, {cst(0)}), {}); });
  const Program nest = b.take();
  EXPECT_EQ(estimateDynamicRefs(nest, 1000, 1), 1000000u);
  EXPECT_EQ(estimateDynamicRefs(nest, std::int64_t{1} << 35, 1), UINT64_MAX);
}

}  // namespace
}  // namespace gcr
