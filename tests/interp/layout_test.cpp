#include "interp/layout.hpp"

#include <gtest/gtest.h>

#include <set>

#include "apps/registry.hpp"
#include "driver/pipeline.hpp"
#include "ir/builder.hpp"

namespace gcr {
namespace {

Program twoArrays() {
  ProgramBuilder b("layouts");
  b.array("A", {AffineN::N(), AffineN::N()});
  b.array("B", {AffineN::N()});
  return b.take();
}

TEST(Layout, ContiguousRowMajor) {
  Program p = twoArrays();
  DataLayout l = contiguousLayout(p, 4);
  // A is 4x4 of 8B: 128 bytes; B is 4 of 8B: 32 bytes.
  EXPECT_EQ(l.totalBytes(), 160);
  const std::int64_t a00 = l.addressOf(0, std::vector<std::int64_t>{0, 0});
  const std::int64_t a01 = l.addressOf(0, std::vector<std::int64_t>{0, 1});
  const std::int64_t a10 = l.addressOf(0, std::vector<std::int64_t>{1, 0});
  EXPECT_EQ(a00, 0);
  EXPECT_EQ(a01 - a00, 8);       // last dimension contiguous
  EXPECT_EQ(a10 - a00, 8 * 4);   // row stride
  const std::int64_t b0 = l.addressOf(1, std::vector<std::int64_t>{0});
  EXPECT_EQ(b0, 128);
}

TEST(Layout, AllElementsDistinctAddresses) {
  Program p = twoArrays();
  DataLayout l = contiguousLayout(p, 5);
  std::set<std::int64_t> seen;
  for (std::int64_t i = 0; i < 5; ++i)
    for (std::int64_t j = 0; j < 5; ++j)
      seen.insert(l.addressOf(0, std::vector<std::int64_t>{i, j}));
  for (std::int64_t i = 0; i < 5; ++i)
    seen.insert(l.addressOf(1, std::vector<std::int64_t>{i}));
  EXPECT_EQ(seen.size(), 25u + 5u);
}

TEST(Layout, PaddingShiftsBases) {
  Program p = twoArrays();
  DataLayout plain = contiguousLayout(p, 4);
  DataLayout padded = paddedLayout(p, 4, 64);
  EXPECT_EQ(padded.layoutOf(1).base - plain.layoutOf(1).base, 64);
  EXPECT_EQ(padded.totalBytes(), plain.totalBytes() + 2 * 64);
}

TEST(Layout, ExtentHelpers) {
  Program p = twoArrays();
  EXPECT_EQ(elementCount(p.arrayDecl(0), 6), 36);
  EXPECT_EQ(concreteExtents(p.arrayDecl(1), 6),
            (std::vector<std::int64_t>{6}));
  // Non-positive extents are rejected.
  ArrayDecl bad{"bad", {AffineN(-5, 0)}, 8};
  EXPECT_THROW(concreteExtents(bad, 4), Error);
}

TEST(Layout, SizeOverflowThrowsInsteadOfWrapping) {
  // ADI at n = 3037000500: n * n > 2^63, so one array's byte size does not
  // fit in int64.  Signed overflow is undefined behaviour; it used to wrap
  // to a plausible-looking totalBytes() of 2.95e11.
  const std::int64_t n = 3037000500;
  const Program p = apps::buildApp("ADI");
  EXPECT_THROW(elementCount(p.arrayDecl(0), n), Error);
  EXPECT_THROW(contiguousLayout(p, n), Error);
  EXPECT_THROW(paddedLayout(p, n, 64), Error);

  // The regrouped layout builds its sizes with a different recursion.
  const PipelineResult r =
      runPipeline(p, pipelineOptionsFor(Strategy::FusedRegrouped));
  ASSERT_TRUE(r.regrouped);
  EXPECT_THROW(r.layoutAt(n), Error);
  EXPECT_THROW(makeVersion(p, Strategy::FusedRegrouped).layoutAt(n), Error);

  // Extents themselves are checked too: c + s * n past int64.
  ArrayDecl huge{"huge", {AffineN(1, 4)}, 8};
  EXPECT_THROW(concreteExtents(huge, std::int64_t{1} << 62), Error);

  // Large sizes that fit are unaffected: only arithmetic, no allocation.
  const std::int64_t fits = std::int64_t{1} << 20;
  EXPECT_EQ(contiguousLayout(p, fits).totalBytes(),
            r.layoutAt(fits).totalBytes());
}

}  // namespace
}  // namespace gcr
