#include "cachesim/cache.hpp"

#include <gtest/gtest.h>

#include "locality/reuse_distance.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

SetAssocCache tiny(int ways, std::int64_t lines) {
  return SetAssocCache(CacheConfig{32 * lines, 32, ways, "tiny"});
}

TEST(Cache, HitAfterFill) {
  SetAssocCache c = tiny(2, 8);
  EXPECT_FALSE(c.access(0, false));
  EXPECT_TRUE(c.access(0, false));
  EXPECT_TRUE(c.access(31, false));   // same 32B line
  EXPECT_FALSE(c.access(32, false));  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEvictionWithinSet) {
  // Direct-mapped 4-line cache: lines 0 and 4 conflict.
  SetAssocCache c(CacheConfig{4 * 32, 32, 1, "dm"});
  c.access(0, false);
  c.access(4 * 32, false);  // evicts line 0
  EXPECT_FALSE(c.access(0, false));
}

TEST(Cache, TwoWaySurvivesOneConflict) {
  SetAssocCache c(CacheConfig{8 * 32, 32, 2, "2w"});
  // Three blocks mapping to the same set (4 sets: stride 4*32).
  c.access(0, false);
  c.access(4 * 32, false);
  EXPECT_TRUE(c.access(0, false));        // still resident
  c.access(8 * 32, false);                // evicts LRU = 4*32
  EXPECT_TRUE(c.access(0, false));
  EXPECT_FALSE(c.access(4 * 32, false));
}

TEST(Cache, WritebackOnDirtyEviction) {
  SetAssocCache c(CacheConfig{1 * 32, 32, 1, "1line"});
  c.access(0, true);    // dirty
  c.access(32, false);  // evicts dirty line -> writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
  c.access(64, false);  // evicts clean line -> no writeback
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, TlbIsFullyAssociative) {
  SetAssocCache tlb = makeTlb(4, 4096);
  for (std::int64_t p = 0; p < 4; ++p) tlb.access(p * 4096, false);
  for (std::int64_t p = 0; p < 4; ++p) EXPECT_TRUE(tlb.access(p * 4096, false));
  tlb.access(4 * 4096, false);  // evicts LRU page 0
  EXPECT_FALSE(tlb.access(0, false));
  EXPECT_TRUE(tlb.access(3 * 4096, false));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{100, 32, 2, "bad"}), Error);
  EXPECT_THROW(SetAssocCache(CacheConfig{64, 33, 1, "bad"}), Error);
  EXPECT_THROW(SetAssocCache(CacheConfig{3 * 32 * 2, 32, 2, "bad"}), Error);
}

TEST(Cache, PrefetchFillsAndHits) {
  SetAssocCache c = tiny(2, 8);
  c.prefetch(64);
  EXPECT_EQ(c.stats().prefetchFills, 1u);
  EXPECT_EQ(c.stats().misses, 0u);   // prefetch is not a demand miss
  EXPECT_TRUE(c.access(64, false));  // demand hit on the prefetched line
  EXPECT_EQ(c.stats().prefetchHits, 1u);
  // Second hit is an ordinary hit — the flag was consumed.
  c.access(64, false);
  EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, PrefetchOfResidentLineIsFree) {
  SetAssocCache c = tiny(2, 8);
  c.access(0, false);
  c.prefetch(0);
  EXPECT_EQ(c.stats().prefetchFills, 0u);
}

TEST(Cache, PrefetchEvictsAndWritesBack) {
  SetAssocCache c(CacheConfig{1 * 32, 32, 1, "1line"});
  c.access(0, true);  // dirty
  c.prefetch(32);     // evicts the dirty line
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, NegativeBlockIsNotAnEmptyLine) {
  // Block -1 holds [-32, 0).  An empty line must not match it, and a
  // resident negative block must age out under LRU like any other: on one
  // 2-way set, -32, 0, 64, 0 misses three times (64 evicts -32).
  SetAssocCache c(CacheConfig{2 * 32, 32, 2, "1set"});
  EXPECT_FALSE(c.access(-32, false));
  EXPECT_FALSE(c.access(0, false));
  EXPECT_FALSE(c.access(64, false));
  EXPECT_TRUE(c.access(0, false));
  EXPECT_EQ(c.stats().misses, 3u);
  EXPECT_FALSE(c.access(-1, true));  // block -1 was evicted by 64
  c.access(64, false);
  c.access(128, false);              // evicts the dirty block -1
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, NegativePagesInHintedTlb) {
  SetAssocCache tlb = makeTlb(4, 4096);
  for (std::int64_t p = -2; p < 2; ++p)
    EXPECT_FALSE(tlb.access(p * 4096, false));
  for (std::int64_t p = -2; p < 2; ++p)
    EXPECT_TRUE(tlb.access(p * 4096 + 8, false));
  EXPECT_EQ(tlb.stats().misses, 4u);
}

TEST(Cache, ByteLinesAddressMinusOneStartsCold) {
  // With 1-byte lines block -1 has all 64 bits set, like no real block of a
  // wider line; it must still miss first and hit second.
  for (int ways : {1, 2, 4}) {
    SetAssocCache c(CacheConfig{ways, 1, ways, "byte"});
    EXPECT_FALSE(c.access(-1, false)) << ways;
    EXPECT_TRUE(c.access(-1, false)) << ways;
    c.prefetch(-1);  // resident: free
    EXPECT_EQ(c.stats().prefetchFills, 0u) << ways;
  }
  SetAssocCache c(CacheConfig{2, 1, 2, "byte"});
  c.prefetch(-1);  // not resident although an empty line's tag matches
  EXPECT_EQ(c.stats().prefetchFills, 1u);
}

// Section 2.1's equivalence: on a fully-associative LRU cache with
// element-granular lines, an access hits iff its reuse distance is smaller
// than the capacity.  Differential-test the cache against the tracker.
TEST(Cache, PerfectCacheMatchesReuseDistance) {
  constexpr std::int64_t kCapacity = 64;  // elements
  // Element-granular "cache": line size 8, fully associative.
  SetAssocCache perfect(CacheConfig{kCapacity * 8, 8, kCapacity, "perfect"});
  ReuseDistanceTracker tracker;
  SplitMix64 rng(23);
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t elem = rng.nextInRange(0, 300);
    const std::uint64_t dist = tracker.access(elem);
    const bool hit = perfect.access(elem * 8, false);
    const bool expectHit =
        dist != ReuseDistanceTracker::kCold && dist < kCapacity;
    EXPECT_EQ(hit, expectHit) << "access " << i << " elem " << elem
                              << " dist " << dist;
  }
}

}  // namespace
}  // namespace gcr
