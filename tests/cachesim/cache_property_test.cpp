// Cache-model property tests: LRU's stack property, geometry monotonicity,
// and a differential check against a naive reference model.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cachesim/cache.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

std::vector<std::int64_t> randomTrace(std::uint64_t seed, int len,
                                      std::int64_t span) {
  SplitMix64 rng(seed);
  std::vector<std::int64_t> trace;
  trace.reserve(static_cast<std::size_t>(len));
  std::int64_t cursor = rng.nextInRange(0, span);
  for (int i = 0; i < len; ++i) {
    // Mix of streaming and random jumps, like real loop traces.
    if (rng.nextBelow(4) == 0) cursor = rng.nextInRange(0, span);
    cursor = (cursor + 8) % span;
    trace.push_back(cursor);
  }
  return trace;
}

/// Naive fully-associative LRU reference.
std::uint64_t naiveFullyAssocMisses(const std::vector<std::int64_t>& trace,
                                    std::int64_t lineSize, int capacity) {
  std::list<std::int64_t> lru;  // front = most recent
  std::map<std::int64_t, std::list<std::int64_t>::iterator> where;
  std::uint64_t misses = 0;
  for (std::int64_t addr : trace) {
    const std::int64_t block = addr / lineSize;
    auto it = where.find(block);
    if (it != where.end()) {
      lru.erase(it->second);
    } else {
      ++misses;
      if (static_cast<int>(lru.size()) == capacity) {
        where.erase(lru.back());
        lru.pop_back();
      }
    }
    lru.push_front(block);
    where[block] = lru.begin();
  }
  return misses;
}

class CacheProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheProperty, FullyAssociativeMatchesNaiveLru) {
  const auto trace = randomTrace(GetParam(), 20000, 1 << 16);
  for (int lines : {4, 16, 64, 128, 256}) {
    SetAssocCache c(CacheConfig{lines * 32, 32, lines, "fa"});
    for (std::int64_t a : trace) c.access(a, false);
    EXPECT_EQ(c.stats().misses, naiveFullyAssocMisses(trace, 32, lines))
        << "lines " << lines;
  }
}

TEST_P(CacheProperty, LruStackPropertyCapacityMonotone) {
  // Inclusion/stack property: for fully-associative LRU, a larger cache
  // never misses more on the same trace.
  const auto trace = randomTrace(GetParam() * 13 + 5, 20000, 1 << 16);
  std::uint64_t prev = ~std::uint64_t{0};
  for (int lines : {2, 4, 8, 16, 32, 64, 128}) {
    SetAssocCache c(CacheConfig{lines * 32, 32, lines, "fa"});
    for (std::int64_t a : trace) c.access(a, false);
    EXPECT_LE(c.stats().misses, prev) << "lines " << lines;
    prev = c.stats().misses;
  }
}

TEST_P(CacheProperty, MoreWaysSameSetsNeverHurts) {
  // Growing associativity while keeping the set count fixed adds capacity
  // per set: per-set LRU stack property applies set by set.
  const auto trace = randomTrace(GetParam() * 3 + 7, 20000, 1 << 16);
  std::uint64_t prev = ~std::uint64_t{0};
  for (int ways : {1, 2, 4, 8}) {
    SetAssocCache c(CacheConfig{16 * ways * 32, 32, ways, "w"});
    for (std::int64_t a : trace) c.access(a, false);
    EXPECT_LE(c.stats().misses, prev) << "ways " << ways;
    prev = c.stats().misses;
  }
}

TEST_P(CacheProperty, PrefetchNeverLosesLinesItDidNotTouch) {
  // With prefetch disabled at the cache level (never calling prefetch()),
  // stats must stay prefetch-free; with prefetch, demand misses never
  // exceed the no-prefetch count on a forward-streaming trace.
  std::vector<std::int64_t> stream;
  for (std::int64_t a = 0; a < 1 << 18; a += 8) stream.push_back(a);
  SetAssocCache plain(CacheConfig{64 * 32, 32, 64, "p"});
  SetAssocCache withPf(CacheConfig{64 * 32, 32, 64, "q"});
  for (std::int64_t a : stream) {
    if (!withPf.access(a, false)) withPf.prefetch(a + 32);
    plain.access(a, false);
  }
  EXPECT_EQ(plain.stats().prefetchFills, 0u);
  EXPECT_LE(withPf.stats().misses, plain.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace gcr
