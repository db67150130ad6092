// Set-associative LRU cache model.
//
// Geometry matches the paper's machines (SGI Octane R10K and Origin2000
// R12K): L1 32KB / 32B lines, L2 1MB or 4MB / 128B lines, both 2-way.  The
// same class models the TLB (numSets = 1, ways = entry count, lineSize =
// page size) and the "perfect cache" of Section 2.1 (fully associative).
// Policy: write-back, write-allocate, true LRU (a per-line timestamp; the
// victim is the line with the oldest one).
//
// Cost: a hit is O(1) at every associativity.  With 1 or 2 ways the probe
// is the unrolled tag compare.  With more ways a hint table, sized about 4x
// the line count and never larger than the line array, maps a hash of the
// block number to the way the block was last seen in; a hit needs that one
// probe.  A hint is only a guess; the tag compare decides.  On a hint
// mismatch or a miss the set is scanned linearly, and the scan is the only
// source of truth.  The scan and every fill (demand or prefetch) refresh the
// hint.  A miss costs O(ways): the scan plus the LRU victim search.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/assert.hpp"

namespace gcr {

struct CacheConfig {
  std::int64_t sizeBytes = 0;
  std::int64_t lineSize = 0;
  int ways = 0;
  std::string name;

  std::int64_t numSets() const { return sizeBytes / (lineSize * ways); }
  /// Every dimension positive; SetAssocCache also checks the shape.
  bool positive() const { return sizeBytes > 0 && lineSize > 0 && ways > 0; }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetchFills = 0;  ///< lines brought in by prefetch()
  std::uint64_t prefetchHits = 0;   ///< demand hits on prefetched lines

  std::uint64_t hits() const { return accesses - misses; }
  double missRate() const {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Simulate one reference; returns true on hit.
  bool access(std::int64_t addr, bool isWrite);

  /// Bring the line holding `addr` into the cache without a demand access —
  /// the model for (software or next-line hardware) prefetching.  A later
  /// demand hit on the line is counted as a prefetch hit.  Prefetch fills
  /// consume memory bandwidth like any fill; that tradeoff (latency hidden,
  /// bandwidth spent) is the paper's Section 1 argument for why
  /// latency-oriented techniques cannot replace traffic reduction.
  void prefetch(std::int64_t addr);

  /// True when the most recent access() hit a line brought in by
  /// prefetch() — used for tagged prefetching (keep the stream running).
  bool lastHitWasPrefetched() const { return lastHitWasPrefetched_; }

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void resetStats() { stats_ = CacheStats{}; }

 private:
  /// Tag of an empty line.  Blocks are addresses shifted right logically,
  /// so with lines of two bytes or more no block equals it.  With 1-byte
  /// lines address -1 does; probe() leaves that block to the scan, which
  /// also requires lastUse != 0 (only an empty line has lastUse 0).
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

  struct Line {
    std::uint64_t tag = kNoBlock;
    std::uint64_t lastUse = 0;
    bool dirty = false;
    bool prefetched = false;
  };

  std::uint64_t blockOf(std::int64_t addr) const {
    return static_cast<std::uint64_t>(addr) >> lineShift_;
  }
  Line* setOf(std::uint64_t block) {
    return &lines_[static_cast<std::size_t>(block & setMask_) *
                   static_cast<std::size_t>(ways_)];
  }
  std::uint32_t& hintOf(std::uint64_t block) {
    return hints_[static_cast<std::size_t>(
        (block * 0x9E3779B97F4A7C15ull) >> hintShift_)];
  }
  /// The one-probe hit check: the matching way of a 1- or 2-way set, else
  /// the hinted way.  Null means "not known resident", not "miss".
  Line* probe(Line* base, std::uint64_t block) {
    if (block == kNoBlock) [[unlikely]]
      return nullptr;
    // Pick the candidate way without a branch (which way of a 2-way set
    // holds the block is close to random); only hit/miss branches.
    Line* const candidate =
        base + (ways_ <= 2 ? std::size_t{ways_ == 2 && base[1].tag == block}
                           : hintOf(block));
    return candidate->tag == block ? candidate : nullptr;
  }
  /// Linear scan of the set; refreshes the hint when it finds the block.
  Line* scan(Line* base, std::uint64_t block);
  /// Hit path after probe() failed: scan, and on a true miss fill.
  bool accessSlow(Line* base, std::uint64_t block, bool isWrite);
  void hit(Line& line, bool isWrite);
  /// Evict the set's LRU line (writing it back if dirty) and install
  /// `block` there.
  void fill(Line* base, std::uint64_t block, bool dirty, bool prefetched);

  CacheConfig cfg_;
  std::vector<Line> lines_;  // numSets * ways, set-major
  std::vector<std::uint32_t> hints_;  // empty unless ways > 2
  std::uint64_t setMask_;
  int lineShift_;
  int ways_;
  int hintShift_ = 64;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  bool lastHitWasPrefetched_ = false;
};

inline void SetAssocCache::hit(Line& line, bool isWrite) {
  line.lastUse = clock_;
  line.dirty = line.dirty || isWrite;
  if (line.prefetched) [[unlikely]] {
    ++stats_.prefetchHits;
    line.prefetched = false;
    lastHitWasPrefetched_ = true;
  }
}

inline bool SetAssocCache::access(std::int64_t addr, bool isWrite) {
  ++stats_.accesses;
  ++clock_;
  lastHitWasPrefetched_ = false;
  const std::uint64_t block = blockOf(addr);
  Line* const base = setOf(block);
  Line* const line = probe(base, block);
  if (line == nullptr) [[unlikely]]
    return accessSlow(base, block, isWrite);
  hit(*line, isWrite);
  return true;
}

/// Fully-associative-LRU TLB is a 1-set cache over page-granular addresses.
SetAssocCache makeTlb(int entries, std::int64_t pageSize,
                      const std::string& name = "TLB");

}  // namespace gcr
