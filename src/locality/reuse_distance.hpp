// Reuse-distance analysis (Section 2.1 of the paper).
//
// The reuse distance of a reference is the number of *distinct* data items
// accessed between it and the closest previous reference to the same item
// (Figure 1: in `a b c a`, the second `a` has distance 2).  On a perfect
// cache — fully associative, LRU — a reuse hits iff its distance is smaller
// than the cache capacity; that equivalence is tested against the cache
// simulator.
//
// The streaming tracker costs O(log M) time per access and O(M) space, where
// M is the number of distinct data.  Each datum keeps one mark in a window
// of time-ordered slots, at the slot of its most recent access; the distance
// of a reuse is the number of marks after the datum's own.  The window is a
// rank bitvector: one bit per slot, and a Fenwick tree over the mark counts
// of 512-slot blocks (a few thousand int32 nodes, small enough to stay in
// L1).  The block that receives new marks keeps its count in a scalar
// outside the tree, folded in when the window moves on to the next block, so
// a new mark costs one bit set and one increment.  A reuse whose old mark
// lies within 8 words of the newest slot is counted by popcounting forward
// from the mark; a farther one by subtracting the tree's block prefix and a
// popcount within the mark's block from the live count.  Marks only move
// forward, so the window fills with dead slots; when it is full, the live
// marks are compacted to the front in their time order and the bitvector and
// tree are rebuilt in O(window / 64) time.  The window is resized to
// 2 * (M + 1) slots (at least 1024) at each compaction, so at least M + 1
// accesses separate two compactions and their cost amortizes to O(1) per
// access.  Per datum that is 8 bytes of slot owners, 0.25 bytes of bits and
// a negligible tree.  The last-access table is a vector of 32-bit slots
// indexed directly by key, because layout addresses divided by a granularity
// are dense; it covers the span from the lowest to the highest key seen
// (4 bytes per key), so O(M) space holds for dense keys.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "interp/trace.hpp"
#include "support/histogram.hpp"

namespace gcr {

class ReuseDistanceTracker {
 public:
  static constexpr std::uint64_t kCold = Log2Histogram::kCold;
  /// Largest key span (highest key - lowest key + 1) the last-access table
  /// may cover: 2^30 keys, a 4 GiB table.  It keeps window slots and mark
  /// counts within 32 bits.  A key that would widen the span past it throws
  /// gcr::Error before anything is allocated.
  static constexpr std::uint64_t kMaxKeySpan = std::uint64_t{1} << 30;

  /// Process one access; returns its reuse distance, or kCold for a first
  /// access.
  std::uint64_t access(std::int64_t key);

  std::uint64_t accesses() const { return time_; }
  std::uint64_t distinctData() const { return live_; }

  /// Size hint.  The last-access table is allocated for the key range
  /// [0, expectedDistinctData), the range that layout addresses divided by
  /// the granularity occupy, and the window buffers get capacity for that
  /// many data at the first compaction; keys outside the range still work
  /// and grow both on demand.  Without a hint the table starts at the first
  /// key and grows from there.
  void reserve(std::uint64_t expectedDistinctData);

 private:
  std::uint64_t coverKey(std::int64_t key);
  void compact();

  // key - base_ -> 1 + window slot of the key's last access; 0 = never seen.
  std::vector<std::uint32_t> last_;
  std::int64_t base_ = 0;
  std::uint64_t tableHint_ = 0;
  // Window slot -> key - base_ of the access placed there.
  std::vector<std::uint32_t> owner_;
  // Window slot s holds a live mark iff bit s % 64 of bits_[s / 64] is set.
  std::vector<std::uint64_t> bits_;
  // Fenwick tree (1-based) over the mark counts of the 512-slot blocks
  // before the tail block next_ / 512; the tail block's node is 0 and its
  // count is tail_.
  std::vector<std::int32_t> blocks_;
  std::uint32_t tail_ = 0;
  std::uint32_t window_ = 0;  // slots covered by bits_
  std::uint32_t next_ = 0;    // next free slot
  std::uint64_t live_ = 0;    // marks in the window = distinct data so far
  std::uint64_t time_ = 0;
};

/// O(T * D) reference implementation for differential testing.
std::vector<std::uint64_t> naiveReuseDistances(
    const std::vector<std::int64_t>& trace);

/// Full result of running reuse-distance analysis over a trace.
struct ReuseProfile {
  Log2Histogram histogram;        ///< finite reuse distances, log2-binned
  std::uint64_t accesses = 0;
  std::uint64_t distinctData = 0;

  /// Fraction of reuses (cold misses excluded) with distance >= `cap`, i.e.
  /// misses on a perfect cache holding `cap` elements.
  double missFractionAtCapacity(std::uint64_t cap) const;
};

/// InstrSink adapter: flattens instructions (reads in order, then the write)
/// through a ReuseDistanceTracker.  Addresses are divided by `granularity`
/// (pass the element size to measure element-level reuse, a cache-line size
/// to measure block-level reuse).
class ReuseDistanceSink final : public InstrSink {
 public:
  explicit ReuseDistanceSink(std::int64_t granularity = 8);

  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  /// Forwarded to the tracker; `expectedDistinctBytes` is divided by the
  /// granularity, rounding up, to size the last-access table.  The access
  /// count keeps the (accesses, bytes) shape InstrTrace::reserve has; no
  /// tracker structure grows with it.
  void reserve(std::uint64_t /*expectedAccesses*/,
               std::uint64_t expectedDistinctBytes = 0) {
    const auto g = static_cast<std::uint64_t>(granularity_);
    tracker_.reserve((expectedDistinctBytes + g - 1) / g);
  }

  const ReuseProfile& profile() const { return profile_; }
  ReuseProfile takeProfile();

 private:
  void touch(std::int64_t addr);

  std::int64_t granularity_;
  ReuseDistanceTracker tracker_;
  ReuseProfile profile_;
};

/// Run a trace (already flattened to addresses) through a tracker and build a
/// profile; convenience for tests and the reuse-driven-execution study.
ReuseProfile profileAddresses(const std::vector<std::int64_t>& addrs,
                              std::int64_t granularity = 1);

/// Aggregate per-task profiles (one per version/size/app in a parallel
/// sweep) into a suite-wide profile: histograms merge bin-wise, access
/// counts sum.  `distinctData` sums too and is therefore an upper bound —
/// the tasks' address spaces may overlap.
ReuseProfile mergeProfiles(std::span<const ReuseProfile> parts);

}  // namespace gcr
