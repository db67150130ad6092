// Test-only referee for ReuseDistanceTracker: the original O(log T) tracker,
// a Fenwick tree over trace time plus a hash-map last-access table.  It is
// slower and larger than the production tracker but shares none of its
// window, compaction or direct-indexed table, so the differential tests can
// compare the two access by access on traces far too long for
// naiveReuseDistances.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "interp/trace.hpp"
#include "locality/reuse_distance.hpp"
#include "support/flat_map.hpp"

namespace gcr::testing {

class RefereeReuseTracker {
 public:
  std::uint64_t access(std::int64_t key) {
    std::uint64_t& lastPlusOne = last_[key];
    std::uint64_t distance = ReuseDistanceTracker::kCold;
    if (lastPlusOne != 0) {
      const std::uint64_t prev = lastPlusOne - 1;
      // Marks strictly between the previous and the current access are the
      // distinct other data touched in between.
      distance = static_cast<std::uint64_t>(
          time_ > prev + 1 ? prefixSum(time_ - 1) - prefixSum(prev) : 0);
      add(prev, -1);
    }
    add(time_, +1);
    lastPlusOne = time_ + 1;
    ++time_;
    return distance;
  }

  std::uint64_t accesses() const { return time_; }
  std::uint64_t distinctData() const { return last_.size(); }

 private:
  // Fenwick tree over trace positions, doubled (and rebuilt) on demand.
  void add(std::uint64_t i, int delta) {
    if (i >= size_) grow(i + 1);
    for (std::uint64_t x = i + 1; x <= size_; x += x & (~x + 1))
      tree_[x] += delta;
  }

  std::int64_t prefixSum(std::uint64_t i) const {
    std::int64_t total = 0;
    for (std::uint64_t x = std::min(i + 1, size_); x > 0; x -= x & (~x + 1))
      total += tree_[x];
    return total;
  }

  void grow(std::uint64_t needed) {
    std::uint64_t newSize = size_ ? size_ : 1024;
    while (newSize < needed) newSize *= 2;
    std::vector<std::uint64_t> marked;
    for (std::uint64_t i = 0; i < size_; ++i)
      if (prefixSum(i) - (i == 0 ? 0 : prefixSum(i - 1)) != 0)
        marked.push_back(i);
    tree_.assign(newSize + 1, 0);
    size_ = newSize;
    for (std::uint64_t i : marked) add(i, 1);
  }

  FlatMap64<std::uint64_t> last_;  // key -> 1 + trace position of last access
  std::vector<std::int64_t> tree_;  // 1-based
  std::uint64_t size_ = 0;
  std::uint64_t time_ = 0;
};

/// ReuseDistanceSink's flattening (reads in order, then the write) through
/// the referee.
class RefereeReuseSink final : public InstrSink {
 public:
  explicit RefereeReuseSink(std::int64_t granularity)
      : granularity_(granularity) {}

  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) touch(r);
    touch(write);
  }

  ReuseProfile takeProfile() {
    profile_.accesses = tracker_.accesses();
    profile_.distinctData = tracker_.distinctData();
    return std::move(profile_);
  }

 private:
  void touch(std::int64_t addr) {
    profile_.histogram.add(tracker_.access(addr / granularity_));
  }

  std::int64_t granularity_;
  RefereeReuseTracker tracker_;
  ReuseProfile profile_;
};

}  // namespace gcr::testing
