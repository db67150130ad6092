#include "locality/reuse_distance.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <unordered_set>

#include "support/assert.hpp"

namespace gcr {

namespace {

// Smallest window the tree is rebuilt at, so short traces compact rarely.
constexpr std::uint64_t kMinWindow = 1024;
// A block is 512 slots: 8 bitvector words, one Fenwick node.
constexpr unsigned kBlockShift = 9;
constexpr std::uint32_t kBlockMask = (1u << kBlockShift) - 1;
constexpr std::uint32_t kWordsPerBlock = 8;
// A reuse whose old mark is at most this many words before the newest slot's
// word is counted by popcounting forward instead of through the tree.
constexpr std::uint32_t kScanWords = 8;

void addToBlock(std::vector<std::int32_t>& tree, std::uint32_t block,
                std::int32_t delta) {
  for (std::size_t x = std::size_t{block} + 1; x < tree.size();
       x += x & (~x + 1))
    tree[x] += delta;
}

}  // namespace

void ReuseDistanceTracker::reserve(std::uint64_t expectedDistinctData) {
  tableHint_ = std::min(expectedDistinctData, kMaxKeySpan);
}

std::uint64_t ReuseDistanceTracker::access(std::int64_t key) {
  // Keys below base_ wrap to huge indices, so one compare catches both ends.
  std::uint64_t idx =
      static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(base_);
  if (idx >= last_.size()) idx = coverKey(key);
  ++time_;
  // Compact first, while every mark in the window is still live.
  if (next_ == window_) compact();
  std::uint64_t distance = kCold;
  const std::uint32_t lastPlusOne = last_[idx];
  if (lastPlusOne != 0) {
    // The datum's own mark is the newest one: distance 0, and the mark can
    // stay where it is.
    if (lastPlusOne == next_) return 0;
    // Every mark after the datum's own is a distinct datum touched since.
    const std::uint32_t prev = lastPlusOne - 1;
    const std::uint32_t word = prev >> 6;
    const unsigned bit = prev & 63;
    const std::uint32_t lastWord = (next_ - 1) >> 6;
    if (lastWord - word <= kScanWords) {
      distance = static_cast<std::uint64_t>(
          std::popcount(bits_[word] & (~std::uint64_t{1} << bit)));
      for (std::uint32_t w = word + 1; w <= lastWord; ++w)
        distance += static_cast<std::uint64_t>(std::popcount(bits_[w]));
    } else {
      // More than a block apart, so the mark's block precedes the tail block
      // and every block before it is in the tree.
      const std::uint32_t block = prev >> kBlockShift;
      std::uint64_t before = 0;
      for (std::uint32_t x = block; x > 0; x &= x - 1)
        before += static_cast<std::uint64_t>(blocks_[x]);
      for (std::uint32_t w = block * kWordsPerBlock; w < word; ++w)
        before += static_cast<std::uint64_t>(std::popcount(bits_[w]));
      before += static_cast<std::uint64_t>(
          std::popcount(bits_[word] & (~std::uint64_t{0} >> (63 - bit))));
      distance = live_ - before;
    }
    bits_[word] &= ~(std::uint64_t{1} << bit);
    if ((prev >> kBlockShift) == (next_ >> kBlockShift))
      --tail_;
    else
      addToBlock(blocks_, prev >> kBlockShift, -1);
  } else {
    ++live_;
  }
  bits_[next_ >> 6] |= std::uint64_t{1} << (next_ & 63);
  ++tail_;
  owner_[next_] = static_cast<std::uint32_t>(idx);
  last_[idx] = ++next_;
  if ((next_ & kBlockMask) == 0) {
    // The tail moves on: fold the finished block's count into the tree.
    addToBlock(blocks_, (next_ >> kBlockShift) - 1,
               static_cast<std::int32_t>(tail_));
    tail_ = 0;
  }
  return distance;
}

std::uint64_t ReuseDistanceTracker::coverKey(std::int64_t key) {
  using Wide = __int128;
  Wide lo = key, hi = key;
  if (last_.empty()) {
    if (key >= 0 && static_cast<std::uint64_t>(key) < tableHint_) {
      lo = 0;
      hi = static_cast<Wide>(tableHint_) - 1;
    }
  } else {
    lo = std::min<Wide>(lo, base_);
    hi = std::max<Wide>(hi, static_cast<Wide>(base_) +
                                static_cast<Wide>(last_.size()) - 1);
  }
  const Wide span = hi - lo + 1;
  GCR_CHECK(span <= static_cast<Wide>(kMaxKeySpan),
            "reuse-distance keys span more than " +
                std::to_string(kMaxKeySpan) + " (key " + std::to_string(key) +
                ")");
  // Grow geometrically towards the side that overflowed, so a run of keys
  // walking outward costs amortized O(1) copies per key.
  const Wide size = std::max<Wide>(
      span, std::min<Wide>(2 * static_cast<Wide>(last_.size()),
                           static_cast<Wide>(kMaxKeySpan)));
  if (!last_.empty() && key < base_)
    lo = std::max<Wide>(hi - size + 1, INT64_MIN);
  const auto newBase = static_cast<std::int64_t>(lo);
  const auto newSize = static_cast<std::size_t>(
      std::min<Wide>(size, static_cast<Wide>(INT64_MAX) - lo + 1));
  const auto shift = static_cast<std::uint32_t>(
      last_.empty() ? 0 : static_cast<Wide>(base_) - lo);
  if (shift == 0) {
    last_.resize(newSize, 0);
  } else {
    std::vector<std::uint32_t> table(newSize, 0);
    std::copy(last_.begin(), last_.end(), table.begin() + shift);
    last_ = std::move(table);
    for (std::uint32_t s = 0; s < next_; ++s) owner_[s] += shift;
  }
  base_ = newBase;
  return static_cast<std::uint64_t>(key) - static_cast<std::uint64_t>(base_);
}

void ReuseDistanceTracker::compact() {
  // The set bits are exactly the live marks, in time order; moving them to
  // the front keeps that order, so every distance is unchanged.
  std::uint32_t kept = 0;
  for (std::uint32_t w = 0; w < bits_.size(); ++w) {
    for (std::uint64_t m = bits_[w]; m != 0; m &= m - 1) {
      const std::uint32_t idx =
          owner_[w * 64 + static_cast<std::uint32_t>(std::countr_zero(m))];
      owner_[kept] = idx;
      last_[idx] = ++kept;
    }
  }
  next_ = kept;
  window_ = static_cast<std::uint32_t>(std::max(kMinWindow, 2 * (live_ + 1)));
  const std::size_t words = (std::size_t{window_} + 63) / 64;
  const std::size_t nodes = (words + kWordsPerBlock - 1) / kWordsPerBlock + 1;
  // Size the buffers for the whole hinted key range at once, so they are not
  // reallocated (and the freed copies left to fragment the heap) while the
  // working set grows.
  if (owner_.capacity() < window_) {
    const std::uint64_t capacity =
        std::max<std::uint64_t>(window_, 2 * (tableHint_ + 1));
    owner_.reserve(capacity);
    bits_.reserve((capacity + 63) / 64);
    blocks_.reserve(((capacity + kBlockMask) >> kBlockShift) + 1);
  }
  owner_.resize(window_);
  // Marks now fill slots [0, kept).
  bits_.assign(words, 0);
  std::fill_n(bits_.begin(), kept / 64, ~std::uint64_t{0});
  if (kept % 64 != 0) bits_[kept / 64] = ~std::uint64_t{0} >> (64 - kept % 64);
  // The blocks before the tail block are full; the tail block's count stays
  // outside the tree.  Tree node x sums blocks (x - lowbit, x].
  const std::uint32_t full = kept >> kBlockShift;
  tail_ = kept & kBlockMask;
  blocks_.resize(nodes);
  blocks_[0] = 0;
  for (std::uint32_t x = 1; x < nodes; ++x) {
    const std::uint32_t low = x - (x & (~x + 1));
    blocks_[x] = static_cast<std::int32_t>(
        full > low ? (std::min(full, x) - low) << kBlockShift : 0);
  }
}

std::vector<std::uint64_t> naiveReuseDistances(
    const std::vector<std::int64_t>& trace) {
  std::vector<std::uint64_t> out(trace.size(), ReuseDistanceTracker::kCold);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (std::size_t j = i; j-- > 0;) {
      if (trace[j] == trace[i]) {
        std::unordered_set<std::int64_t> between;
        for (std::size_t k = j + 1; k < i; ++k)
          if (trace[k] != trace[i]) between.insert(trace[k]);
        out[i] = between.size();
        break;
      }
    }
  }
  return out;
}

double ReuseProfile::missFractionAtCapacity(std::uint64_t cap) const {
  const std::uint64_t finite = histogram.totalFinite();
  if (finite == 0) return 0.0;
  return static_cast<double>(histogram.countAtLeast(cap)) /
         static_cast<double>(finite);
}

ReuseDistanceSink::ReuseDistanceSink(std::int64_t granularity)
    : granularity_(granularity) {
  GCR_CHECK(granularity_ > 0, "granularity must be positive");
}

void ReuseDistanceSink::touch(std::int64_t addr) {
  const std::uint64_t d = tracker_.access(addr / granularity_);
  profile_.histogram.add(d);
}

void ReuseDistanceSink::onInstr(int, std::span<const std::int64_t> reads,
                                std::int64_t write) {
  for (std::int64_t r : reads) touch(r);
  touch(write);
}

void ReuseDistanceSink::onBlock(const InstrBlock& b) {
  // One dispatch per chunk; same flattening order as onInstr.
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) touch(r);
    touch(b.writes[i]);
  }
}

ReuseProfile ReuseDistanceSink::takeProfile() {
  profile_.accesses = tracker_.accesses();
  profile_.distinctData = tracker_.distinctData();
  return std::move(profile_);
}

ReuseProfile mergeProfiles(std::span<const ReuseProfile> parts) {
  ReuseProfile total;
  for (const ReuseProfile& p : parts) {
    total.histogram.merge(p.histogram);
    total.accesses += p.accesses;
    total.distinctData += p.distinctData;
  }
  return total;
}

ReuseProfile profileAddresses(const std::vector<std::int64_t>& addrs,
                              std::int64_t granularity) {
  ReuseDistanceTracker tracker;
  ReuseProfile prof;
  for (std::int64_t a : addrs) prof.histogram.add(tracker.access(a / granularity));
  prof.accesses = tracker.accesses();
  prof.distinctData = tracker.distinctData();
  return prof;
}

}  // namespace gcr
