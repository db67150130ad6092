#include "locality/reuse_distance.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "support/assert.hpp"

namespace gcr {

namespace {

// Smallest window the tree is rebuilt at, so short traces compact rarely.
constexpr std::uint64_t kMinWindow = 1024;

std::int64_t prefixCount(const std::vector<std::int32_t>& tree,
                         std::uint32_t slot) {
  std::int64_t total = 0;
  for (std::uint32_t x = slot + 1; x > 0; x &= x - 1) total += tree[x];
  return total;
}

void addMark(std::vector<std::int32_t>& tree, std::uint32_t window,
             std::uint32_t slot, std::int32_t delta) {
  for (std::uint64_t x = slot + 1; x <= window; x += x & (~x + 1))
    tree[x] += delta;
}

}  // namespace

void ReuseDistanceTracker::reserve(std::uint64_t,
                                   std::uint64_t expectedDistinctData) {
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
    const std::uint32_t prev = lastPlusOne - 1;
    // Every mark after the datum's own is a distinct datum touched since.
    distance = live_ - static_cast<std::uint64_t>(prefixCount(marks_, prev));
    addMark(marks_, window_, prev, -1);
  } else {
    ++live_;
  }
  addMark(marks_, window_, next_, +1);
  owner_[next_] = static_cast<std::uint32_t>(idx);
  last_[idx] = ++next_;
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
  // A slot holds a live mark iff its owner's last access is still there.
  // Live marks keep their time order, so every distance is unchanged.
  std::uint32_t kept = 0;
  for (std::uint32_t s = 0; s < next_; ++s) {
    const std::uint32_t idx = owner_[s];
    if (last_[idx] == s + 1) {
      owner_[kept] = idx;
      last_[idx] = ++kept;
    }
  }
  next_ = kept;
  window_ = static_cast<std::uint32_t>(std::max(kMinWindow, 2 * (live_ + 1)));
  // Size the buffers for the whole hinted key range at once, so they are not
  // reallocated (and the freed copies left to fragment the heap) while the
  // working set grows.
  if (owner_.capacity() < window_) {
    const std::uint64_t capacity =
        std::max<std::uint64_t>(window_, 2 * (tableHint_ + 1));
    owner_.reserve(capacity);
    marks_.reserve(capacity + 1);
  }
  owner_.resize(window_);
  // Marks now fill slots [0, kept); tree node x sums slots (x - lowbit, x].
  marks_.resize(std::size_t{window_} + 1);
  marks_[0] = 0;
  for (std::uint32_t x = 1; x <= window_; ++x) {
    const std::uint32_t low = x - (x & (~x + 1));
    marks_[x] = static_cast<std::int32_t>(
        kept > low ? std::min(kept, x) - low : 0);
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
