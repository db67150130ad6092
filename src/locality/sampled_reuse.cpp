#include "locality/sampled_reuse.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/prng.hpp"

namespace gcr {

SampledReuseTracker::SampledReuseTracker(double rate)
    : rate_(std::clamp(rate, 0x1.0p-32, 1.0)),
      inverseRate_(1.0 / rate_),
      exact_mode_(rate_ >= 1.0),
      countScale_(static_cast<std::uint64_t>(std::llround(inverseRate_))) {
  GCR_CHECK(rate > 0.0, "sampleRate must be in (0, 1]");
  // threshold = rate * 2^64, computed via ldexp to keep full precision.
  // exact_mode_ bypasses the filter entirely, so the (unrepresentable)
  // rate-1 threshold never gets used.
  threshold_ = exact_mode_ ? ~std::uint64_t{0}
                           : static_cast<std::uint64_t>(std::ldexp(rate_, 64));
}

bool SampledReuseTracker::isSampled(std::int64_t addr) const {
  if (exact_mode_) return true;
  return mix64(static_cast<std::uint64_t>(addr)) < threshold_;
}

std::uint64_t SampledReuseTracker::access(std::int64_t addr) {
  ++accesses_;
  if (!isSampled(addr)) return kNotSampled;
  const std::uint64_t d = exact_.access(addr);
  if (exact_mode_ || d == kCold) return d;
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(d) * inverseRate_));
}

void SampledReuseTracker::reserve(std::uint64_t expectedDistinctData) {
  exact_.reserve(expectedDistinctData);
}

SampledReuseSink::SampledReuseSink(std::int64_t granularity, double rate)
    : granularity_(granularity), tracker_(rate) {
  GCR_CHECK(granularity_ > 0, "granularity must be positive");
}

void SampledReuseSink::touch(std::int64_t addr) {
  const std::uint64_t d = tracker_.access(addr / granularity_);
  if (d == SampledReuseTracker::kNotSampled) return;
  profile_.histogram.add(d, tracker_.countScale());
}

void SampledReuseSink::onInstr(int, std::span<const std::int64_t> reads,
                               std::int64_t write) {
  for (std::int64_t r : reads) touch(r);
  touch(write);
}

void SampledReuseSink::onBlock(const InstrBlock& b) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (std::int64_t r : b.reads(i)) touch(r);
    touch(b.writes[i]);
  }
}

void SampledReuseSink::reserve(std::uint64_t /*expectedAccesses*/,
                               std::uint64_t expectedDistinctBytes) {
  const auto g = static_cast<std::uint64_t>(granularity_);
  tracker_.reserve((expectedDistinctBytes + g - 1) / g);
}

ReuseProfile SampledReuseSink::takeProfile() {
  profile_.accesses = tracker_.accesses();
  profile_.distinctData = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(tracker_.distinctSampled()) / tracker_.rate()));
  return std::move(profile_);
}

ReuseProfile profileAddressesSampled(const std::vector<std::int64_t>& addrs,
                                     std::int64_t granularity, double rate) {
  SampledReuseSink sink(granularity, rate);
  for (std::int64_t a : addrs) sink.onInstr(0, {}, a);
  return sink.takeProfile();
}

}  // namespace gcr
