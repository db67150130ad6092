// Sampled reuse-distance analysis (SHARDS-style spatial hash sampling).
//
// Exact tracking costs O(log M) time per access for M distinct data and
// O(M) space for its mark window — the scaling limit for paper-sized inputs.
// Spatial sampling shrinks both: a datum is *sampled* iff a hash of its
// address falls under a threshold T_R = R * 2^64, so a rate-R tracker
// monitors an unbiased ~R fraction of all data and only pays for accesses to
// those.  Its direct-indexed last-access table still spans the full key
// range (4 bytes per datum), because sampling thins the keys but not their
// span.
// Because the sampled data are a uniform random subset of all data, the
// number of distinct *sampled* data between two accesses to a sampled datum
// is ~R times the true reuse distance; scaling the measured distance by 1/R
// gives an unbiased estimate, and scaling each histogram count by 1/R
// estimates the full histogram (cf. Waldspurger et al., "SHARDS", and the
// reuse-distance sampling literature referenced in PAPERS.md).
//
// At rate 1 the hash filter and both scalings are identity: the tracker is
// bit-for-bit the exact ReuseDistanceTracker, which the differential tests
// in tests/locality/sampled_reuse_test.cpp pin down.
#pragma once

#include <cstdint>

#include "interp/trace.hpp"
#include "locality/reuse_distance.hpp"

namespace gcr {

class SampledReuseTracker {
 public:
  static constexpr std::uint64_t kCold = Log2Histogram::kCold;
  /// Returned for accesses to data outside the sample; distinct from every
  /// finite distance and from kCold.
  static constexpr std::uint64_t kNotSampled = kCold - 1;

  /// rate is clamped to (0, 1]; 1.0 (the default) is exact tracking.
  explicit SampledReuseTracker(double rate = 1.0);

  /// Process one access.  Returns the *scaled* reuse distance (measured
  /// distance times 1/rate), kCold for the first access to a sampled datum,
  /// or kNotSampled for data outside the sample.
  std::uint64_t access(std::int64_t addr);

  bool isSampled(std::int64_t addr) const;

  double rate() const { return rate_; }
  /// Histogram weight of one sampled access: round(1/rate).
  std::uint64_t countScale() const { return countScale_; }

  std::uint64_t accesses() const { return accesses_; }  ///< all, sampled or not
  std::uint64_t sampledAccesses() const { return exact_.accesses(); }
  std::uint64_t distinctSampled() const { return exact_.distinctData(); }

  /// Pre-size for the expected key range.  The key range is not thinned by
  /// sampling, so the distinct-data hint passes through unscaled.
  void reserve(std::uint64_t expectedDistinctData);

 private:
  double rate_;
  double inverseRate_;
  std::uint64_t threshold_;   // sampled iff mix64(addr) < threshold_
  bool exact_mode_;
  std::uint64_t countScale_;
  std::uint64_t accesses_ = 0;
  ReuseDistanceTracker exact_;  // over the sampled data only
};

/// InstrSink adapter mirroring ReuseDistanceSink: flattens instructions
/// through a SampledReuseTracker and builds an *estimated* ReuseProfile —
/// distances and histogram counts scaled by 1/rate, `accesses` the true
/// total, `distinctData` the scaled estimate.  At rate 1 the profile equals
/// the exact sink's output exactly.
class SampledReuseSink final : public InstrSink {
 public:
  explicit SampledReuseSink(std::int64_t granularity = 8, double rate = 1.0);

  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override;
  void onBlock(const InstrBlock& b) override;

  void reserve(std::uint64_t expectedAccesses,
               std::uint64_t expectedDistinctBytes = 0);

  const ReuseProfile& profile() const { return profile_; }
  ReuseProfile takeProfile();

 private:
  void touch(std::int64_t addr);

  std::int64_t granularity_;
  SampledReuseTracker tracker_;
  ReuseProfile profile_;
};

/// Sampled analogue of profileAddresses().
ReuseProfile profileAddressesSampled(const std::vector<std::int64_t>& addrs,
                                     std::int64_t granularity, double rate);

}  // namespace gcr
