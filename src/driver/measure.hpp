// Measurement harness: run a program version through the cache hierarchy
// and locality analyses — our stand-in for the R10K/R12K hardware counters.
//
// Two execution regimes:
//   * single measurement — measure()/reuseProfileOf(), unchanged semantics;
//   * parallel sweep — a batch of independent (version x size x machine)
//     tasks on a fixed-size thread pool (GCR_THREADS).  Task i always fills
//     result slot i and every task owns its simulator state, so results are
//     bit-identical for any thread count; only the wall-clock fields differ
//     between runs.
//
// The batch entry point is Engine::measureAll / Engine::submit
// (engine/engine.hpp), which adds content-addressed memoization and
// in-flight deduplication on top.  The raw, cache-free batch runners live in
// gcr::detail and back the Engine as its compute functions.  Knobs that
// used to ride in a MeasureOptions struct (threads, sampleRate) are plain
// parameters here; sessions configure them once via EngineConfig
// (engine/config.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "driver/pipeline.hpp"
#include "locality/evadable.hpp"
#include "locality/reuse_distance.hpp"

namespace gcr {

struct Measurement {
  MissCounts counts;
  double cycles = 0;                 ///< CostModel cycles
  std::uint64_t memoryTrafficBytes = 0;
  double effectiveBandwidth = 0;     ///< useful bytes / transferred bytes

  // Analysis-throughput observability (not part of the simulated results:
  // these vary run to run and are excluded from determinism comparisons).
  double wallSeconds = 0;            ///< wall-clock time of the simulation
  double accessesPerSecond = 0;      ///< counts.refs / wallSeconds

  /// base.cycles / cycles.  NaN when this measurement recorded no cycles —
  /// a ratio against an empty run has no meaning, and NaN (unlike the 0.0
  /// this used to return) poisons downstream aggregates instead of silently
  /// reading as "infinitely slow".
  double speedupOver(const Measurement& base) const {
    return cycles > 0 ? base.cycles / cycles
                      : std::numeric_limits<double>::quiet_NaN();
  }
};

/// Simulate `version` at problem size n on `machine`.
Measurement measure(const ProgramVersion& version, std::int64_t n,
                    const MachineConfig& machine,
                    std::uint64_t timeSteps = 1,
                    const CostModel& cost = {});

/// The Measurement of a finished simulation that took `wallSeconds`.
Measurement measurementOf(const MemoryHierarchy& hierarchy,
                          const CostModel& cost, double wallSeconds);

/// One independent simulation of a parallel sweep.
struct MeasureTask {
  ProgramVersion version;
  std::int64_t n = 16;
  MachineConfig machine;
  std::uint64_t timeSteps = 1;
  CostModel cost = {};
};

/// Element-granularity reuse-distance profile of a version.  With
/// sampleRate < 1 the profile is the sampled estimate (see
/// locality/sampled_reuse.hpp); at rate 1 (default) it is exact and
/// bit-identical to the historical output.  All published tables are
/// generated at rate 1.
ReuseProfile reuseProfileOf(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps = 1,
                            double sampleRate = 1.0);

/// One reuse-profile task of a parallel sweep.
struct ReuseTask {
  ProgramVersion version;
  std::int64_t n = 16;
  std::uint64_t timeSteps = 1;
};

/// Per-statement-pair reuse statistics (for evadable-reuse classification).
void collectPairwise(const ProgramVersion& version, std::int64_t n,
                     PairwiseReuseCollector& collector,
                     std::uint64_t timeSteps = 1);

namespace detail {

/// Raw batch runner: every task simulated fresh, no memoization.  Result i
/// belongs to tasks[i] regardless of thread count (`threads` as
/// ThreadPool: 0 = GCR_THREADS / hardware_concurrency, 1 = sequential).
/// The Engine uses this slot-per-task discipline with per-task cache
/// lookups layered on top.
std::vector<Measurement> measureAllUncached(
    const std::vector<MeasureTask>& tasks, int threads = 0);

/// Raw batch reuse profiling, same slot-per-task determinism.
std::vector<ReuseProfile> reuseProfilesOfUncached(
    const std::vector<ReuseTask>& tasks, int threads = 0,
    double sampleRate = 1.0);

}  // namespace detail

// The pre-Engine free measureAll()/reuseProfilesOf() shims are gone
// (PR 10); use Engine::measureAll / Engine::submit, or the detail::
// *Uncached runners for the raw parallel path.

}  // namespace gcr
