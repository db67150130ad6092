// Multicore cache topology: per-core private L1/L2 plus one shared LLC.
//
// MachineConfig (hierarchy.hpp) describes the paper's single-core SGI
// machines; CacheTopology describes the chip-multiprocessor setting the
// multicore locality engine models (DESIGN.md §10): every core owns a
// private L1 and L2, all cores share one last-level cache, and the
// iterations of each top-level (parallel) loop are distributed over the
// cores by a static schedule (interp/schedule.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "cachesim/cache.hpp"
#include "interp/schedule.hpp"

namespace gcr {

/// Latency model for the three-level multicore hierarchy, in the spirit of
/// CostModel (hierarchy.hpp): relative cycles, not absolute time.  Each
/// reference costs refCost; an L1 miss adds l2HitCost; a private-L2 miss
/// adds llcHitCost; a (predicted) LLC miss adds memoryCost more.
struct MulticoreCostModel {
  double refCost = 1.0;
  double l2HitCost = 8.0;
  double llcHitCost = 30.0;
  double memoryCost = 60.0;

  double coreCycles(std::uint64_t refs, std::uint64_t l1Misses,
                    std::uint64_t l2Misses, double llcMisses) const {
    return refCost * static_cast<double>(refs) +
           l2HitCost * static_cast<double>(l1Misses) +
           llcHitCost * static_cast<double>(l2Misses) +
           memoryCost * llcMisses;
  }
};

struct CacheTopology {
  int cores = 1;
  /// Per-core private levels.
  CacheConfig l1;
  CacheConfig l2;
  /// Shared last-level cache.
  CacheConfig llc;
  /// Static distribution of parallel-loop iterations over the cores.
  ParallelSchedule schedule = ParallelSchedule::Block;
  std::string name;

  std::int64_t llcCapacityLines() const {
    return llc.lineSize > 0 ? llc.sizeBytes / llc.lineSize : 0;
  }

  /// Symmetric CMP preset: per core 32KB/64B 8-way L1 + 256KB/64B 8-way L2,
  /// shared 8MB/64B 16-way LLC — the ubiquitous Nehalem-style geometry.
  static CacheTopology symmetric(int cores,
                                 ParallelSchedule schedule =
                                     ParallelSchedule::Block);

  /// Geometry scaled by 1/k (same line sizes), for reduced-size studies —
  /// the CacheTopology analogue of MachineConfig::scaledDown().
  CacheTopology scaledDown(int k) const;

  /// Throws gcr::Error unless there is at least one core and every level's
  /// dimensions are positive.  The Engine checks each topology it is asked
  /// to analyze.
  void validate() const;
};

}  // namespace gcr
