// The workloads' timed runs (tracing off) and the per-layer replay (tracing
// on).  Spans are recorded only here, in the benchmark's own code, around
// calls into the program's public functions.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "digest.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Context {
  Expected expected;
  std::string daemonBinary;
  std::string runDir;  ///< private scratch directory of this run
};

/// Raw samples of one pass (in-process) or round (server_mix); seconds.
struct PassResult {
  double setup = 0;                   ///< start to first timed operation
  double wall = 0;                    ///< the timed phase
  std::vector<double> latencies;      ///< every completed request
  std::vector<double> coldLatencies;  ///< fresh-work requests only
};

/// Raw samples of one end-to-end run.
struct RunResult {
  Tally tally;
  std::vector<PassResult> passes;
  double peakRssMb = 0;  ///< of the process doing the work
  /// Output digest per item key, from the last pass (in-process only).
  std::map<std::string, std::string> digests;
};

/// Passes of a cold, memory-only Engine over `items` (all Measure or all
/// Profile) until `seconds` have gone by and at least `minPasses` ran.  Each
/// pass sets up (builds the apps and runs the version pipelines), then
/// submits every item in a seeded order and times each to completion.  The
/// first pass keeps the items' own order instead, and the process's peak
/// RSS is read after it, so that figure does not depend on the seed.
RunResult runSweep(const std::vector<Item>& items, const Context& ctx,
                   std::uint64_t seed, double seconds, int minPasses);

/// Rounds of server_mix until `seconds` have gone by and at least
/// `minRounds` ran; see README.md for a round's anatomy.
RunResult runServerMix(const Context& ctx, std::uint64_t seed,
                       double seconds, int minRounds);

/// What a per-layer run gathers besides its spans.
struct LayerRun {
  Tally tally;
  Tracer tracer;
  std::map<std::string, double> work;  ///< accesses per layer, counts
};

/// The consumer layers a replay drives.
struct LayerSet {
  bool cachesim = false;   ///< TLB, L1 and the full hierarchy (Measure)
  bool rd = false;         ///< exact reuse distance (Profile)
  bool multicore = false;  ///< analyzeMulticore (Multicore)
};

/// Replay `items` one program version at a time, single-threaded: pipeline,
/// plan compilation, plan execution without a sink, then each selected
/// consumer over a recording of the same block stream.  Every replayed
/// output is checked against the expected digest of its item.  Spans of
/// the shared front layers are named with `frontPrefix` in front.
void replayLayers(const std::vector<Item>& items, LayerSet layers,
                  const std::string& frontPrefix, const Expected& expected,
                  LayerRun& out);

/// The server-side layers, measured around one server_mix round: warm
/// in-process Engine hits, direct store gets and puts of the catalog's
/// artifacts, warm client round trips, and the daemon's own counters.
void probeServerLayers(const Context& ctx, std::uint64_t seed, LayerRun& out);

}  // namespace perfbench
