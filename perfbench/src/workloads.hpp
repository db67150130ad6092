// What the three workloads run: their items (one locality question each),
// the pinned Engine configuration, and the seeded orders and request
// streams.  The seed only reorders and parameterizes; the program receives
// nothing but the generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cachesim/topology.hpp"
#include "engine/engine.hpp"

namespace perfbench {

constexpr int kThreads = 4;  ///< engine threads in-process and in the daemon

enum class Kind { Optimize, Measure, Profile, Multicore };

struct AppSize {
  const char* app;
  std::int64_t n;
};

/// One locality question about one program version.
struct Item {
  Kind kind = Kind::Measure;
  std::string app;
  gcr::Strategy strategy = gcr::Strategy::NoOpt;
  std::int64_t n = 0;    ///< unused by Optimize
  std::string machine;   ///< Measure only: "origin2000" or "octane"

  /// Stable name, e.g. "measure/ADI/Fused/n512/octane".
  std::string key() const;
};

/// The fig9 bench sizes: every working set exceeds the simulated L2.
const std::vector<AppSize>& sweepSizes();
/// server_mix's catalog sizes (a request costs milliseconds, not seconds).
const std::vector<AppSize>& catalogSizes();
/// server_mix's fresh-work sizes: a cold measurement costs about a
/// millisecond, so the consumers stay a small part of the workload.
const std::vector<AppSize>& freshSizes();
/// Sizes small enough for the slow referees of the benchmark's tests.
const std::vector<AppSize>& refereeSizes();

/// NoOpt, Fused, FusedRegrouped.
const std::vector<gcr::Strategy>& strategies();

/// apps x strategies x {origin2000, octane} measurements.
std::vector<Item> hierarchyItems(const std::vector<AppSize>& sizes);
/// apps x strategies exact reuse profiles.
std::vector<Item> reuseItems(const std::vector<AppSize>& sizes);
/// catalogSizes() x strategies x {optimize, measure, profile, multicore}.
std::vector<Item> catalogItems();
/// freshSizes() x strategies origin2000 measurements.
std::vector<Item> freshItems();
/// Every item the expected file lists.
std::vector<Item> allExpectedItems();

gcr::MachineConfig machineNamed(const std::string& name);
/// The topology of every multicore request: 2 cores, block schedule.
gcr::CacheTopology catalogTopology();

/// The pinned in-process configuration: explicit thread count, no disk
/// tier, the default (Auto) engine and exact reuse profiles.
gcr::EngineConfig pinnedConfig(int threads);
/// One line describing a configuration as the Engine resolves it.
std::string describe(const gcr::EngineConfig& config);

/// The digest of `item`'s output, computed through `engine`.
std::string computeDigest(gcr::Engine& engine, const Item& item);

/// A seeded permutation of 0..n-1; `pass` varies it within one run.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t pass);

/// Every kFreshEvery-th request of a server_mix stream is fresh work.
constexpr std::size_t kFreshEvery = 16;

/// One request of the server_mix stream: catalogItems()[item], or fresh
/// work — freshItems()[item] made unique by its TLB-miss cost, which changes
/// only the reply's cycles, never the simulation it needs.
struct StreamEntry {
  std::size_t item = 0;
  bool fresh = false;
  double freshTlbMissCost = 0;
};

/// Request j of round `round`: fresh when j % kFreshEvery is the last slot
/// (cycling through freshItems(), so every round does the same fresh work),
/// else a seeded uniform draw from the catalog.  Fresh costs are unique
/// across the rounds of one seed.
std::vector<StreamEntry> makeStream(std::uint64_t seed, std::uint64_t round,
                                    std::size_t length);

}  // namespace perfbench
