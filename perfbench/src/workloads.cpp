#include "workloads.hpp"

#include <cmath>
#include <numeric>

#include "apps/registry.hpp"
#include "digest.hpp"
#include "support/prng.hpp"

namespace perfbench {

using gcr::Strategy;

namespace {

std::string strategyName(Strategy s) {
  switch (s) {
    case Strategy::NoOpt: return "NoOpt";
    case Strategy::Fused: return "Fused";
    case Strategy::FusedRegrouped: return "FusedRegrouped";
    default: return "other";
  }
}

const char* kindName(Kind k) {
  switch (k) {
    case Kind::Optimize: return "optimize";
    case Kind::Measure: return "measure";
    case Kind::Profile: return "profile";
    case Kind::Multicore: return "multicore";
  }
  return "?";
}

const char* engineName(gcr::ExecEngine e) {
  switch (e) {
    case gcr::ExecEngine::Auto: return "auto";
    case gcr::ExecEngine::TreeWalk: return "walk";
    case gcr::ExecEngine::Plan: return "plan";
    case gcr::ExecEngine::Native: return "native";
  }
  return "?";
}

}  // namespace

std::string Item::key() const {
  std::string k = std::string(kindName(kind)) + "/" + app + "/" +
                  strategyName(strategy);
  if (kind != Kind::Optimize) k += "/n" + std::to_string(n);
  if (kind == Kind::Measure) k += "/" + machine;
  if (kind == Kind::Multicore) k += "/c2";
  return k;
}

const std::vector<AppSize>& sweepSizes() {
  static const std::vector<AppSize> s = {
      {"ADI", 512}, {"Swim", 256}, {"Tomcatv", 256}, {"SP", 24}};
  return s;
}

const std::vector<AppSize>& catalogSizes() {
  static const std::vector<AppSize> s = {
      {"ADI", 200}, {"Swim", 96}, {"Tomcatv", 96}, {"SP", 16}};
  return s;
}

const std::vector<AppSize>& freshSizes() {
  static const std::vector<AppSize> s = {
      {"ADI", 48}, {"Swim", 24}, {"Tomcatv", 24}, {"SP", 6}};
  return s;
}

const std::vector<AppSize>& refereeSizes() {
  static const std::vector<AppSize> s = {
      {"ADI", 24}, {"Swim", 12}, {"Tomcatv", 12}, {"SP", 5}};
  return s;
}

const std::vector<Strategy>& strategies() {
  static const std::vector<Strategy> s = {Strategy::NoOpt, Strategy::Fused,
                                          Strategy::FusedRegrouped};
  return s;
}

std::vector<Item> hierarchyItems(const std::vector<AppSize>& sizes) {
  std::vector<Item> items;
  for (const AppSize& a : sizes)
    for (Strategy s : strategies())
      for (const char* machine : {"origin2000", "octane"})
        items.push_back({Kind::Measure, a.app, s, a.n, machine});
  return items;
}

std::vector<Item> reuseItems(const std::vector<AppSize>& sizes) {
  std::vector<Item> items;
  for (const AppSize& a : sizes)
    for (Strategy s : strategies())
      items.push_back({Kind::Profile, a.app, s, a.n, ""});
  return items;
}

std::vector<Item> catalogItems() {
  std::vector<Item> items;
  for (const AppSize& a : catalogSizes())
    for (Strategy s : strategies()) {
      items.push_back({Kind::Optimize, a.app, s, a.n, ""});
      items.push_back({Kind::Measure, a.app, s, a.n, "origin2000"});
      items.push_back({Kind::Profile, a.app, s, a.n, ""});
      items.push_back({Kind::Multicore, a.app, s, a.n, ""});
    }
  return items;
}

std::vector<Item> freshItems() {
  std::vector<Item> items;
  for (const AppSize& a : freshSizes())
    for (Strategy s : strategies())
      items.push_back({Kind::Measure, a.app, s, a.n, "origin2000"});
  return items;
}

std::vector<Item> allExpectedItems() {
  std::vector<Item> all;
  for (std::vector<Item> part :
       {hierarchyItems(sweepSizes()), reuseItems(sweepSizes()),
        catalogItems(), freshItems(), hierarchyItems(refereeSizes()),
        reuseItems(refereeSizes())})
    all.insert(all.end(), part.begin(), part.end());
  return all;
}

gcr::MachineConfig machineNamed(const std::string& name) {
  return name == "octane" ? gcr::MachineConfig::octane()
                          : gcr::MachineConfig::origin2000();
}

gcr::CacheTopology catalogTopology() {
  return gcr::CacheTopology::symmetric(2);
}

gcr::EngineConfig pinnedConfig(int threads) {
  return gcr::EngineConfig{}
      .withThreads(threads)
      .withCacheDir("")
      .withEngine(gcr::ExecEngine::Auto)
      .withSampleRate(1.0);
}

std::string describe(const gcr::EngineConfig& c) {
  const std::string dir = c.resolveCacheDir();
  return "threads=" + std::to_string(c.resolveThreads()) +
         " engine=" + engineName(c.resolveEngine()) +
         " sample_rate=" + std::to_string(c.sampleRate) +
         " cache_dir=" + (dir.empty() ? "(memory only)" : dir);
}

std::string computeDigest(gcr::Engine& engine, const Item& item) {
  const gcr::Program program = gcr::apps::buildApp(item.app);
  switch (item.kind) {
    case Kind::Optimize:
      return digestOf(
          engine.pipeline(program, gcr::pipelineOptionsFor(item.strategy)));
    case Kind::Measure:
      return digestOf(engine.measure(engine.version(program, item.strategy),
                                     item.n, machineNamed(item.machine)));
    case Kind::Profile:
      return digestOf(engine.reuseProfile(
          engine.version(program, item.strategy), item.n));
    case Kind::Multicore:
      return digestOf(engine.multicoreProfile(
          engine.version(program, item.strategy), item.n, catalogTopology()));
  }
  return {};
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  gcr::SplitMix64 rng(gcr::mix64(seed) ^ gcr::mix64(pass + 1));
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.nextBelow(i)]);
  return order;
}

std::vector<StreamEntry> makeStream(std::uint64_t seed, std::uint64_t round,
                                    std::size_t length) {
  const std::size_t catalogSize = catalogItems().size();
  const std::size_t freshCount = freshItems().size();
  gcr::SplitMix64 rng(gcr::mix64(seed) ^ gcr::mix64(~round));
  const std::uint64_t seedPart = gcr::mix64(seed) % 4096;
  std::vector<StreamEntry> stream(length);
  for (std::size_t j = 0; j < length; ++j) {
    StreamEntry& e = stream[j];
    if (j % kFreshEvery == kFreshEvery - 1) {
      const std::size_t k = j / kFreshEvery;
      const std::uint64_t unique = round * (length / kFreshEvery) + k + 1;
      e.item = k % freshCount;
      e.fresh = true;
      // 40 (the default TLB-miss cost) plus a distinct multiple of 2^-32:
      // exact in a double, so each fresh request has its own signature.
      e.freshTlbMissCost =
          gcr::CostModel{}.tlbMissCost +
          std::ldexp(static_cast<double>(seedPart * 65536 + unique), -32);
    } else {
      e.item = rng.nextBelow(catalogSize);
    }
  }
  return stream;
}

}  // namespace perfbench
