// SetAssocCache (O(1) hit path: inline 2-way probe, hinted ways above two)
// against the linear-scan referee in referee_cache.hpp, access by access on
// adversarial traces and count by count on the registry apps.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/referee_cache.hpp"
#include "cachesim/topology.hpp"
#include "driver/pipeline.hpp"
#include "interp/interp.hpp"
#include "interp/plan.hpp"
#include "interp/schedule.hpp"
#include "locality/multicore.hpp"
#include "support/prng.hpp"

namespace gcr {
namespace {

struct Ref {
  std::int64_t addr;
  bool isWrite;
};

/// Feed `trace` to both caches (every third access also prefetches the
/// next line, as the hierarchy's L2 does) and require identical results.
void expectSameAsReferee(const CacheConfig& cfg, const std::vector<Ref>& trace,
                         const std::string& what) {
  SetAssocCache fast(cfg);
  RefereeCache referee(cfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Ref& r = trace[i];
    ASSERT_EQ(fast.access(r.addr, r.isWrite), referee.access(r.addr, r.isWrite))
        << what << " access " << i << " addr " << r.addr;
    ASSERT_EQ(fast.lastHitWasPrefetched(), referee.lastHitWasPrefetched())
        << what << " access " << i;
    if (i % 3 == 2) {
      fast.prefetch(r.addr + cfg.lineSize);
      referee.prefetch(r.addr + cfg.lineSize);
    }
  }
  const CacheStats& a = fast.stats();
  const CacheStats& b = referee.stats();
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.prefetchFills, b.prefetchFills) << what;
  EXPECT_EQ(a.prefetchHits, b.prefetchHits) << what;
}

std::vector<Ref> randomPages(std::uint64_t seed, int len, std::int64_t pages,
                             std::int64_t pageSize, std::int64_t origin) {
  SplitMix64 rng(seed);
  std::vector<Ref> trace;
  trace.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i)
    trace.push_back({origin + rng.nextInRange(0, pages - 1) * pageSize +
                         rng.nextInRange(0, pageSize - 1),
                     rng.nextBelow(3) == 0});
  return trace;
}

TEST(CacheDifferential, FullyAssociativeAtEveryWidth) {
  for (int ways : {1, 3, 64, 256}) {
    const CacheConfig cfg{ways * 64, 64, ways, "fa"};
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      // Live sets below, at and above capacity.
      for (std::int64_t pages : {std::int64_t{ways} / 2 + 1,
                                 std::int64_t{ways} + 1,
                                 std::int64_t{ways} * 2}) {
        expectSameAsReferee(cfg, randomPages(seed, 20000, pages, 64, 0),
                            std::to_string(ways) + "-way, " +
                                std::to_string(pages) + " pages");
      }
    }
  }
}

TEST(CacheDifferential, TlbThrashOnePageOverReach) {
  // A cyclic sweep over entries + 1 pages, the SP-fused TLB pattern of
  // bench_ablation_tlb_reach: true LRU misses on every access.
  const int entries = 64;
  const std::int64_t page = 16 * 1024;
  std::vector<Ref> trace;
  for (int round = 0; round < 50; ++round)
    for (std::int64_t p = 0; p <= entries; ++p)
      trace.push_back({p * page + 8 * round, round % 2 == 0});
  expectSameAsReferee(makeTlb(entries, page).config(), trace, "thrash");
  SetAssocCache tlb = makeTlb(entries, page);
  for (const Ref& r : trace) tlb.access(r.addr, false);
  EXPECT_EQ(tlb.stats().misses, trace.size());
}

TEST(CacheDifferential, PagesCollidingInTheHintTable) {
  // Pages with the same hint slot: the 256-slot table of a 64-entry TLB is
  // indexed by the top 8 bits of page * 0x9E3779B97F4A7C15, so search for
  // a large family of colliding pages and cycle through more of them than
  // the TLB holds, and through fewer.
  const int entries = 64;
  const std::int64_t page = 4096;
  auto slot = [](std::uint64_t p) {
    return (p * 0x9E3779B97F4A7C15ull) >> 56;
  };
  std::vector<std::int64_t> colliding;
  for (std::uint64_t p = 0; colliding.size() < 100; ++p)
    if (slot(p) == slot(0)) colliding.push_back(static_cast<std::int64_t>(p));
  for (std::size_t live : {std::size_t{8}, std::size_t{entries},
                           std::size_t{entries} + 1, std::size_t{100}}) {
    std::vector<Ref> trace;
    SplitMix64 rng(live);
    for (int i = 0; i < 20000; ++i) {
      const std::int64_t p = colliding[static_cast<std::size_t>(
          rng.nextBelow(live))];
      trace.push_back({p * page, rng.nextBelow(2) == 0});
    }
    expectSameAsReferee(makeTlb(entries, page).config(), trace,
                        "colliding, live " + std::to_string(live));
  }
}

TEST(CacheDifferential, PowerOfTwoStridesInEightWaySets) {
  // Strides that are multiples of the set count's span map to one set and,
  // with a low-bit index, would share one hint too.
  const CacheConfig cfg{32 * 1024, 64, 8, "8w"};
  for (std::int64_t stride : {4096, 32 * 1024, 1 << 20}) {
    std::vector<Ref> trace;
    SplitMix64 rng(static_cast<std::uint64_t>(stride));
    for (int i = 0; i < 30000; ++i)
      trace.push_back({static_cast<std::int64_t>(rng.nextBelow(12)) * stride +
                           static_cast<std::int64_t>(rng.nextBelow(4)) * 64,
                       rng.nextBelow(2) == 0});
    expectSameAsReferee(cfg, trace, "stride " + std::to_string(stride));
  }
}

TEST(CacheDifferential, NegativeAndExtremeAddresses) {
  const std::int64_t lo = INT64_MIN;
  const std::int64_t hi = INT64_MAX - 4096;  // room for the prefetch line
  for (int ways : {1, 2, 4, 64}) {
    const CacheConfig cfg{4 * ways * 32, 32, ways, "neg"};
    const std::string w = std::to_string(ways) + "-way";
    expectSameAsReferee(cfg, randomPages(ways, 20000, 3 * ways, 32, -64 * 32),
                        w + " around zero");
    expectSameAsReferee(cfg, randomPages(ways, 5000, 2 * ways, 32, lo),
                        w + " at INT64_MIN");
    expectSameAsReferee(
        cfg, randomPages(ways, 5000, 2 * ways, 32, hi - 2 * ways * 32),
        w + " near INT64_MAX");
  }
  // One-byte lines: address -1 is the block whose bits equal an empty
  // line's tag.  Touch it while the set still has empty lines.
  for (int ways : {1, 2, 8}) {
    const CacheConfig cfg{ways, 1, ways, "byte"};
    std::vector<Ref> trace = {{-1, false}, {0, true}, {-1, true}};
    SplitMix64 rng(ways);
    for (int i = 0; i < 5000; ++i)
      trace.push_back({rng.nextInRange(-3, 2), rng.nextBelow(2) == 0});
    expectSameAsReferee(cfg, trace, std::to_string(ways) + "-way byte lines");
  }
}

void expectSameCounts(const MissCounts& a, const MissCounts& b,
                      const std::string& what) {
  EXPECT_EQ(a.refs, b.refs) << what;
  EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
  EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
  EXPECT_EQ(a.tlbMisses, b.tlbMisses) << what;
  EXPECT_EQ(a.l2Writebacks, b.l2Writebacks) << what;
  EXPECT_EQ(a.l2Prefetches, b.l2Prefetches) << what;
  EXPECT_EQ(a.l2PrefetchHits, b.l2PrefetchHits) << what;
}

std::vector<apps::AppInfo> registryApps() {
  std::vector<apps::AppInfo> all = apps::evaluationApps();
  all.push_back({"Sweep3D", "", "", [] { return apps::buildApp("Sweep3D"); }});
  return all;
}

/// Large enough that the scaled-down L2s evict (and write back) lines.
std::int64_t smallSize(const std::string& app) {
  return app == "SP" || app == "Sweep3D" ? 12 : 64;
}

TEST(CacheDifferential, RegistryAppsMatchRefereeOnEveryMachine) {
  MachineConfig prefetching = MachineConfig::origin2000();
  prefetching.l2NextLinePrefetch = true;
  const MachineConfig machines[] = {
      MachineConfig::origin2000(), MachineConfig::octane(),
      MachineConfig::origin2000().scaledDown(4),
      MachineConfig::origin2000().scaledDown(16), prefetching};
  MissCounts total;
  for (const apps::AppInfo& app : registryApps()) {
    const Program prog = app.build();
    ExecOptions opts;
    opts.n = smallSize(app.name);
    for (Strategy s :
         {Strategy::NoOpt, Strategy::Fused, Strategy::FusedRegrouped}) {
      const ProgramVersion v = makeVersion(prog, s);
      const DataLayout layout = v.layoutAt(opts.n);
      for (const MachineConfig& m : machines) {
        const std::string what = app.name + " strategy " +
                                 std::to_string(static_cast<int>(s)) + " " +
                                 m.name +
                                 (m.l2NextLinePrefetch ? " prefetch" : "");
        MemoryHierarchy fast(m);
        RefereeHierarchy referee(m);
        TeeSink tee({&fast, &referee});
        execute(v.program, layout, opts, &tee);
        expectSameCounts(fast.counts(), referee.counts(), what);
        EXPECT_EQ(fast.memoryTrafficBytes(), referee.memoryTrafficBytes())
            << what;
        EXPECT_GT(fast.counts().tlbMisses, 0u) << what;
        total.l2Writebacks += fast.counts().l2Writebacks;
        total.l2PrefetchHits += fast.counts().l2PrefetchHits;
      }
    }
  }
  EXPECT_GT(total.l2Writebacks, 0u);
  EXPECT_GT(total.l2PrefetchHits, 0u);
}

/// One core's private L1 + L2 over referee caches (multicore.cpp's
/// private-level path).
class RefereePrivateLevels final : public InstrSink {
 public:
  RefereePrivateLevels(const CacheConfig& l1, const CacheConfig& l2)
      : l1_(l1), l2_(l2) {}
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) access(r, false);
    access(write, true);
  }
  const CacheStats& l1Stats() const { return l1_.stats(); }
  const CacheStats& l2Stats() const { return l2_.stats(); }

 private:
  void access(std::int64_t addr, bool isWrite) {
    if (!l1_.access(addr, isWrite)) l2_.access(addr, isWrite);
  }
  RefereeCache l1_;
  RefereeCache l2_;
};

TEST(CacheDifferential, MulticoreEightWayPrivateLevelsMatchReferee) {
  std::uint64_t writebacks = 0;
  for (const apps::AppInfo& app : registryApps()) {
    const Program prog = app.build();
    ExecOptions opts;
    opts.n = smallSize(app.name) / 2;
    for (Strategy s : {Strategy::NoOpt, Strategy::FusedRegrouped}) {
      const ProgramVersion v = makeVersion(prog, s);
      const DataLayout layout = v.layoutAt(opts.n);
      const PlanCompileResult compiled = compilePlan(v.program, layout, opts);
      ASSERT_TRUE(compiled.ok()) << app.name;
      for (const CacheTopology& topo :
           {CacheTopology::symmetric(4), CacheTopology::symmetric(2)
                                             .scaledDown(8)}) {
        const MulticoreProfile mp = analyzeMulticore(*compiled.plan, topo);
        ASSERT_EQ(mp.perCore.size(), static_cast<std::size_t>(topo.cores));
        for (int c = 0; c < topo.cores; ++c) {
          const std::string what = app.name + " strategy " +
                                   std::to_string(static_cast<int>(s)) + " " +
                                   topo.name + " core " + std::to_string(c);
          RefereePrivateLevels referee(topo.l1, topo.l2);
          replaySlice(*compiled.plan, {topo.cores, c, topo.schedule},
                      &referee);
          const CoreCacheStats& got = mp.perCore[static_cast<std::size_t>(c)];
          EXPECT_EQ(got.refs, referee.l1Stats().accesses) << what;
          EXPECT_EQ(got.l1Misses, referee.l1Stats().misses) << what;
          EXPECT_EQ(got.l2Misses, referee.l2Stats().misses) << what;
          EXPECT_EQ(got.l2Writebacks, referee.l2Stats().writebacks) << what;
          writebacks += got.l2Writebacks;
        }
      }
    }
  }
  EXPECT_GT(writebacks, 0u);
}

}  // namespace
}  // namespace gcr
