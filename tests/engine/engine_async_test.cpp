// Async scheduler: futures, in-flight deduplication, slot-per-task batch
// determinism across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "apps/registry.hpp"
#include "engine/engine.hpp"
#include "interp/layout.hpp"
#include "ir/builder.hpp"
#include "ir/print.hpp"

namespace gcr {
namespace {

bool sameSimulatedFields(const Measurement& a, const Measurement& b) {
  return std::memcmp(&a.counts, &b.counts, sizeof a.counts) == 0 &&
         a.cycles == b.cycles &&
         a.memoryTrafficBytes == b.memoryTrafficBytes &&
         a.effectiveBandwidth == b.effectiveBandwidth;
}

/// Cached values replay verbatim: even wall-clock fields must agree.
bool byteIdentical(const Measurement& a, const Measurement& b) {
  return sameSimulatedFields(a, b) && a.wallSeconds == b.wallSeconds &&
         a.accessesPerSecond == b.accessesPerSecond;
}

/// A program that writes one element past its array on the last iteration:
/// the plan compiler declines it, so the Engine falls back to the tree
/// walker, which throws gcr::Error inside the computation.
ProgramVersion outOfBoundsVersion() {
  ProgramBuilder b("oob");
  ArrayId a = b.array("A", {AffineN::N()});
  b.loop("i", 0, AffineN::N(),
         [&](IxVar i) { b.assign(b.ref(a, {i}), {}); });
  return ProgramVersion{"oob", b.take(), contiguousLayout};
}

TEST(EngineAsync, SubmitResolvesToSyncResult) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  ProgramVersion v = engine.version(p, Strategy::Fused);
  const MachineConfig m = MachineConfig::origin2000();

  Future<Reply> f =
      engine.submit(MeasureTask{v.clone(), 32, m, 1, CostModel{}});
  const Measurement async = replyAs<Measurement>(f.get());
  const Measurement sync = engine.measure(v, 32, m);
  // The second call is a cache hit on the first, so all fields agree.
  EXPECT_TRUE(sameSimulatedFields(async, sync));
  EXPECT_EQ(async.wallSeconds, sync.wallSeconds);
}

TEST(EngineAsync, InFlightDuplicatesCoalesceUnderFourThreads) {
  EngineConfig opts;
  opts.threads = 4;
  Engine engine(opts);
  Program p = apps::buildApp("Swim");
  ProgramVersion v = engine.version(p, Strategy::FusedRegrouped);
  const MachineConfig m = MachineConfig::origin2000();

  // 16 identical submissions racing on 4 threads: exactly one simulation
  // runs; every other submission is either coalesced onto the in-flight
  // computation or served from the cache after it lands.
  constexpr int kDup = 16;
  std::vector<Future<Reply>> futures;
  futures.reserve(kDup);
  for (int i = 0; i < kDup; ++i)
    futures.push_back(engine.submit(MeasureTask{v.clone(), 28, m, 2,
                                                CostModel{}}));
  std::vector<Measurement> results;
  results.reserve(kDup);
  for (Future<Reply>& f : futures)
    results.push_back(replyAs<Measurement>(f.get()));

  for (int i = 1; i < kDup; ++i) {
    EXPECT_TRUE(sameSimulatedFields(results[0], results[i]));
    EXPECT_EQ(results[0].wallSeconds, results[i].wallSeconds);
  }
  // Every submission after the first is either a cache hit (the simulation
  // already landed) or coalesced onto the in-flight computation; the cache
  // ends up with exactly one entry either way.  (A coalescing submission
  // still records a cache miss first, so `misses` alone is timing-dependent.)
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.hits + s.inflightCoalesced,
            static_cast<std::uint64_t>(kDup - 1));
  EXPECT_EQ(s.measurement.entries, 1u);
}

TEST(EngineAsync, SyncAndAsyncDuplicatesShareOneComputation) {
  Engine engine(EngineConfig{}.withThreads(4));
  Program p = apps::buildApp("Tomcatv");
  const ProgramVersion v = engine.version(p, Strategy::Fused);
  const MachineConfig m = MachineConfig::origin2000();

  // N synchronous measure() calls on their own threads race N submit()s of
  // the same key: one simulation runs, and every other caller, on either
  // path, is a cache hit or attaches to that one computation.
  constexpr int kDup = 8;
  std::vector<Measurement> syncResults(kDup);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDup; ++i)
    threads.emplace_back([&, i] {
      while (!go.load()) std::this_thread::yield();
      syncResults[static_cast<std::size_t>(i)] = engine.measure(v, 40, m, 2);
    });
  go.store(true);
  std::vector<Future<Reply>> futures;
  for (int i = 0; i < kDup; ++i)
    futures.push_back(
        engine.submit(MeasureTask{v.clone(), 40, m, 2, CostModel{}}));
  for (std::thread& t : threads) t.join();

  const Measurement& first = syncResults[0];
  for (const Measurement& r : syncResults) EXPECT_TRUE(byteIdentical(first, r));
  for (const Future<Reply>& f : futures)
    EXPECT_TRUE(byteIdentical(first, replyAs<Measurement>(f.get())));
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.measurement.entries, 1u);
  EXPECT_EQ(s.measurement.hits + s.inflightCoalesced,
            static_cast<std::uint64_t>(2 * kDup - 1));
}

TEST(EngineAsync, ThrowingComputationFailsEveryWaiterAndCachesNothing) {
  Engine engine(EngineConfig{}.withThreads(4));
  const ProgramVersion v = outOfBoundsVersion();
  const MachineConfig m = MachineConfig::origin2000();
  // Large enough that the walker runs a while before the last iteration
  // throws, so duplicates have a window to attach.
  constexpr std::int64_t n = 1 << 16;

  constexpr int kDup = 4;
  std::atomic<int> syncErrors{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kDup; ++i)
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      try {
        (void)engine.measure(v, n, m);
      } catch (const Error&) {
        ++syncErrors;
      }
    });
  go.store(true);
  std::vector<Future<Reply>> futures;
  for (int i = 0; i < kDup; ++i)
    futures.push_back(engine.submit(MeasureTask{v.clone(), n, m}));
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(syncErrors.load(), kDup);
  for (const Future<Reply>& f : futures) EXPECT_THROW(f.get(), Error);

  // The failed key left no cache entry and no in-flight entry behind: each
  // retry, on either path, starts (and fails) a computation of its own
  // instead of attaching to the finished one.
  const Engine::Stats before = engine.stats();
  EXPECT_EQ(before.measurement.entries, 0u);
  EXPECT_THROW(engine.measure(v, n, m), Error);
  EXPECT_THROW(engine.submit(MeasureTask{v.clone(), n, m}).get(), Error);
  const Engine::Stats after = engine.stats();
  EXPECT_EQ(after.measurement.entries, 0u);
  EXPECT_EQ(after.measurement.misses, before.measurement.misses + 2);
  EXPECT_EQ(after.inflightCoalesced, before.inflightCoalesced);
}

TEST(EngineAsync, SecondBatchPassIsServedFromTheCaches) {
  Engine engine(EngineConfig{}.withThreads(4));
  const MachineConfig m = MachineConfig::origin2000();
  std::vector<MeasureTask> measures;
  std::vector<ReuseTask> profiles;
  for (const char* app : {"ADI", "Swim", "Tomcatv", "SP"}) {
    Program p = apps::buildApp(app);
    for (Strategy s : {Strategy::NoOpt, Strategy::FusedRegrouped}) {
      measures.push_back({engine.version(p, s), 20, m, 1, CostModel{}});
      profiles.push_back({engine.version(p, s), 20, 1});
    }
  }
  const std::vector<Measurement> cold = engine.measureAll(measures);
  const std::vector<ReuseProfile> coldProfiles =
      engine.reuseProfilesOf(profiles);
  const Engine::Stats before = engine.stats();

  // The warm pass adds no miss in any cache and replays every result.
  const std::vector<Measurement> warm = engine.measureAll(measures);
  const std::vector<ReuseProfile> warmProfiles =
      engine.reuseProfilesOf(profiles);
  const Engine::Stats after = engine.stats();
  EXPECT_EQ(after.measurement.misses, before.measurement.misses);
  EXPECT_EQ(after.profile.misses, before.profile.misses);
  EXPECT_EQ(after.plan.misses, before.plan.misses);
  EXPECT_EQ(after.measurement.hits, before.measurement.hits + measures.size());
  EXPECT_EQ(after.profile.hits, before.profile.hits + profiles.size());
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_TRUE(byteIdentical(cold[i], warm[i])) << "slot " << i;
    EXPECT_EQ(coldProfiles[i].accesses, warmProfiles[i].accesses);
    EXPECT_EQ(coldProfiles[i].distinctData, warmProfiles[i].distinctData);
  }
}

TEST(EngineAsync, PipelineFutureMatchesDirectRun) {
  Engine engine;
  Program p = apps::buildApp("Tomcatv");
  Future<Reply> f =
      engine.submit(PipelineRequest{p.clone(), PipelineOptions{}});
  const PipelineResult& async = replyAs<PipelineResult>(f.get());
  const PipelineResult direct = runPipeline(p);
  EXPECT_EQ(toString(async.program), toString(direct.program));
}

TEST(EngineAsync, MeasureAllKeepsSlotPerTaskOrder) {
  EngineConfig opts;
  opts.threads = 4;
  Engine engine(opts);
  const MachineConfig m = MachineConfig::origin2000();

  // Distinct apps in a deliberate order; result i must describe tasks[i].
  const char* appNames[] = {"SP", "ADI", "Swim", "ADI", "Tomcatv", "SP"};
  const std::int64_t sizes[] = {14, 48, 24, 32, 24, 14};
  std::vector<MeasureTask> tasks;
  for (int i = 0; i < 6; ++i) {
    Program p = apps::buildApp(appNames[i]);
    tasks.push_back(
        {engine.version(p, Strategy::NoOpt), sizes[i], m, 1, CostModel{}});
  }
  const std::vector<Measurement> batch = engine.measureAll(tasks);
  ASSERT_EQ(batch.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const Measurement solo =
        engine.measure(tasks[static_cast<std::size_t>(i)].version, sizes[i], m);
    EXPECT_TRUE(sameSimulatedFields(batch[static_cast<std::size_t>(i)], solo))
        << "slot " << i << " (" << appNames[i] << ")";
  }
}

TEST(EngineAsync, BatchResultsIdenticalAcrossThreadCounts) {
  const MachineConfig m = MachineConfig::origin2000();
  auto runBatch = [&](int threads) {
    EngineConfig opts;
    opts.threads = threads;
    Engine engine(opts);
    std::vector<MeasureTask> tasks;
    for (const char* app : {"ADI", "Swim", "SP"}) {
      Program p = apps::buildApp(app);
      tasks.push_back({engine.version(p, Strategy::FusedRegrouped),
                       app[0] == 'S' ? 20 : 40, m, 1, CostModel{}});
    }
    return engine.measureAll(tasks);
  };
  const std::vector<Measurement> seq = runBatch(1);
  const std::vector<Measurement> par = runBatch(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i)
    EXPECT_TRUE(sameSimulatedFields(seq[i], par[i])) << "slot " << i;
}

TEST(EngineAsync, ReuseProfileBatchMatchesSingle) {
  Engine engine;
  Program p = apps::buildApp("ADI");
  std::vector<ReuseTask> tasks;
  tasks.push_back({engine.version(p, Strategy::NoOpt), 32, 1});
  tasks.push_back({engine.version(p, Strategy::Fused), 32, 1});
  const std::vector<ReuseProfile> batch = engine.reuseProfilesOf(tasks);
  ASSERT_EQ(batch.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ReuseProfile solo = engine.reuseProfile(tasks[i].version, 32);
    EXPECT_EQ(batch[i].accesses, solo.accesses);
    EXPECT_EQ(batch[i].distinctData, solo.distinctData);
  }
}

}  // namespace
}  // namespace gcr
