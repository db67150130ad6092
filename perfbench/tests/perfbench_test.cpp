// Tests of the benchmark's own helpers, and of its expected-output file
// against the slow exact referees: the tree walker for simulations and
// naiveReuseDistances for reuse profiles.
#include <gtest/gtest.h>

#include <set>

#include "apps/registry.hpp"
#include "interp/interp.hpp"
#include "runs.hpp"

namespace perfbench {
namespace {

Expected expectedFile() {
  std::optional<Expected> e = Expected::load(PERFBENCH_EXPECTED);
  EXPECT_TRUE(e.has_value());
  return e.value_or(Expected{});
}

TEST(Percentiles, ReportedOnlyWithTenSamplesBeyond) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i + 1);
  ASSERT_TRUE(reportablePercentile(v, 99).has_value());
  EXPECT_EQ(*reportablePercentile(v, 99), 990.0);
  v.pop_back();
  EXPECT_FALSE(reportablePercentile(v, 99).has_value());
  EXPECT_TRUE(reportablePercentile(v, 98).has_value());
  EXPECT_FALSE(reportablePercentile({}, 50).has_value());
}

TEST(Percentiles, HighestReportable) {
  EXPECT_EQ(highestReportablePercentile(1000, 99), 99);
  EXPECT_EQ(highestReportablePercentile(999, 99), 98);
  EXPECT_EQ(highestReportablePercentile(168, 99), 94);
  EXPECT_EQ(highestReportablePercentile(15, 99), 50);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // item [0,10] > {pipeline [1,4] > {compile [2,3]}, exec [5,6]}; a second
  // exec span elsewhere sums into the same name.
  const std::vector<Span> spans = {
      {"item", 0, 10, -1, "a"},   {"pipeline", 1, 4, 0, "a"},
      {"compile", 2, 3, 1, "a"},  {"exec", 5, 6, 0, "a"},
      {"exec", 20, 22.5, -1, "b"},
  };
  const std::map<std::string, double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self.at("item"), 6.0);
  EXPECT_DOUBLE_EQ(self.at("pipeline"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("compile"), 1.0);
  EXPECT_DOUBLE_EQ(self.at("exec"), 3.5);
}

TEST(Spans, TracerNestsByOpenSpan) {
  Tracer t;
  const int outer = t.begin("outer");
  const int inner = t.begin("inner");
  t.end(inner);
  t.add("measured", 1.0, 2.0);
  t.end(outer);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, outer);
  EXPECT_EQ(t.spans()[2].parent, outer);
  EXPECT_EQ(t.spans()[0].parent, -1);
}

TEST(Failures, BusyErrorsAndMismatchesAllCount) {
  Tally t;
  t.recordOk();
  t.recordBusy();
  t.recordError();
  t.recordChecked(true);
  const Expected e = expectedFile();
  const std::string key = "measure/ADI/NoOpt/n24/origin2000";
  ASSERT_TRUE(e.entries().count(key));
  t.recordChecked(e.matches(key, e.entries().at(key)));
  t.recordChecked(e.matches(key, "0000000000000000"));
  t.recordChecked(e.matches("measure/absent", e.entries().at(key)));
  EXPECT_EQ(t.attempted, 7u);
  EXPECT_EQ(t.ok, 3u);
  EXPECT_EQ(t.busy, 1u);
  EXPECT_EQ(t.errors, 1u);
  EXPECT_EQ(t.mismatches, 2u);
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.failedFrac(), 4.0 / 7.0);
}

TEST(Stream, SeededFreshShareIsFixedAndUnique) {
  const std::size_t catalogSize = catalogItems().size();
  const std::size_t freshCount = freshItems().size();
  const auto a = makeStream(7, 0, 256);
  EXPECT_EQ(a.size(), 256u);
  std::set<double> costs;
  for (std::uint64_t round = 0; round < 3; ++round)
    for (const StreamEntry& e : makeStream(7, round, 256))
      if (e.fresh) {
        EXPECT_LT(e.item, freshCount);
        EXPECT_TRUE(costs.insert(e.freshTlbMissCost).second);
      } else {
        EXPECT_LT(e.item, catalogSize);
      }
  EXPECT_EQ(costs.size(), 3u * 256u / kFreshEvery);
  const auto b = makeStream(7, 0, 256);
  const auto c = makeStream(8, 0, 256);
  std::size_t same = 0, differs = 0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    same += a[j].item == b[j].item && a[j].fresh == c[j].fresh;
    differs += a[j].item != c[j].item;
  }
  EXPECT_EQ(same, a.size());
  EXPECT_GT(differs, 0u);
}

TEST(InProcess, OutputsIdenticalAcrossSeeds) {
  const Context ctx{expectedFile(), "", ""};
  for (const std::vector<Item>& items :
       {hierarchyItems(refereeSizes()), reuseItems(refereeSizes())}) {
    const RunResult a = runSweep(items, ctx, 1, 0, 2);
    const RunResult b = runSweep(items, ctx, 99, 0, 1);
    EXPECT_EQ(a.tally.failed(), 0u);
    EXPECT_EQ(b.tally.failed(), 0u);
    EXPECT_EQ(a.tally.attempted, 2 * items.size());
    ASSERT_EQ(a.passes.size(), 2u);
    EXPECT_EQ(a.passes[0].latencies.size(), items.size());
    EXPECT_EQ(a.digests.size(), items.size());
    EXPECT_EQ(a.digests, b.digests);
  }
  EXPECT_NE(permutation(24, 1, 0), permutation(24, 99, 0));
}

TEST(InProcess, LayerReplayReproducesExpectedOutputs) {
  const Expected e = expectedFile();
  LayerRun run;
  replayLayers(hierarchyItems(refereeSizes()), {.cachesim = true}, "", e, run);
  replayLayers(reuseItems(refereeSizes()), {.rd = true}, "", e, run);
  replayLayers(catalogItems(), {.multicore = true}, "", e, run);
  EXPECT_EQ(run.tally.failed(), 0u);
  EXPECT_EQ(run.tally.attempted,
            hierarchyItems(refereeSizes()).size() +
                reuseItems(refereeSizes()).size() + 12u);
  const std::map<std::string, double> self = run.tracer.selfTimes();
  for (const char* layer : {"driver.pipeline", "interp.plan_compile",
                            "interp.exec", "cachesim.tlb", "cachesim.l1",
                            "cachesim.hierarchy", "locality.rd_exact",
                            "locality.multicore"})
    EXPECT_GT(self.count(layer), 0u) << layer;
}

TEST(Referees, TreeWalkerReproducesExpectedMeasurements) {
  const Expected e = expectedFile();
  gcr::Engine walker(pinnedConfig(1).withEngine(gcr::ExecEngine::TreeWalk));
  for (const Item& it : hierarchyItems(refereeSizes()))
    EXPECT_TRUE(e.matches(it.key(), computeDigest(walker, it))) << it.key();
}

TEST(Referees, NaiveReuseDistancesReproduceExpectedProfiles) {
  const Expected e = expectedFile();
  for (const Item& it : reuseItems(refereeSizes())) {
    const gcr::ProgramVersion v =
        gcr::makeVersion(gcr::apps::buildApp(it.app), it.strategy);
    gcr::InstrTrace trace;
    gcr::execute(v.program, v.layoutAt(it.n),
                 {.n = it.n, .engine = gcr::ExecEngine::TreeWalk}, &trace);
    std::vector<std::int64_t> elements;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      for (std::int64_t r : trace.reads(i)) elements.push_back(r / 8);
      elements.push_back(trace.writeAddr(i) / 8);
    }
    gcr::ReuseProfile p;
    for (std::uint64_t d : gcr::naiveReuseDistances(elements))
      p.histogram.add(d);
    p.accesses = elements.size();
    p.distinctData =
        std::set<std::int64_t>(elements.begin(), elements.end()).size();
    EXPECT_TRUE(e.matches(it.key(), digestOf(p))) << it.key();
  }
}

}  // namespace
}  // namespace perfbench
