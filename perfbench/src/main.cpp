// perfbench — the repository benchmark program.  Usually started by run.py,
// which builds it first:
//
//   perfbench --workload <hierarchy_sweep|reuse_sweep|server_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             --expected <file> --daemon <gcr-server> --run-dir <dir>
//             [--spans-out <file>]
//   perfbench --write-expected <file>
//
// Prints every metric by name with its unit; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes every span to --spans-out when given).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "runs.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printResult(const Tally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("outcomes: %llu attempted, %llu ok, %llu busy, %llu errors, "
              "%llu wrong outputs; failed_frac %.6g\n",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.ok),
              static_cast<unsigned long long>(t.busy),
              static_cast<unsigned long long>(t.errors),
              static_cast<unsigned long long>(t.mismatches), t.failedFrac());
  std::string json = "{\"correct\": ";
  json += (t.mismatches == 0 && t.errors == 0 && t.attempted > 0) ? "true"
                                                                  : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Each timing is the median over passes (rounds) of its per-pass value.
/// Latency percentiles are taken per pass too when every pass alone has ten
/// requests beyond its p99; otherwise over all requests of the run pooled,
/// with p99 replaced by the highest percentile that has ten beyond it.
std::vector<Metric> endToEnd(const RunResult& r) {
  std::vector<double> setup, wall, rate, p50, p99, cold, all, allCold;
  bool perPass = !r.passes.empty();
  for (const PassResult& p : r.passes) {
    setup.push_back(p.setup);
    wall.push_back(p.wall);
    rate.push_back(p.wall > 0 ? double(p.latencies.size()) / p.wall : 0.0);
    p50.push_back(median(p.latencies));
    p99.push_back(reportablePercentile(p.latencies, 99).value_or(0.0));
    cold.push_back(median(p.coldLatencies));
    perPass = perPass && reportablePercentile(p.latencies, 99).has_value();
    all.insert(all.end(), p.latencies.begin(), p.latencies.end());
    allCold.insert(allCold.end(), p.coldLatencies.begin(),
                   p.coldLatencies.end());
  }
  const int pct = perPass ? 99 : highestReportablePercentile(all.size(), 99);
  if (!perPass) {
    p50 = {median(all)};
    p99 = {reportablePercentile(all, pct).value_or(0.0)};
    cold = {median(allCold)};
  }
  std::printf("samples: %zu passes, %zu requests (%zu fresh); latencies %s; "
              "latency_p99_ms reports p%d\n",
              r.passes.size(), all.size(), allCold.size(),
              perPass ? "per pass" : "pooled over passes", pct);
  return {
      {"setup_s", median(setup), "s"},
      {"wall_s", median(wall), "s"},
      {"peak_rss_mb", r.peakRssMb, "MB"},
      {"req_per_s", median(rate), "1/s"},
      {"latency_p50_ms", median(p50) * 1e3, "ms"},
      {"latency_p99_ms", median(p99) * 1e3, "ms"},
      {"cold_latency_p50_ms", median(cold) * 1e3, "ms"},
  };
}

double rate(const LayerRun& L, const std::map<std::string, double>& self,
            const std::string& work, const std::string& span) {
  const auto w = L.work.find(work);
  const auto s = self.find(span);
  return w != L.work.end() && s != self.end() && s->second > 0
             ? w->second / s->second / 1e6
             : 0.0;
}

std::vector<Metric> perLayer(const LayerRun& L, double untracedWall) {
  const std::map<std::string, double> self = L.tracer.selfTimes();
  double total = 0;
  for (const auto& [name, s] : self) total += s;
  std::printf("%-26s %12s %8s\n", "span", "self_s", "share");
  for (const auto& [name, s] : self)
    std::printf("%-26s %12.6f %7.2f%%\n", name.c_str(), s,
                total > 0 ? 100.0 * s / total : 0.0);
  std::printf("traced total %.6f s (single thread) next to untraced "
              "wall_s %.6f s\n",
              total, untracedWall);
  auto get = [&](const std::map<std::string, double>& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto work = [&](const char* k) { return get(L.work, k); };
  return {
      {"driver.pipeline_s", get(self, "driver.pipeline"), "s"},
      {"interp.plan_compile_s", get(self, "interp.plan_compile"), "s"},
      {"interp.exec_macc_s",
       rate(L, self, "interp.exec.accesses", "interp.exec"), "Macc/s"},
      {"cachesim.tlb_macc_s", rate(L, self, "cachesim.accesses", "cachesim.tlb"),
       "Macc/s"},
      {"cachesim.l1_macc_s", rate(L, self, "cachesim.accesses", "cachesim.l1"),
       "Macc/s"},
      {"cachesim.hierarchy_macc_s",
       rate(L, self, "cachesim.accesses", "cachesim.hierarchy"), "Macc/s"},
      {"cachesim.tlb_misses", work("cachesim.tlb_misses"), "count"},
      {"cachesim.l1_misses", work("cachesim.l1_misses"), "count"},
      {"cachesim.l2_misses", work("cachesim.l2_misses"), "count"},
      {"locality.rd_exact_macc_s",
       rate(L, self, "locality.rd.accesses", "locality.rd_exact"), "Macc/s"},
      {"locality.rd_distinct_data", work("locality.rd_distinct_data"),
       "count"},
      {"locality.multicore_s", get(self, "locality.multicore"), "s"},
      {"engine.hit_us", work("engine.hit_us"), "us"},
      {"engine.cache_hits", work("engine.cache_hits"), "count"},
      {"engine.cache_misses", work("engine.cache_misses"), "count"},
      {"engine.inflight_coalesced", work("engine.inflight_coalesced"),
       "count"},
      {"store.get_us", work("store.get_us"), "us"},
      {"store.put_us", work("store.put_us"), "us"},
      {"store.hits", work("store.hits"), "count"},
      {"store.puts", work("store.puts"), "count"},
      {"store.bytes_loaded", work("store.bytes_loaded"), "bytes"},
      {"server.wire_us", work("server.wire_us"), "us"},
      {"server.busy_replies", work("server.busy_replies"), "count"},
  };
}

/// Every recorded span, one per line, times in seconds from the first.
bool writeSpans(const Tracer& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = t.spans().empty() ? 0.0 : t.spans().front().start;
  std::fprintf(f, "id\tparent\tname\titem\tstart_s\tend_s\n");
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const Span& s = t.spans()[i];
    std::fprintf(f, "%zu\t%d\t%s\t%s\t%.9f\t%.9f\n", i, s.parent,
                 s.name.c_str(), s.item.c_str(), s.start - origin,
                 s.end - origin);
  }
  return std::fclose(f) == 0;
}

int writeExpected(const std::string& path) {
  gcr::Engine engine(pinnedConfig(kThreads));
  Expected e;
  for (const Item& it : allExpectedItems())
    e.set(it.key(), computeDigest(engine, it));
  if (!e.save(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %zu digests to %s\n", e.entries().size(), path.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <hierarchy_sweep|reuse_sweep|"
               "server_mix> --seed <n> --seconds <s> --trace <0|1> "
               "--expected <file> --daemon <gcr-server> --run-dir <dir> "
               "[--spans-out <file>]\n"
               "       perfbench --write-expected <file>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return usage();
    args[flag.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage();
  if (args.count("write-expected")) return writeExpected(args["write-expected"]);
  for (const char* k :
       {"workload", "seed", "seconds", "trace", "expected", "daemon", "run-dir"})
    if (!args.count(k)) return usage();
  const std::string workload = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  if ((workload != "hierarchy_sweep" && workload != "reuse_sweep" &&
       workload != "server_mix") ||
      seconds <= 0 || (args["trace"] != "0" && args["trace"] != "1"))
    return usage();

  std::optional<Expected> expected = Expected::load(args["expected"]);
  if (!expected) {
    std::fprintf(stderr, "perfbench: cannot read expected digests %s\n",
                 args["expected"].c_str());
    return 1;
  }
  Context ctx{std::move(*expected), args["daemon"], args["run-dir"]};
  std::error_code ec;
  std::filesystem::create_directories(ctx.runDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", ctx.runDir.c_str());
    return 1;
  }

  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              seconds, trace ? 1 : 0);
  std::printf("in-process engine config: %s\n",
              describe(pinnedConfig(kThreads)).c_str());
  int status = 0;
  try {
    const bool inProcess = workload != "server_mix";
    const std::vector<Item> items = workload == "hierarchy_sweep"
                                        ? hierarchyItems(sweepSizes())
                                        : reuseItems(sweepSizes());
    if (!trace) {
      const RunResult r = inProcess ? runSweep(items, ctx, seed, seconds, 3)
                                    : runServerMix(ctx, seed, seconds, 2);
      printResult(r.tally, endToEnd(r));
    } else {
      // One untraced pass first, for wall_s beside the traced self times.
      const RunResult ref = inProcess ? runSweep(items, ctx, seed, 0, 1)
                                      : runServerMix(ctx, seed, 0, 1);
      LayerRun L;
      L.tally.merge(ref.tally);
      const Expected& ex = ctx.expected;
      if (workload == "hierarchy_sweep") {
        replayLayers(items, {.cachesim = true}, "", ex, L);
        replayLayers(catalogItems(), {.rd = true, .multicore = true},
                     "probe.", ex, L);
      } else if (workload == "reuse_sweep") {
        replayLayers(items, {.rd = true}, "", ex, L);
        replayLayers(catalogItems(), {.cachesim = true, .multicore = true},
                     "probe.", ex, L);
      } else {
        replayLayers(catalogItems(),
                     {.cachesim = true, .rd = true, .multicore = true}, "",
                     ex, L);
      }
      probeServerLayers(ctx, seed, L);
      if (args.count("spans-out") && !writeSpans(L.tracer, args["spans-out"]))
        throw std::runtime_error("cannot write " + args["spans-out"]);
      printResult(L.tally, perLayer(L, ref.passes.front().wall));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::filesystem::remove_all(ctx.runDir, ec);
  return status;
}
