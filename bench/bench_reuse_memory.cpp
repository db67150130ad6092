// Peak memory and time of reuse-distance profiling, exact and sampled.
//
// For each paper app at the reuse_sweep sizes (ADI n=512, Swim/Tomcatv
// n=256, SP n=24; NoOpt, T=1) the bench forks one child per mode and reads
// the child's peak RSS from wait4():
//
//   * baseline — builds nothing new and exits: the memory every child
//                inherits (program, layout, allocator state);
//   * exact    — reuseProfileOf() at rate 1 (ReuseDistanceSink);
//   * sampled  — reuseProfileOf() at rate 1/64 (SampledReuseSink).
//
// A mode's tracker memory is its peak RSS minus the baseline's.  Only
// public driver calls are used, so the same source builds against any
// version of the library and the figures compare across versions.
// Results land in BENCH_reuse_memory.json.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "result_writer.hpp"
#include "support/table.hpp"

namespace {

using namespace gcr;

struct ModeResult {
  double peakMb = 0.0;
  double seconds = 0.0;
  bool ok = false;
};

// Run `work` in a child process; returns its peak RSS and wall time.
template <typename Fn>
ModeResult inChild(Fn&& work) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    work();
    _exit(0);
  }
  ModeResult r;
  int status = 0;
  rusage ru{};
  if (pid > 0 && wait4(pid, &status, 0, &ru) == pid) {
    r.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    r.peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  return r;
}

}  // namespace

int main() {
  const std::vector<std::pair<std::string, std::int64_t>> cases = {
      {"ADI", 512}, {"Swim", 256}, {"Tomcatv", 256}, {"SP", 24}};
  constexpr double kSampleRate = 1.0 / 64.0;

  bench::ResultWriter out("reuse_memory");
  JsonWriter& json = out.json();
  json.field("sample_rate", kSampleRate, 6);
  json.key("apps").beginArray();
  TextTable t({"app", "n", "baseline MB", "exact +MB", "exact s",
               "1/64 +MB", "1/64 s"});
  bool ok = true;
  for (const auto& [app, n] : cases) {
    const ProgramVersion v = makeVersion(apps::buildApp(app), Strategy::NoOpt);
    const ModeResult base = inChild([] {});
    const ModeResult exact = inChild([&] { reuseProfileOf(v, n); });
    const ModeResult sampled =
        inChild([&] { reuseProfileOf(v, n, 1, kSampleRate); });
    ok = ok && base.ok && exact.ok && sampled.ok;
    const double exactMb = exact.peakMb - base.peakMb;
    const double sampledMb = sampled.peakMb - base.peakMb;
    t.addRow({app, std::to_string(n), TextTable::fmt(base.peakMb, 1),
              TextTable::fmt(exactMb, 1), TextTable::fmt(exact.seconds, 3),
              TextTable::fmt(sampledMb, 1),
              TextTable::fmt(sampled.seconds, 3)});
    json.beginObject();
    json.field("app", std::string_view(app));
    json.field("n", n);
    json.field("baseline_peak_mb", base.peakMb, 1);
    json.field("exact_tracker_mb", exactMb, 1);
    json.field("exact_seconds", exact.seconds, 3);
    json.field("sampled_tracker_mb", sampledMb, 1);
    json.field("sampled_seconds", sampled.seconds, 3);
    json.endObject();
  }
  json.endArray();
  json.field("children_ok", ok);
  std::printf("-- reuse-profile memory (peak RSS over baseline) --\n");
  std::printf("%s", t.render().c_str());
  if (!out.finish()) return 1;
  return ok ? 0 : 1;
}
