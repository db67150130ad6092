#include "driver/measure.hpp"

#include <chrono>

#include "interp/interp.hpp"
#include "ir/stats.hpp"
#include "locality/sampled_reuse.hpp"
#include "support/thread_pool.hpp"

namespace gcr {

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Measurement measure(const ProgramVersion& version, std::int64_t n,
                    const MachineConfig& machine, std::uint64_t timeSteps,
                    const CostModel& cost) {
  const auto t0 = std::chrono::steady_clock::now();
  DataLayout layout = version.layoutAt(n);
  MemoryHierarchy hierarchy(machine);
  execute(version.program, layout, {.n = n, .timeSteps = timeSteps},
          &hierarchy);
  return measurementOf(hierarchy, cost, secondsSince(t0));
}

Measurement measurementOf(const MemoryHierarchy& hierarchy,
                          const CostModel& cost, double wallSeconds) {
  Measurement m;
  m.counts = hierarchy.counts();
  m.cycles = cost.cycles(m.counts);
  m.memoryTrafficBytes = hierarchy.memoryTrafficBytes();
  m.effectiveBandwidth = hierarchy.effectiveBandwidthRatio();
  m.wallSeconds = wallSeconds;
  m.accessesPerSecond =
      wallSeconds > 0 ? static_cast<double>(m.counts.refs) / wallSeconds
                      : 0.0;
  return m;
}

std::vector<Measurement> detail::measureAllUncached(
    const std::vector<MeasureTask>& tasks, int threads) {
  ThreadPool pool(threads);
  std::vector<Measurement> out(tasks.size());
  pool.parallelFor(tasks.size(), [&](std::size_t i) {
    const MeasureTask& t = tasks[i];
    out[i] = measure(t.version, t.n, t.machine, t.timeSteps, t.cost);
  });
  return out;
}

ReuseProfile reuseProfileOf(const ProgramVersion& version, std::int64_t n,
                            std::uint64_t timeSteps, double sampleRate) {
  DataLayout layout = version.layoutAt(n);
  const std::uint64_t expectedRefs =
      estimateDynamicRefs(version.program, n, timeSteps);
  const std::uint64_t dataBytes =
      static_cast<std::uint64_t>(layout.totalBytes());
  if (sampleRate >= 1.0) {
    ReuseDistanceSink sink(8);
    sink.reserve(expectedRefs, dataBytes);
    execute(version.program, layout, {.n = n, .timeSteps = timeSteps}, &sink);
    return sink.takeProfile();
  }
  SampledReuseSink sink(8, sampleRate);
  sink.reserve(expectedRefs, dataBytes);
  execute(version.program, layout, {.n = n, .timeSteps = timeSteps}, &sink);
  return sink.takeProfile();
}

std::vector<ReuseProfile> detail::reuseProfilesOfUncached(
    const std::vector<ReuseTask>& tasks, int threads, double sampleRate) {
  ThreadPool pool(threads);
  std::vector<ReuseProfile> out(tasks.size());
  pool.parallelFor(tasks.size(), [&](std::size_t i) {
    const ReuseTask& t = tasks[i];
    out[i] = reuseProfileOf(t.version, t.n, t.timeSteps, sampleRate);
  });
  return out;
}

void collectPairwise(const ProgramVersion& version, std::int64_t n,
                     PairwiseReuseCollector& collector,
                     std::uint64_t timeSteps) {
  DataLayout layout = version.layoutAt(n);
  collector.reserve(estimateDynamicRefs(version.program, n, timeSteps),
                    static_cast<std::uint64_t>(layout.totalBytes()));
  execute(version.program, layout, {.n = n, .timeSteps = timeSteps},
          &collector);
}

}  // namespace gcr
