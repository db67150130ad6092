// Measurement helpers of the benchmark: order statistics, failure
// accounting, and the in-memory span tracer of the per-layer run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's own monotonic clock.
inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty list.
double median(std::vector<double> values);

/// The p-th percentile (0 < p < 100) of `values`, nearest-rank, reported
/// only when at least ten samples lie beyond it; nullopt otherwise.
std::optional<double> reportablePercentile(std::vector<double> values,
                                           double p);

/// The highest whole percentile <= `wanted` that reportablePercentile()
/// accepts for `count` samples; 50 when even the median has fewer than ten
/// samples beyond it (the median is always reported).
int highestReportablePercentile(std::size_t count, int wanted);

/// Outcome counts of one run.  Every attempted operation ends in exactly
/// one outcome; busy replies, errors and wrong outputs all count as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;

  void recordOk() { ++attempted, ++ok; }
  void recordBusy() { ++attempted, ++busy; }
  void recordError() { ++attempted, ++errors; }
  void recordMismatch() { ++attempted, ++mismatches; }
  /// Record `outputOk` as ok or as a mismatch.
  void recordChecked(bool outputOk) {
    outputOk ? recordOk() : recordMismatch();
  }

  std::uint64_t failed() const { return busy + errors + mismatches; }
  double failedFrac() const {
    return attempted ? static_cast<double>(failed()) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
  void merge(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    busy += o.busy;
    errors += o.errors;
    mismatches += o.mismatches;
  }
};

/// One recorded span: a named interval, the span that enclosed it (-1 for
/// a root), and the workload item it worked on.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  std::string item;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children, summed by name.
std::map<std::string, double> selfTimes(const std::vector<Span>& spans);

/// Records nested spans in memory; written out once, at the end.  Spans
/// nest strictly (one thread): begin() opens a child of the innermost open
/// span, end() closes it.
class Tracer {
 public:
  int begin(std::string name, std::string item = {});
  void end(int id);
  /// A closed span with an explicit interval (timed by the caller), child
  /// of the innermost open span.
  void add(std::string name, double start, double end,
           std::string item = {});

  const std::vector<Span>& spans() const { return spans_; }

  std::map<std::string, double> selfTimes() const {
    return perfbench::selfTimes(spans_);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string item = {})
      : tracer_(t), id_(t.begin(std::move(name), std::move(item))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Peak resident set of process `pid` (VmHWM), in MiB; 0 when unreadable.
double peakRssMb(int pid);

}  // namespace perfbench
