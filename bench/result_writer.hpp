// Versioned JSON result envelope for the experiment binaries.
//
// Schema "gcr-bench/2" — every BENCH_*.json starts with the same header:
//
//   {
//     "schema": "gcr-bench/2",
//     "schema_version": 2,
//     "benchmark": "<name>",
//     ... bench-specific fields, in insertion order ...
//     "engine_cache": { pipeline/plan/measurement/profile counters,
//                       "inflight_coalesced": N },   (when an Engine ran)
//     "wall_seconds": S                              (whole-bench wall clock)
//   }
//
// schema/1 was the ad-hoc per-bench fprintf format of the pre-Engine suite;
// /2 adds the version header, the Engine cache statistics, and a uniform
// wall-clock field.  Wall-clock and cache-counter fields vary run to run —
// consumers comparing results for determinism must restrict themselves to
// the bench-specific payload, exactly as CI's grep filters do for stdout.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "engine/engine.hpp"
#include "support/json.hpp"

namespace gcr::bench {

class ResultWriter {
 public:
  static constexpr int kSchemaVersion = 2;

  explicit ResultWriter(std::string benchmark)
      : path_("BENCH_" + benchmark + ".json"),
        start_(std::chrono::steady_clock::now()) {
    json_.beginObject();
    json_.field("schema", "gcr-bench/2");
    json_.field("schema_version", std::int64_t{kSchemaVersion});
    json_.field("benchmark", std::string_view(benchmark));
  }

  /// Bench-specific payload: add fields/arrays in any order between
  /// construction and finish().
  JsonWriter& json() { return json_; }

  /// Record the cache counters of the Engine that produced the results,
  /// including the disk-tier counters (all zero when no persistent store
  /// was attached).
  void addEngineStats(const Engine::Stats& s) {
    json_.key("engine_cache").beginObject();
    writeJson(json_.key("pipeline"), s.pipeline);
    writeJson(json_.key("plan"), s.plan);
    writeJson(json_.key("measurement"), s.measurement);
    writeJson(json_.key("profile"), s.profile);
    writeJson(json_.key("symbolic"), s.symbolic);
    writeJson(json_.key("multicore"), s.multicore);
    json_.field("inflight_coalesced", s.inflightCoalesced);
    store::writeJson(json_.key("store"), s.store);
    json_.endObject();
  }

  /// Close the envelope (stamping the wall clock since construction) and
  /// write BENCH_<benchmark>.json.
  bool finish() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    json_.field("wall_seconds", wall, 3);
    json_.endObject();
    if (!json_.writeFile(path_)) return false;
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

  const std::string& path() const { return path_; }

 private:
  JsonWriter json_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gcr::bench
