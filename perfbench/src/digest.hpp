// Output digests: 64-bit FNV-1a over the canonical store-codec encoding of
// each simulated result, with the wall-clock observability fields zeroed.
// The same digest is taken of an in-process result, a traced layer replay
// and a decoded server reply, so one expected file checks all three.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "driver/measure.hpp"
#include "driver/pipeline.hpp"
#include "locality/multicore.hpp"
#include "locality/reuse_distance.hpp"

namespace perfbench {

std::string digestOf(const gcr::Measurement& m);
std::string digestOf(const gcr::ReuseProfile& p);
std::string digestOf(const gcr::MulticoreProfile& p);
std::string digestOf(const gcr::PipelineResult& r);

/// Expected digests by item key, read from a "key digest" line file
/// ('#' starts a comment line).
class Expected {
 public:
  /// nullopt when the file cannot be read or a line is malformed.
  static std::optional<Expected> load(const std::string& path);

  /// True when `key` is listed with exactly `digest`.
  bool matches(const std::string& key, const std::string& digest) const;
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }
  void set(const std::string& key, const std::string& digest) {
    entries_[key] = digest;
  }
  bool save(const std::string& path) const;

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace perfbench
