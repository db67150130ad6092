#include "digest.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "store/codec.hpp"

namespace perfbench {

namespace {

std::string fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

std::string digestOf(const gcr::Measurement& m) {
  gcr::Measurement masked = m;
  masked.wallSeconds = 0;
  masked.accessesPerSecond = 0;
  return fnv1a(gcr::store::encodeMeasurement(masked));
}

std::string digestOf(const gcr::ReuseProfile& p) {
  return fnv1a(gcr::store::encodeReuseProfile(p));
}

std::string digestOf(const gcr::MulticoreProfile& p) {
  gcr::MulticoreProfile masked = p;
  masked.wallSeconds = 0;
  return fnv1a(gcr::store::encodeMulticoreProfile(masked));
}

std::string digestOf(const gcr::PipelineResult& r) {
  return fnv1a(gcr::store::encodePipelineResult(r));
}

std::optional<Expected> Expected::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Expected e;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest, extra;
    if (!(fields >> key >> digest) || (fields >> extra) || digest.size() != 16)
      return std::nullopt;
    e.entries_[key] = digest;
  }
  return e;
}

bool Expected::matches(const std::string& key,
                       const std::string& digest) const {
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second == digest;
}

bool Expected::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# Expected output digests of the benchmark's items (FNV-1a 64 of\n"
         "# the store-codec encoding, wall-clock fields zeroed).  Regenerate\n"
         "# with: perfbench --write-expected <this file>\n";
  for (const auto& [key, digest] : entries_) out << key << ' ' << digest << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
