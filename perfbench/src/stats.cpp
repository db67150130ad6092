#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 ? values[m] : 0.5 * (values[m - 1] + values[m]);
}

namespace {

/// Samples strictly beyond the nearest-rank p-th percentile of `count`.
std::size_t samplesBeyond(std::size_t count, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  return count - std::max<std::size_t>(rank, 1);
}

}  // namespace

std::optional<double> reportablePercentile(std::vector<double> values,
                                           double p) {
  if (values.empty() || samplesBeyond(values.size(), p) < 10)
    return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

int highestReportablePercentile(std::size_t count, int wanted) {
  for (int p = wanted; p > 50; --p)
    if (samplesBeyond(count, p) >= 10) return p;
  return 50;
}

int Tracer::begin(std::string name, std::string item) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), now(), 0.0,
                    open_.empty() ? -1 : open_.back(), std::move(item)});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(std::string name, double start, double end,
                 std::string item) {
  spans_.push_back({std::move(name), start, end,
                    open_.empty() ? -1 : open_.back(), std::move(item)});
}

std::map<std::string, double> selfTimes(const std::vector<Span>& spans) {
  std::vector<double> childTime(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[spans[i].name] += spans[i].end - spans[i].start - childTime[i];
  return self;
}

double peakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

}  // namespace perfbench
