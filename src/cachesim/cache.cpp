#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>

namespace gcr {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg) {
  GCR_CHECK(cfg_.lineSize > 0 && std::has_single_bit(
                static_cast<std::uint64_t>(cfg_.lineSize)),
            "line size must be a positive power of two");
  GCR_CHECK(cfg_.ways > 0, "ways must be positive");
  GCR_CHECK(cfg_.sizeBytes % (cfg_.lineSize * cfg_.ways) == 0,
            "size not divisible by way size");
  const std::int64_t sets = cfg_.numSets();
  GCR_CHECK(sets > 0 && std::has_single_bit(static_cast<std::uint64_t>(sets)),
            "set count must be a positive power of two");
  setMask_ = static_cast<std::uint64_t>(sets) - 1;
  lineShift_ = std::countr_zero(static_cast<std::uint64_t>(cfg_.lineSize));
  ways_ = cfg_.ways;
  const std::size_t lineCount =
      static_cast<std::size_t>(sets) * static_cast<std::size_t>(ways_);
  lines_.assign(lineCount, Line{});
  if (ways_ > 2) {
    // About 4 hints per line, but never more bytes than the line array.
    const std::size_t hintCount = std::bit_floor(std::min(
        4 * lineCount, lineCount * sizeof(Line) / sizeof(std::uint32_t)));
    hints_.assign(hintCount, 0);
    hintShift_ = 64 - std::countr_zero(hintCount);
  }
}

SetAssocCache::Line* SetAssocCache::scan(Line* base, std::uint64_t block) {
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == block && base[w].lastUse != 0) {
      if (!hints_.empty()) hintOf(block) = static_cast<std::uint32_t>(w);
      return &base[w];
    }
  }
  return nullptr;
}

bool SetAssocCache::accessSlow(Line* base, std::uint64_t block,
                               bool isWrite) {
  if (Line* line = scan(base, block)) {
    hit(*line, isWrite);
    return true;
  }
  ++stats_.misses;
  fill(base, block, isWrite, false);
  return false;
}

void SetAssocCache::fill(Line* base, std::uint64_t block, bool dirty,
                         bool prefetched) {
  // The first line with the oldest timestamp; empty lines (lastUse 0) go
  // first, lowest way first.
  int victim = 0;
  for (int w = 1; w < ways_; ++w)
    if (base[w].lastUse < base[victim].lastUse) victim = w;
  Line& line = base[victim];
  if (line.dirty) ++stats_.writebacks;
  line.tag = block;
  line.lastUse = clock_;
  line.dirty = dirty;
  line.prefetched = prefetched;
  if (!hints_.empty()) hintOf(block) = static_cast<std::uint32_t>(victim);
}

void SetAssocCache::prefetch(std::int64_t addr) {
  const std::uint64_t block = blockOf(addr);
  Line* const base = setOf(block);
  if (probe(base, block) != nullptr || scan(base, block) != nullptr)
    return;  // already resident
  ++clock_;
  ++stats_.prefetchFills;
  fill(base, block, false, true);
}

SetAssocCache makeTlb(int entries, std::int64_t pageSize,
                      const std::string& name) {
  CacheConfig cfg;
  cfg.lineSize = pageSize;
  cfg.ways = entries;
  cfg.sizeBytes = pageSize * entries;
  cfg.name = name;
  return SetAssocCache(cfg);
}

}  // namespace gcr
