// Test-only referee for SetAssocCache: the linear-scan LRU cache the
// simulator used before its O(1) hit path (way hints, inline 2-way probe).
// Every access scans its whole set for the tag and, on a miss, again for
// the line with the oldest timestamp.  It differs from that old code in one
// respect: empty lines carry an explicit valid bit, so block -1 (and every
// other negative block) is an ordinary block here.  Kept deliberately
// simple and slow; the differential tests require SetAssocCache to agree
// with it access by access.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "interp/trace.hpp"

namespace gcr {

class RefereeCache {
 public:
  explicit RefereeCache(const CacheConfig& cfg)
      : cfg_(cfg),
        sets_(cfg.numSets()),
        lines_(static_cast<std::size_t>(cfg.sizeBytes / cfg.lineSize)) {}

  bool access(std::int64_t addr, bool isWrite) {
    ++stats_.accesses;
    ++clock_;
    lastHitWasPrefetched_ = false;
    const std::int64_t block = blockOf(addr);
    Line* base = setOf(block);
    for (int w = 0; w < cfg_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == block) {
        line.lastUse = clock_;
        line.dirty = line.dirty || isWrite;
        if (line.prefetched) {
          ++stats_.prefetchHits;
          line.prefetched = false;
          lastHitWasPrefetched_ = true;
        }
        return true;
      }
    }
    ++stats_.misses;
    install(*findVictim(base), block, isWrite, false);
    return false;
  }

  void prefetch(std::int64_t addr) {
    const std::int64_t block = blockOf(addr);
    Line* base = setOf(block);
    for (int w = 0; w < cfg_.ways; ++w)
      if (base[w].valid && base[w].tag == block) return;
    ++clock_;
    ++stats_.prefetchFills;
    install(*findVictim(base), block, false, true);
  }

  bool lastHitWasPrefetched() const { return lastHitWasPrefetched_; }
  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    bool valid = false;
    std::int64_t tag = 0;
    std::uint64_t lastUse = 0;
    bool dirty = false;
    bool prefetched = false;
  };

  std::int64_t blockOf(std::int64_t addr) const {
    // Floor division: block -1 holds [-lineSize, 0).
    const std::int64_t q = addr / cfg_.lineSize;
    return q * cfg_.lineSize > addr ? q - 1 : q;
  }
  Line* setOf(std::int64_t block) {
    const std::int64_t set = ((block % sets_) + sets_) % sets_;
    return &lines_[static_cast<std::size_t>(set * cfg_.ways)];
  }
  Line* findVictim(Line* base) {
    Line* victim = base;
    for (int w = 0; w < cfg_.ways; ++w) {
      if (!base[w].valid) return &base[w];
      if (base[w].lastUse < victim->lastUse) victim = &base[w];
    }
    return victim;
  }
  void install(Line& line, std::int64_t block, bool dirty, bool prefetched) {
    if (line.valid && line.dirty) ++stats_.writebacks;
    line = Line{true, block, clock_, dirty, prefetched};
  }

  CacheConfig cfg_;
  std::int64_t sets_;
  std::vector<Line> lines_;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  bool lastHitWasPrefetched_ = false;
};

/// MemoryHierarchy's access path (TLB, L1, L2 with optional tagged
/// next-line prefetch) over referee caches.
class RefereeHierarchy final : public InstrSink {
 public:
  explicit RefereeHierarchy(const MachineConfig& cfg)
      : cfg_(cfg),
        l1_(cfg.l1),
        l2_(cfg.l2),
        tlb_(CacheConfig{cfg.pageSize * cfg.tlbEntries, cfg.pageSize,
                         cfg.tlbEntries, "TLB"}) {}

  void access(std::int64_t addr, bool isWrite) {
    tlb_.access(addr, false);
    if (!l1_.access(addr, isWrite)) {
      const bool l2Hit = l2_.access(addr, isWrite);
      if (cfg_.l2NextLinePrefetch && (!l2Hit || l2_.lastHitWasPrefetched()))
        l2_.prefetch(addr + cfg_.l2.lineSize);
    }
  }
  void onInstr(int, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    for (std::int64_t r : reads) access(r, false);
    access(write, true);
  }

  MissCounts counts() const {
    MissCounts m;
    m.refs = l1_.stats().accesses;
    m.l1Misses = l1_.stats().misses;
    m.l2Misses = l2_.stats().misses;
    m.tlbMisses = tlb_.stats().misses;
    m.l2Writebacks = l2_.stats().writebacks;
    m.l2Prefetches = l2_.stats().prefetchFills;
    m.l2PrefetchHits = l2_.stats().prefetchHits;
    return m;
  }
  std::uint64_t memoryTrafficBytes() const {
    return (l2_.stats().misses + l2_.stats().prefetchFills +
            l2_.stats().writebacks) *
           static_cast<std::uint64_t>(cfg_.l2.lineSize);
  }

 private:
  MachineConfig cfg_;
  RefereeCache l1_;
  RefereeCache l2_;
  RefereeCache tlb_;
};

}  // namespace gcr
