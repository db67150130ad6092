// hierarchy_sweep and reuse_sweep: the timed passes, and the single-threaded
// layer replay shared by every per-layer run.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "apps/registry.hpp"
#include "interp/plan.hpp"
#include "ir/stats.hpp"
#include "runs.hpp"

namespace perfbench {

namespace {

using gcr::InstrBlock;

/// Requests in flight in a timed pass: the pool of an Engine with kThreads
/// threads runs kThreads - 1 workers (the calling thread counts as one;
/// see support/thread_pool.hpp).
constexpr std::size_t kInFlight = kThreads - 1;

/// Keeps a copy of every block a plan execution emits, so each consumer
/// layer can be timed alone over exactly the stream the program feeds it.
class BlockRecorder final : public gcr::InstrSink {
 public:
  void onInstr(int stmtId, std::span<const std::int64_t> reads,
               std::int64_t write) override {
    const std::uint64_t offsets[2] = {0, reads.size()};
    onBlock(InstrBlock{{&stmtId, 1}, {offsets, 2}, reads, {&write, 1}});
  }

  void onBlock(const InstrBlock& b) override {
    blocks_.push_back({stmtIds_.size(), offsets_.size(), pool_.size(),
                       b.size(), b.readPool.size()});
    stmtIds_.insert(stmtIds_.end(), b.stmtIds.begin(), b.stmtIds.end());
    offsets_.insert(offsets_.end(), b.readOffsets.begin(),
                    b.readOffsets.begin() +
                        static_cast<std::ptrdiff_t>(b.size() + 1));
    pool_.insert(pool_.end(), b.readPool.begin(), b.readPool.end());
    writes_.insert(writes_.end(), b.writes.begin(), b.writes.end());
  }

  void replay(gcr::InstrSink& sink) const {
    for (const Block& k : blocks_)
      sink.onBlock(InstrBlock{{stmtIds_.data() + k.instr, k.size},
                              {offsets_.data() + k.offset, k.size + 1},
                              {pool_.data() + k.pool, k.poolSize},
                              {writes_.data() + k.instr, k.size}});
  }

 private:
  struct Block {
    std::size_t instr, offset, pool, size, poolSize;
  };
  std::vector<Block> blocks_;
  std::vector<int> stmtIds_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::int64_t> pool_;
  std::vector<std::int64_t> writes_;
};

/// One cache model fed every access alone: the TLB (every access as a read,
/// as MemoryHierarchy drives it) or the L1.
class CacheOnlySink final : public gcr::InstrBlockSink {
 public:
  CacheOnlySink(gcr::SetAssocCache cache, bool tlb)
      : cache_(std::move(cache)), tlb_(tlb) {}

  void onBlock(const InstrBlock& b) override {
    for (std::size_t i = 0; i < b.size(); ++i) {
      for (std::int64_t r : b.reads(i)) cache_.access(r, false);
      cache_.access(b.writes[i], !tlb_);
    }
  }
  std::uint64_t misses() const { return cache_.stats().misses; }

 private:
  gcr::SetAssocCache cache_;
  bool tlb_;
};

gcr::Measurement measurementOf(const gcr::MemoryHierarchy& h) {
  gcr::Measurement m;
  m.counts = h.counts();
  m.cycles = gcr::CostModel{}.cycles(m.counts);
  m.memoryTrafficBytes = h.memoryTrafficBytes();
  m.effectiveBandwidth = h.effectiveBandwidthRatio();
  return m;
}

}  // namespace

RunResult runSweep(const std::vector<Item>& items, const Context& ctx,
                   std::uint64_t seed, double seconds, int minPasses) {
  RunResult r;
  const double start = now();
  for (int index = 0; index < minPasses || now() - start < seconds; ++index) {
    // Set-up: build the apps and run every version's pipeline in a cold,
    // memory-only Engine.
    PassResult pass;
    const double t0 = now();
    gcr::Engine engine(pinnedConfig(kThreads));
    std::map<std::string, gcr::ProgramVersion> versions;
    for (const Item& it : items) {
      const std::string vk = it.app + "/" + std::to_string(int(it.strategy));
      if (!versions.count(vk))
        versions.emplace(vk, engine.version(gcr::apps::buildApp(it.app),
                                            it.strategy));
    }
    pass.setup = now() - t0;

    // Timed phase: the items in this pass's seeded order, kInFlight at a
    // time — one per pool worker, so the pool runs exactly the schedule a
    // batch submission would, while each latency (submission to ready
    // future) is the request's own service time, not its place in a queue.
    std::vector<std::size_t> order = permutation(items.size(), seed, index);
    if (index == 0) std::sort(order.begin(), order.end());  // see runs.hpp
    std::vector<gcr::Future<gcr::Reply>> futures(items.size());
    std::vector<double> submitted(items.size()), done(items.size(), -1.0);
    std::size_t next = 0, inFlight = 0;
    auto submitNext = [&] {
      const std::size_t i = order[next++];
      const Item& it = items[i];
      const gcr::ProgramVersion& v =
          versions.at(it.app + "/" + std::to_string(int(it.strategy)));
      gcr::Request req =
          it.kind == Kind::Measure
              ? gcr::Request(gcr::MeasureTask{v.clone(), it.n,
                                              machineNamed(it.machine)})
              : gcr::Request(gcr::ReuseTask{v.clone(), it.n});
      submitted[i] = now();
      futures[i] = engine.submit(std::move(req));
      ++inFlight;
    };
    const double tStart = now();
    while (next < items.size() || inFlight > 0) {
      while (next < items.size() && inFlight < kInFlight) submitNext();
      for (std::size_t i = 0; i < items.size(); ++i)
        if (done[i] < 0 && futures[i].ready()) {
          done[i] = now();
          --inFlight;
        }
      if (next < items.size() || inFlight > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    double last = tStart;
    for (double d : done) last = std::max(last, d);
    pass.wall = last - tStart;

    for (std::size_t i = 0; i < items.size(); ++i) {
      try {
        const gcr::Reply& reply = futures[i].get();
        const std::string digest =
            items[i].kind == Kind::Measure
                ? digestOf(gcr::replyAs<gcr::Measurement>(reply))
                : digestOf(gcr::replyAs<gcr::ReuseProfile>(reply));
        r.digests[items[i].key()] = digest;
        r.tally.recordChecked(ctx.expected.matches(items[i].key(), digest));
        pass.latencies.push_back(done[i] - submitted[i]);
      } catch (const std::exception&) {
        r.tally.recordError();
      }
    }
    // In a cold Engine every request is fresh work.
    pass.coldLatencies = pass.latencies;
    r.passes.push_back(std::move(pass));
    if (index == 0) r.peakRssMb = peakRssMb(static_cast<int>(::getpid()));
  }
  return r;
}

void replayLayers(const std::vector<Item>& items, LayerSet layers,
                  const std::string& frontPrefix, const Expected& expected,
                  LayerRun& out) {
  Tracer& tr = out.tracer;
  std::vector<std::string> versionKeys;
  std::map<std::string, std::vector<const Item*>> byVersion;
  for (const Item& it : items) {
    const std::string vk = it.app + "/" + std::to_string(int(it.strategy)) +
                           "/n" + std::to_string(it.n);
    if (!byVersion.count(vk)) versionKeys.push_back(vk);
    byVersion[vk].push_back(&it);
  }

  for (const std::string& vk : versionKeys) {
    const std::vector<const Item*>& group = byVersion[vk];
    const Item& first = *group.front();
    const gcr::Program program = gcr::apps::buildApp(first.app);
    ScopedSpan itemSpan(tr, "item", vk);

    std::optional<gcr::ProgramVersion> version;
    {
      ScopedSpan s(tr, frontPrefix + "driver.pipeline", vk);
      version.emplace(gcr::makeVersion(program, first.strategy));
    }
    const gcr::DataLayout layout = version->layoutAt(first.n);
    const gcr::ExecOptions opts{.n = first.n, .timeSteps = 1};
    gcr::PlanCompileResult plan;
    {
      ScopedSpan s(tr, frontPrefix + "interp.plan_compile", vk);
      plan = gcr::compilePlan(version->program, layout, opts);
    }
    if (!plan.ok()) {
      out.tally.recordError();
      continue;
    }
    const double refs = static_cast<double>(plan.plan->instrsPerStep +
                                            plan.plan->readsPerStep);
    {
      ScopedSpan s(tr, frontPrefix + "interp.exec", vk);
      gcr::executePlan(*plan.plan, opts, nullptr);
    }
    out.work[frontPrefix + "interp.exec.accesses"] += refs;

    bool wantTrace = false;
    for (const Item* it : group)
      wantTrace |= (layers.cachesim && it->kind == Kind::Measure) ||
                   (layers.rd && it->kind == Kind::Profile);
    BlockRecorder recording;
    if (wantTrace) {
      ScopedSpan s(tr, frontPrefix + "trace.record", vk);
      gcr::executePlan(*plan.plan, opts, &recording);
    }

    for (const Item* it : group) {
      if (layers.cachesim && it->kind == Kind::Measure) {
        const gcr::MachineConfig machine = machineNamed(it->machine);
        CacheOnlySink tlb(gcr::makeTlb(machine.tlbEntries, machine.pageSize),
                          true);
        CacheOnlySink l1(gcr::SetAssocCache(machine.l1), false);
        gcr::MemoryHierarchy hierarchy(machine);
        {
          ScopedSpan s(tr, "cachesim.tlb", it->key());
          recording.replay(tlb);
        }
        {
          ScopedSpan s(tr, "cachesim.l1", it->key());
          recording.replay(l1);
        }
        {
          ScopedSpan s(tr, "cachesim.hierarchy", it->key());
          recording.replay(hierarchy);
        }
        const gcr::Measurement m = measurementOf(hierarchy);
        out.tally.recordChecked(expected.matches(it->key(), digestOf(m)) &&
                                tlb.misses() == m.counts.tlbMisses &&
                                l1.misses() == m.counts.l1Misses);
        out.work["cachesim.accesses"] += refs;
        out.work["cachesim.tlb_misses"] += double(m.counts.tlbMisses);
        out.work["cachesim.l1_misses"] += double(m.counts.l1Misses);
        out.work["cachesim.l2_misses"] += double(m.counts.l2Misses);
      } else if (layers.rd && it->kind == Kind::Profile) {
        gcr::ReuseProfile p;
        {
          ScopedSpan s(tr, "locality.rd_exact", it->key());
          gcr::ReuseDistanceSink sink(8);
          sink.reserve(gcr::estimateDynamicRefs(version->program, it->n, 1),
                       static_cast<std::uint64_t>(layout.totalBytes()));
          recording.replay(sink);
          p = sink.takeProfile();
        }
        out.tally.recordChecked(expected.matches(it->key(), digestOf(p)));
        out.work["locality.rd.accesses"] += double(p.accesses);
        out.work["locality.rd_distinct_data"] += double(p.distinctData);
      } else if (layers.multicore && it->kind == Kind::Multicore) {
        gcr::MulticoreProfile mp;
        {
          ScopedSpan s(tr, "locality.multicore", it->key());
          mp = gcr::analyzeMulticore(*plan.plan, catalogTopology());
        }
        out.tally.recordChecked(expected.matches(it->key(), digestOf(mp)));
      }
    }
  }
}

}  // namespace perfbench
