#include "engine/engine.hpp"

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <variant>

#include "cachesim/hierarchy.hpp"
#include "interp/interp.hpp"
#include "interp/plan.hpp"
#include "ir/stats.hpp"
#include "locality/sampled_reuse.hpp"
#include "store/codec.hpp"
#include "support/thread_pool.hpp"

namespace gcr {

namespace {

// Leading key-space tags so a plan key can never alias a measurement key
// even over identical component signatures, and the entry bound of each
// kind's in-memory LRU cache.
constexpr std::uint64_t kPipelineDomain = 0xE1;
constexpr std::uint64_t kPlanDomain = 0xE2;
constexpr std::uint64_t kMeasureDomain = 0xE3;
constexpr std::uint64_t kProfileDomain = 0xE4;
constexpr std::uint64_t kSymbolicDomain = 0xE5;
constexpr std::uint64_t kMulticoreDomain = 0xE6;
constexpr std::size_t kPipelineEntries = 64;
constexpr std::size_t kPlanEntries = 64;
constexpr std::size_t kMeasurementEntries = 512;
constexpr std::size_t kProfileEntries = 128;
constexpr std::size_t kSymbolicEntries = 64;
constexpr std::size_t kMulticoreEntries = 64;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A compiled plan together with the Program clone and DataLayout copy it
/// borrows; heap-allocated via shared_ptr so the borrowed addresses are
/// stable for the plan's whole lifetime (including after cache eviction,
/// while an executing task still holds the shared_ptr).
struct CachedPlan {
  Program program;
  DataLayout layout = DataLayout({}, 0);
  PlanCompileResult compiled;
};

using PipelineResultRef = std::shared_ptr<const PipelineResult>;
using CachedPlanRef = std::shared_ptr<const CachedPlan>;

template <typename V>
using Cache = LruCache<Signature, V, SignatureHash>;

template <typename V, typename Variant>
struct IsAlternative;
template <typename V, typename... Ts>
struct IsAlternative<V, std::variant<Ts...>>
    : std::bool_constant<(std::is_same_v<V, Ts> || ...)> {};

/// What an in-flight computation of a V publishes to its waiters.  Every
/// submit()-visible artifact (a Reply alternative) publishes a Reply, so
/// synchronous and asynchronous callers of one key attach to one future;
/// the internal stages (pipeline runs, compiled plans) publish their
/// shared_ptr.
template <typename V>
using Slot = std::conditional_t<IsAlternative<V, Reply>::value, Reply, V>;

template <typename S>
using Inflight =
    std::unordered_map<Signature, std::shared_future<S>, SignatureHash>;

/// One unit of memoized work as a row prepares it: the content address and
/// the computation, which may borrow the inputs the row was given.
template <typename F>
struct Work {
  using Value = std::invoke_result_t<const F&>;
  Signature key;
  F compute;
};

/// The common prefix of every size-dependent key.
SigHasher sizedKey(std::uint64_t domain, const Program& p,
                   const DataLayout& layout, std::int64_t n,
                   std::uint64_t timeSteps) {
  SigHasher h;
  h.u64(domain)
      .sig(programSignature(p))
      .sig(layoutSignature(layout))
      .i64(n)
      .u64(timeSteps);
  return h;
}

/// A Reply alternative from a row's value.  A pipeline reply is the
/// caller's own clone of the cached run (PipelineResult is move-only).
Reply toReply(PipelineResultRef r) { return r->clone(); }
template <typename V>
Reply toReply(V v) {
  return Reply(std::move(v));
}

}  // namespace

struct Engine::Impl {
  const EngineConfig config;
  /// Tree-walker mode, resolved once at construction (explicit config field
  /// wins over GCR_ENGINE; see EngineConfig::resolveEngine).
  const bool forceWalk;
  /// Persistent disk tier; nullptr = memory-only.  Thread-safe internally,
  /// so it is consulted from computations outside `mutex`.
  const std::unique_ptr<store::ArtifactStore> diskStore;

  mutable std::mutex mutex;
  std::tuple<Cache<PipelineResultRef>, Cache<CachedPlanRef>,
             Cache<Measurement>, Cache<ReuseProfile>,
             Cache<SymbolicReuseProfile>, Cache<MulticoreProfile>>
      caches{kPipelineEntries, kPlanEntries,     kMeasurementEntries,
             kProfileEntries,  kSymbolicEntries, kMulticoreEntries};
  std::tuple<Inflight<PipelineResultRef>, Inflight<CachedPlanRef>,
             Inflight<Reply>>
      inflights;
  std::uint64_t inflightCoalesced = 0;

  // Declared last so it is destroyed first: the destructor drains pending
  // jobs, which still touch the caches and maps above.
  ThreadPool pool;

  explicit Impl(const EngineConfig& c)
      : config(c),
        forceWalk(c.resolveEngine() == ExecEngine::TreeWalk),
        diskStore(store::ArtifactStore::open({.dir = c.resolveCacheDir(),
                                              .fsync = c.storeFsync,
                                              .maxBytes = c.storeMaxBytes})),
        pool(c.resolveThreads()) {}

  template <typename V>
  Cache<V>& cache() {
    return std::get<Cache<V>>(caches);
  }
  template <typename V>
  Inflight<Slot<V>>& inflight() {
    return std::get<Inflight<Slot<V>>>(inflights);
  }

  // --- the ladder ---------------------------------------------------------

  /// A cache hit's value, or the future of the computation that makes it.
  template <typename V>
  using Memo = std::variant<V, std::shared_future<Slot<V>>>;

  /// The one memoize-and-coalesce ladder of every kind: serve `work.key`
  /// from its cache, else attach to the identical in-flight computation,
  /// else claim the key and hand the job to `exec` — run on the calling
  /// thread (now()) or enqueued on the pool (later()).  The job loads or
  /// computes the value, publishes it to the cache and every waiter, and
  /// erases the in-flight entry whether the computation returns or throws.
  template <typename F, typename Exec>
  Memo<typename Work<F>::Value> memo(Work<F> work, Exec&& exec) {
    using V = typename Work<F>::Value;
    std::shared_ptr<std::promise<Slot<V>>> promise;
    std::shared_future<Slot<V>> result;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (const V* hit = cache<V>().get(work.key)) return *hit;
      auto& pending = inflight<V>();
      if (auto it = pending.find(work.key); it != pending.end()) {
        ++inflightCoalesced;
        return it->second;
      }
      promise = std::make_shared<std::promise<Slot<V>>>();
      result = promise->get_future().share();
      pending.emplace(work.key, result);
    }
    // Hand off strictly outside the lock: the job takes the same mutex, and
    // the pool runs it inline when it has one thread (or from a pool task).
    // The job must not throw (enqueue contract).
    exec([this, key = work.key, compute = std::move(work.compute), promise] {
      try {
        V value = loadOrCompute<V>(key, compute);
        {
          std::lock_guard<std::mutex> lock(mutex);
          cache<V>().put(key, value);
          inflight<V>().erase(key);
        }
        promise->set_value(Slot<V>(std::move(value)));
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          inflight<V>().erase(key);
        }
        promise->set_exception(std::current_exception());
      }
    });
    return result;
  }

  /// The ladder on the calling thread: a miss computes here, a coalesced
  /// caller blocks on the computation it attached to.
  template <typename F>
  typename Work<F>::Value now(Work<F> work) {
    using V = typename Work<F>::Value;
    Memo<V> m = memo(std::move(work), [](auto&& job) { job(); });
    if (V* hit = std::get_if<V>(&m)) return std::move(*hit);
    const Slot<V>& slot = std::get<1>(m).get();
    if constexpr (std::is_same_v<Slot<V>, Reply>)
      return replyAs<V>(slot);
    else
      return slot;
  }

  /// The ladder on the pool: returns at once; `owner` keeps the inputs the
  /// work borrows alive until the job has run.
  template <typename F>
  Future<Reply> later(Work<F> work, std::shared_ptr<const void> owner) {
    using V = typename Work<F>::Value;
    if constexpr (std::is_same_v<V, PipelineResultRef>) {
      // Each pipeline reply is a clone of the cached run, so the whole
      // synchronous ladder runs as one pool job; it still memoizes and
      // coalesces in the pipeline stage.
      auto promise = std::make_shared<std::promise<Reply>>();
      Future<Reply> result(promise->get_future().share());
      pool.enqueue([this, work = std::move(work), owner, promise] {
        try {
          promise->set_value(toReply(now(work)));
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      });
      return result;
    } else {
      Memo<V> m = memo(std::move(work), [&](auto&& job) {
        pool.enqueue([owner = std::move(owner), job = std::move(job)] {
          job();
        });
      });
      if (V* hit = std::get_if<V>(&m))
        return makeReadyFuture(Reply(std::move(*hit)));
      return Future<Reply>(std::get<1>(std::move(m)));
    }
  }

  /// The disk tier under every persisted artifact: a checksum-validated
  /// lookup, else `compute`, whose result is published to the disk under
  /// the same key.  The store kind and codec come from the artifact table
  /// (store::Artifact<V>); a V outside it (a compiled plan, the pipeline
  /// stage's shared_ptr) is only computed.  An entry that passes the
  /// store's validation but fails to decode (codec version drift) is a
  /// miss; the recompute republishes it.
  template <typename V, typename Compute>
  V loadOrCompute(const Signature& key, const Compute& compute) {
    if constexpr (IsAlternative<V, Reply>::value) {
      using Codec = store::Artifact<V>;
      if (diskStore)
        if (const std::optional<store::MappedEntry> entry =
                diskStore->get(Codec::kind, key))
          if (std::optional<V> cached = Codec::decode(entry->payload()))
            return std::move(*cached);
      V value = compute();
      if (diskStore) diskStore->put(Codec::kind, key, Codec::encode(value));
      return value;
    } else {
      return compute();
    }
  }

  // --- rows: validate → layout → key → compute, once per kind -------------
  //
  // A row's computation borrows its arguments: the synchronous façade's
  // callers hold them for the call, submit() holds them in `owner`.

  auto pipelineRow(const Program& p, const PipelineOptions& po) {
    // The semantic signature excludes textual names, but pipeline
    // diagnostics embed the program name — include it so two structurally
    // identical apps never swap diagnostic labels.
    SigHasher h;
    h.u64(kPipelineDomain)
        .sig(programSignature(p))
        .str(p.name)
        .sig(pipelineOptionsSignature(po));
    const Signature key = h.take();
    return Work{key, [this, &p, &po, key] {
                  return std::make_shared<const PipelineResult>(
                      loadOrCompute<PipelineResult>(
                          key, [&] { return runPipeline(p, po); }));
                }};
  }

  auto planRow(const Program& p, const DataLayout& layout, std::int64_t n,
               std::uint64_t timeSteps) {
    return Work{sizedKey(kPlanDomain, p, layout, n, timeSteps).take(),
                [&p, &layout, n, timeSteps] {
                  auto cp = std::make_shared<CachedPlan>();
                  cp->program = p.clone();
                  cp->layout = layout;
                  cp->compiled = compilePlan(cp->program, cp->layout,
                                             {.n = n, .timeSteps = timeSteps});
                  return CachedPlanRef(std::move(cp));
                }};
  }

  CachedPlanRef planFor(const Program& p, const DataLayout& layout,
                        std::int64_t n, std::uint64_t timeSteps) {
    return now(planRow(p, layout, n, timeSteps));
  }

  auto measureRow(const ProgramVersion& version, std::int64_t n,
                  const MachineConfig& machine, std::uint64_t timeSteps,
                  const CostModel& cost) {
    GCR_CHECK(n > 0, "non-positive problem size");
    machine.validate();
    DataLayout layout = version.layoutAt(n);
    const Signature key =
        sizedKey(kMeasureDomain, version.program, layout, n, timeSteps)
            .sig(machineSignature(machine))
            .sig(costSignature(cost))
            .take();
    return Work{key, [this, &version, n, &machine, timeSteps, &cost,
                      layout = std::move(layout)] {
                  // GCR_ENGINE=walk must reach the tree-walking oracle, not
                  // a cached plan; gcr::measure() defers to execute()'s own
                  // engine dispatch.
                  if (forceWalk)
                    return gcr::measure(version, n, machine, timeSteps, cost);
                  const auto t0 = std::chrono::steady_clock::now();
                  const CachedPlanRef plan =
                      planFor(version.program, layout, n, timeSteps);
                  if (!plan->compiled.ok())
                    return gcr::measure(version, n, machine, timeSteps, cost);
                  MemoryHierarchy hierarchy(machine);
                  executePlan(*plan->compiled.plan,
                              {.n = n, .timeSteps = timeSteps}, &hierarchy);
                  return measurementOf(hierarchy, cost, secondsSince(t0));
                }};
  }

  auto profileRow(const ProgramVersion& version, std::int64_t n,
                  std::uint64_t timeSteps) {
    GCR_CHECK(n > 0, "non-positive problem size");
    DataLayout layout = version.layoutAt(n);
    const Signature key =
        sizedKey(kProfileDomain, version.program, layout, n, timeSteps)
            .f64(config.sampleRate)
            .take();
    return Work{key, [this, &version, n, timeSteps,
                      layout = std::move(layout)] {
                  const double rate = config.sampleRate;
                  if (forceWalk)
                    return reuseProfileOf(version, n, timeSteps, rate);
                  const CachedPlanRef plan =
                      planFor(version.program, layout, n, timeSteps);
                  if (!plan->compiled.ok())
                    return reuseProfileOf(version, n, timeSteps, rate);
                  const std::uint64_t expectedRefs =
                      estimateDynamicRefs(plan->program, n, timeSteps);
                  const std::uint64_t dataBytes =
                      static_cast<std::uint64_t>(plan->layout.totalBytes());
                  auto run = [&](auto&& sink) {
                    sink.reserve(expectedRefs, dataBytes);
                    executePlan(*plan->compiled.plan,
                                {.n = n, .timeSteps = timeSteps}, &sink);
                    return sink.takeProfile();
                  };
                  return rate >= 1.0 ? run(ReuseDistanceSink(8))
                                     : run(SampledReuseSink(8, rate));
                }};
  }

  auto symbolicRow(const Program& p, const SymbolicReuseOptions& o) {
    // The semantic signature excludes textual names, but the profile's site
    // descriptors carry loc/text strings built from them.
    SigHasher h;
    h.u64(kSymbolicDomain).sig(programSignature(p)).str(p.name);
    for (const ArrayDecl& a : p.arrays) h.str(a.name);
    forEachLoop(p, [&](const Loop& l, int) { h.str(l.var); });
    h.i64(o.minN);
    return Work{h.take(), [&p, &o] { return analyzeSymbolicReuse(p, o); }};
  }

  auto multicoreRow(const ProgramVersion& version, std::int64_t n,
                    const CacheTopology& topo, std::uint64_t timeSteps,
                    const MulticoreCostModel& cost) {
    GCR_CHECK(n > 0, "non-positive problem size");
    topo.validate();
    DataLayout layout = version.layoutAt(n);
    const Signature key =
        sizedKey(kMulticoreDomain, version.program, layout, n, timeSteps)
            .sig(topologySignature(topo))
            .sig(multicoreCostSignature(cost))
            .take();
    return Work{key, [this, &version, n, &topo, timeSteps, &cost,
                      layout = std::move(layout)] {
                  // The schedule slicer works on compiled plans only: slicing
                  // needs the plan's flat loop structure, and the walker has
                  // no equivalent.  Every registry app qualifies; a declined
                  // program is a hard error rather than a silently serial
                  // fallback.
                  const CachedPlanRef plan =
                      planFor(version.program, layout, n, timeSteps);
                  GCR_CHECK(plan->compiled.ok(),
                            "multicore analysis requires the plan engine: " +
                                plan->compiled.reason);
                  // From a pool job the nested parallelFor inside
                  // analyzeMulticore runs its per-core simulations inline —
                  // correct either way (results are thread-count
                  // independent).
                  return analyzeMulticore(*plan->compiled.plan, topo, cost,
                                          &pool);
                }};
  }

  // Each Request alternative's row, for run() and submit().
  auto rowOf(const PipelineRequest& r) {
    return pipelineRow(r.program, r.options);
  }
  auto rowOf(const MeasureTask& t) {
    return measureRow(t.version, t.n, t.machine, t.timeSteps, t.cost);
  }
  auto rowOf(const ReuseTask& t) {
    return profileRow(t.version, t.n, t.timeSteps);
  }
  auto rowOf(const SymbolicProfileRequest& r) {
    return symbolicRow(r.program, r.options);
  }
  auto rowOf(const MulticoreTask& t) {
    return multicoreRow(t.version, t.n, t.topology, t.timeSteps, t.cost);
  }
};

Engine::Engine() : Engine(EngineConfig()) {}

Engine::Engine(EngineConfig config) : impl_(std::make_unique<Impl>(config)) {}

Engine::~Engine() = default;

PipelineResult Engine::pipeline(const Program& p, const PipelineOptions& opts) {
  return impl_->now(impl_->pipelineRow(p, opts))->clone();
}

ProgramVersion Engine::version(const Program& p, Strategy strategy,
                               const VersionSpec& spec) {
  const PipelineOptions po = pipelineOptionsFor(strategy, spec);
  return assembleVersion(impl_->now(impl_->pipelineRow(p, po))->clone(),
                         strategy, spec);
}

Measurement Engine::measure(const ProgramVersion& version, std::int64_t n,
                            const MachineConfig& machine,
                            std::uint64_t timeSteps, const CostModel& cost) {
  return impl_->now(impl_->measureRow(version, n, machine, timeSteps, cost));
}

ReuseProfile Engine::reuseProfile(const ProgramVersion& version,
                                  std::int64_t n, std::uint64_t timeSteps) {
  return impl_->now(impl_->profileRow(version, n, timeSteps));
}

SymbolicReuseProfile Engine::symbolicProfile(const Program& p,
                                             const SymbolicReuseOptions& opts) {
  return impl_->now(impl_->symbolicRow(p, opts));
}

MulticoreProfile Engine::multicoreProfile(const ProgramVersion& version,
                                          std::int64_t n,
                                          const CacheTopology& topology,
                                          std::uint64_t timeSteps,
                                          const MulticoreCostModel& cost) {
  return impl_->now(
      impl_->multicoreRow(version, n, topology, timeSteps, cost));
}

Future<Reply> Engine::submit(Request request) {
  return std::visit(
      [this](auto&& r) {
        using R = std::decay_t<decltype(r)>;
        auto owned = std::make_shared<const R>(std::move(r));
        return impl_->later(impl_->rowOf(*owned), owned);
      },
      std::move(request));
}

Reply Engine::run(Request request) {
  return std::visit(
      [this](const auto& r) { return toReply(impl_->now(impl_->rowOf(r))); },
      request);
}

std::vector<Measurement> Engine::measureAll(
    const std::vector<MeasureTask>& tasks) {
  std::vector<Future<Reply>> futures;
  futures.reserve(tasks.size());
  for (const MeasureTask& t : tasks)
    futures.push_back(submit(MeasureTask{t.version.clone(), t.n, t.machine,
                                         t.timeSteps, t.cost}));
  std::vector<Measurement> out;
  out.reserve(tasks.size());
  for (const Future<Reply>& f : futures)
    out.push_back(replyAs<Measurement>(f.get()));
  return out;
}

std::vector<ReuseProfile> Engine::reuseProfilesOf(
    const std::vector<ReuseTask>& tasks) {
  std::vector<Future<Reply>> futures;
  futures.reserve(tasks.size());
  for (const ReuseTask& t : tasks)
    futures.push_back(submit(ReuseTask{t.version.clone(), t.n, t.timeSteps}));
  std::vector<ReuseProfile> out;
  out.reserve(tasks.size());
  for (const Future<Reply>& f : futures)
    out.push_back(replyAs<ReuseProfile>(f.get()));
  return out;
}

Engine::Stats Engine::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const auto& [pipelines, plans, measurements, profiles, symbolics,
                 multicores] = impl_->caches;
    s = Stats{pipelines.counters(),    plans.counters(),
              measurements.counters(), profiles.counters(),
              symbolics.counters(),    multicores.counters(),
              impl_->inflightCoalesced, store::StoreCounters{}};
  }
  // The store has its own lock; never hold both.
  if (impl_->diskStore) s.store = impl_->diskStore->counters();
  return s;
}

std::string Engine::cacheDirInUse() const {
  return impl_->diskStore ? impl_->diskStore->dir() : std::string();
}

void Engine::clearCaches() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::apply([](auto&... cache) { (cache.clear(), ...); }, impl_->caches);
}

void writeJson(JsonWriter& j, const CacheCounters& c) {
  j.beginObject();
  j.field("hits", c.hits);
  j.field("misses", c.misses);
  j.field("evictions", c.evictions);
  j.field("entries", c.entries);
  j.endObject();
}

}  // namespace gcr
