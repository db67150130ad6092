// server_mix: a real gcr-server daemon on a unix socket, driven in a closed
// loop by kClients connections of this process, plus the probes of the
// server-side layers.
#include <sys/vfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "apps/registry.hpp"
#include "daemon.hpp"
#include "runs.hpp"
#include "server/client.hpp"
#include "store/codec.hpp"
#include "store/store.hpp"

namespace perfbench {

namespace {

using namespace gcr::server;

constexpr int kClients = 4;
/// Requests per round: enough that the round's own p99 has tens of samples
/// beyond it; kStreamLength / kFreshEvery of them are fresh work.
constexpr std::size_t kStreamLength = 8192;

enum class Outcome { Ok, Mismatch, Busy, Error };

WorkSpec specOf(const Item& it) {
  WorkSpec s;
  s.app = it.app;
  s.strategy = it.strategy;
  return s;
}

template <typename T>
Outcome failure(const Result<T>& r) {
  return r.error == ErrorCode::Busy ? Outcome::Busy : Outcome::Error;
}

/// Send `it` (made fresh by `fresh` when non-null) and check the reply
/// against its expected digest.  A fresh measurement must carry the cycles
/// of its own cost model and otherwise equal the catalog entry it varies.
/// `artifact` receives the reply's canonical encoding when non-null.
Outcome send(Client& c, const Item& it, const Expected& expected,
             const StreamEntry* fresh, std::vector<std::uint8_t>* artifact) {
  const std::string key = it.key();
  auto verdict = [&](bool ok) { return ok ? Outcome::Ok : Outcome::Mismatch; };
  switch (it.kind) {
    case Kind::Optimize: {
      const Result<gcr::PipelineResult> r = c.optimize({specOf(it)});
      if (!r.ok()) return failure(r);
      if (artifact) *artifact = gcr::store::encodePipelineResult(*r);
      return verdict(expected.matches(key, digestOf(*r)));
    }
    case Kind::Measure: {
      MeasureRequest req{specOf(it), it.n, 1, machineNamed(it.machine), {}};
      if (fresh) req.cost.tlbMissCost = fresh->freshTlbMissCost;
      const Result<gcr::Measurement> r = c.measure(req);
      if (!r.ok()) return failure(r);
      if (artifact) *artifact = gcr::store::encodeMeasurement(*r);
      gcr::Measurement m = *r;
      const bool cyclesOk = m.cycles == req.cost.cycles(m.counts);
      m.cycles = gcr::CostModel{}.cycles(m.counts);
      return verdict(cyclesOk && expected.matches(key, digestOf(m)));
    }
    case Kind::Profile: {
      const Result<gcr::ReuseProfile> r = c.profile({specOf(it), it.n, 1});
      if (!r.ok()) return failure(r);
      if (artifact) *artifact = gcr::store::encodeReuseProfile(*r);
      return verdict(expected.matches(key, digestOf(*r)));
    }
    case Kind::Multicore: {
      const Result<gcr::MulticoreProfile> r =
          c.multicore({specOf(it), it.n, 1, catalogTopology()});
      if (!r.ok()) return failure(r);
      if (artifact) *artifact = gcr::store::encodeMulticoreProfile(*r);
      return verdict(expected.matches(key, digestOf(*r)));
    }
  }
  return Outcome::Error;
}

void record(Tally& t, Outcome o) {
  switch (o) {
    case Outcome::Ok: t.recordOk(); break;
    case Outcome::Mismatch: t.recordMismatch(); break;
    case Outcome::Busy: t.recordBusy(); break;
    case Outcome::Error: t.recordError(); break;
  }
}

std::unique_ptr<Client> connectOrThrow(const std::string& socket,
                                       const std::string& tenant) {
  std::string error;
  std::unique_ptr<Client> c = Client::connect(socket, tenant, &error);
  if (c == nullptr)
    throw std::runtime_error("cannot connect to " + socket + ": " + error);
  return c;
}

std::unique_ptr<Daemon> startOrThrow(const Context& ctx,
                                     const std::string& socket,
                                     const std::string& store) {
  std::string error;
  std::unique_ptr<Daemon> d = Daemon::start(ctx.daemonBinary, socket, store,
                                            kThreads,
                                            ctx.runDir + "/daemon.log", &error);
  if (d == nullptr) throw std::runtime_error(error);
  return d;
}

/// One round's raw results.
struct Round {
  PassResult samples;
  double peakRssMb = 0;  ///< daemon B's, before SIGTERM
  Tally tally;
  std::optional<StatsReply> stats;                 ///< daemon B, after the stream
  std::vector<std::vector<std::uint8_t>> artifacts;  ///< per catalog item
};

/// Set-up: daemon A fills a fresh store with the whole catalog and is
/// stopped; daemon B starts on that store, so memory is cold and disk warm.
/// Timed: kClients closed-loop connections play the round's stream.
/// `warm` (optional) runs against daemon B after the stream.
Round runRound(const Context& ctx, const std::vector<Item>& catalog,
               std::uint64_t seed, std::uint64_t round, bool wantStats,
               const std::function<void(const std::string&)>& warm = {}) {
  Round out;
  const std::string tag = std::to_string(round);
  const std::string store = ctx.runDir + "/store-" + tag;
  const double t0 = now();
  {
    std::unique_ptr<Daemon> a = startOrThrow(ctx, ctx.runDir + "/a.sock", store);
    out.artifacts.resize(catalog.size());
    std::vector<Tally> tallies(kClients);
    std::vector<std::thread> primers;
    for (int c = 0; c < kClients; ++c)
      primers.emplace_back([&, c] {
        std::string error;
        std::unique_ptr<Client> client = Client::connect(
            a->socket(), "prime-" + std::to_string(c), &error);
        for (std::size_t i = c; i < catalog.size(); i += kClients) {
          if (client == nullptr) {
            tallies[c].recordError();
            continue;
          }
          record(tallies[c], send(*client, catalog[i], ctx.expected, nullptr,
                                  &out.artifacts[i]));
        }
      });
    for (std::thread& t : primers) t.join();
    for (const Tally& t : tallies) out.tally.merge(t);
    out.tally.recordChecked(a->stop());
  }
  std::unique_ptr<Daemon> b = startOrThrow(ctx, ctx.runDir + "/b.sock", store);
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c)
    clients.push_back(
        connectOrThrow(b->socket(), "client-" + std::to_string(c)));
  out.samples.setup = now() - t0;

  const std::vector<Item> fresh = freshItems();
  const std::vector<StreamEntry> stream =
      makeStream(seed, round, kStreamLength);
  struct PerClient {
    std::vector<double> latencies, cold;
    Tally tally;
  };
  std::vector<PerClient> per(kClients);
  const double tStart = now();
  {
    std::vector<std::thread> fleet;
    for (int c = 0; c < kClients; ++c)
      fleet.emplace_back([&, c] {
        // Client c plays the c-th quarter of the stream, so every client
        // sends the same share of fresh work.
        PerClient& p = per[c];
        const std::size_t share = stream.size() / kClients;
        for (std::size_t j = c * share; j < (c + 1) * share; ++j) {
          const StreamEntry& e = stream[j];
          const double t = now();
          const Item& it = e.fresh ? fresh[e.item] : catalog[e.item];
          const Outcome o = send(*clients[c], it, ctx.expected,
                                 e.fresh ? &e : nullptr, nullptr);
          const double dt = now() - t;
          record(p.tally, o);
          if (o == Outcome::Ok || o == Outcome::Mismatch) {
            p.latencies.push_back(dt);
            if (e.fresh) p.cold.push_back(dt);
          }
        }
      });
    for (std::thread& t : fleet) t.join();
  }
  out.samples.wall = now() - tStart;
  for (PerClient& p : per) {
    std::vector<double>& all = out.samples.latencies;
    all.insert(all.end(), p.latencies.begin(), p.latencies.end());
    std::vector<double>& cold = out.samples.coldLatencies;
    cold.insert(cold.end(), p.cold.begin(), p.cold.end());
    out.tally.merge(p.tally);
  }
  if (wantStats) {
    const Result<StatsReply> s = clients[0]->stats();
    if (s.ok()) out.stats = *s;
  }
  if (warm) warm(b->socket());
  out.peakRssMb = b->peakRssMb();
  clients.clear();
  out.tally.recordChecked(b->stop());
  std::filesystem::remove_all(store);
  return out;
}

std::string filesystemOf(const std::string& path) {
  struct statfs s {};
  if (::statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "f_type 0x%lx",
                    static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

gcr::store::ArtifactKind artifactKindOf(Kind k) {
  switch (k) {
    case Kind::Optimize: return gcr::store::ArtifactKind::PipelineResult;
    case Kind::Measure: return gcr::store::ArtifactKind::Measurement;
    case Kind::Profile: return gcr::store::ArtifactKind::ReuseProfile;
    case Kind::Multicore: return gcr::store::ArtifactKind::MulticoreProfile;
  }
  return gcr::store::ArtifactKind::Measurement;
}

}  // namespace

RunResult runServerMix(const Context& ctx, std::uint64_t seed, double seconds,
                       int minRounds) {
  std::printf("server_mix: daemon %s --threads %d, %d clients, store on %s, "
              "%zu requests per round (1 in %zu fresh)\n",
              ctx.daemonBinary.c_str(), kThreads, kClients,
              filesystemOf(ctx.runDir).c_str(), kStreamLength, kFreshEvery);
  const std::vector<Item> catalog = catalogItems();
  RunResult r;
  std::vector<double> rss;
  const double start = now();
  for (std::uint64_t round = 0;
       int(round) < minRounds || now() - start < seconds; ++round) {
    Round x = runRound(ctx, catalog, seed, round, false);
    r.passes.push_back(std::move(x.samples));
    rss.push_back(x.peakRssMb);
    r.tally.merge(x.tally);
  }
  r.peakRssMb = median(rss);
  return r;
}

void probeServerLayers(const Context& ctx, std::uint64_t seed, LayerRun& out) {
  const std::vector<Item> catalog = catalogItems();
  std::vector<const Item*> measures;
  for (const Item& it : catalog)
    if (it.kind == Kind::Measure) measures.push_back(&it);
  constexpr int kReps = 40;

  // engine: warm in-process Engine::measure calls (memoized hits).
  std::vector<double> hits;
  {
    gcr::Engine engine(pinnedConfig(1));
    std::vector<gcr::ProgramVersion> versions;
    for (const Item* it : measures) {
      versions.push_back(
          engine.version(gcr::apps::buildApp(it->app), it->strategy));
      engine.measure(versions.back(), it->n, machineNamed(it->machine));
    }
    for (int rep = 0; rep < kReps; ++rep)
      for (std::size_t i = 0; i < measures.size(); ++i) {
        const double t = now();
        const gcr::Measurement m = engine.measure(
            versions[i], measures[i]->n, machineNamed(measures[i]->machine));
        const double dt = now() - t;
        out.tracer.add("engine.hit", t, t + dt, measures[i]->key());
        hits.push_back(dt);
        if (rep == 0)
          out.tally.recordChecked(
              ctx.expected.matches(measures[i]->key(), digestOf(m)));
      }
  }
  const double hitUs = median(hits) * 1e6;

  // server: one round, then warm round trips against the same daemon.
  std::vector<double> trips;
  Tally tripTally;
  Round x;
  {
    ScopedSpan roundSpan(out.tracer, "server_mix.round", "round 0");
    x = runRound(ctx, catalog, seed, 0, true, [&](const std::string& s) {
      const std::unique_ptr<Client> c = connectOrThrow(s, "probe");
      for (int rep = 0; rep < kReps; ++rep)
        for (const Item* it : measures) {
          const double t = now();
          const Outcome o = send(*c, *it, ctx.expected, nullptr, nullptr);
          const double dt = now() - t;
          out.tracer.add("server.round_trip", t, t + dt, it->key());
          record(tripTally, o);
          trips.push_back(dt);
        }
    });
  }
  out.tally.merge(x.tally);
  out.tally.merge(tripTally);
  if (!x.stats) out.tally.recordError();

  // store: direct gets and puts of the catalog's artifacts.
  std::vector<double> gets, puts;
  const std::string dir = ctx.runDir + "/probe-store";
  {
    std::unique_ptr<gcr::store::ArtifactStore> store =
        gcr::store::ArtifactStore::open({.dir = dir, .fsync = true});
    if (store == nullptr) throw std::runtime_error("cannot open " + dir);
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < catalog.size(); ++i) {
        const gcr::Signature sig{i + 1, std::uint64_t(rep) + 1};
        const double t = now();
        const bool ok = store->put(artifactKindOf(catalog[i].kind), sig,
                                   x.artifacts[i]);
        const double dt = now() - t;
        out.tracer.add("store.put", t, t + dt, catalog[i].key());
        puts.push_back(dt);
        out.tally.recordChecked(ok);
      }
      for (std::size_t i = 0; i < catalog.size(); ++i) {
        const gcr::Signature sig{i + 1, std::uint64_t(rep) + 1};
        const double t = now();
        const auto entry = store->get(artifactKindOf(catalog[i].kind), sig);
        const double dt = now() - t;
        out.tracer.add("store.get", t, t + dt, catalog[i].key());
        gets.push_back(dt);
        out.tally.recordChecked(
            entry.has_value() &&
            std::equal(entry->payload().begin(), entry->payload().end(),
                       x.artifacts[i].begin(), x.artifacts[i].end()));
      }
    }
  }
  std::filesystem::remove_all(dir);

  out.work["engine.hit_us"] = hitUs;
  out.work["server.wire_us"] = median(trips) * 1e6 - hitUs;
  out.work["store.get_us"] = median(gets) * 1e6;
  out.work["store.put_us"] = median(puts) * 1e6;
  if (x.stats) {
    const gcr::Engine::Stats& e = x.stats->engine;
    double hitsN = 0, missesN = 0;
    for (const gcr::CacheCounters* c :
         {&e.pipeline, &e.plan, &e.measurement, &e.profile, &e.multicore}) {
      hitsN += double(c->hits);
      missesN += double(c->misses);
    }
    out.work["engine.cache_hits"] = hitsN;
    out.work["engine.cache_misses"] = missesN;
    out.work["engine.inflight_coalesced"] = double(e.inflightCoalesced);
    out.work["store.hits"] = double(e.store.hits);
    out.work["store.puts"] = double(e.store.puts);
    out.work["store.bytes_loaded"] = double(e.store.bytesLoaded);
    out.work["server.busy_replies"] =
        double(x.stats->server.requestsBusyRejected);
  }
  std::printf("server probe: store on %s; round of %zu requests, %zu warm "
              "round trips, %zu store gets/puts\n",
              filesystemOf(ctx.runDir).c_str(), kStreamLength, trips.size(),
              gets.size());
}

}  // namespace perfbench
