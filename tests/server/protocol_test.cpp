// Wire-protocol codecs: round trips for every frame and payload kind, and
// the defensive-decode contract — decode() of arbitrary bytes returns
// nullopt, never throws, never over-reads, and rejects trailing bytes.
// The random-bytes fuzz at the bottom runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "apps/registry.hpp"
#include "server/protocol.hpp"
#include "support/serialize.hpp"

namespace gcr::server {
namespace {

TEST(Protocol, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.kind = MsgKind::Measure;
  h.payloadBytes = 12345;
  const std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const std::optional<FrameHeader> back = decodeFrameHeader(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->magic, kFrameMagic);
  EXPECT_EQ(back->version, kProtocolVersion);
  EXPECT_EQ(back->kind, MsgKind::Measure);
  EXPECT_EQ(back->payloadBytes, 12345u);
}

TEST(Protocol, FrameHeaderRejectsWrongSizeAndMagic) {
  FrameHeader h;
  std::vector<std::uint8_t> bytes = encodeFrameHeader(h);
  EXPECT_FALSE(decodeFrameHeader({bytes.data(), bytes.size() - 1}));
  EXPECT_FALSE(decodeFrameHeader({bytes.data(), 0}));
  bytes[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(decodeFrameHeader(bytes));
}

TEST(Protocol, HelloRoundTrip) {
  const std::vector<std::uint8_t> bytes =
      encodePayload(HelloRequest{"tenant-a"});
  const auto back = decodePayload<HelloRequest>(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tenant, "tenant-a");

  HelloReply reply;
  reply.serverName = "gcr-server/1";
  const auto reply2 = decodePayload<HelloReply>(encodePayload(reply));
  ASSERT_TRUE(reply2.has_value());
  EXPECT_EQ(reply2->protocolVersion, kProtocolVersion);
  EXPECT_EQ(reply2->serverName, "gcr-server/1");
}

TEST(Protocol, MeasureRequestRoundTrip) {
  MeasureRequest req;
  req.spec.app = "Swim";
  req.spec.strategy = Strategy::FusedRegrouped;
  req.spec.fusionLevels = 4;
  req.spec.padBytes = 2048;
  req.n = 96;
  req.timeSteps = 3;
  req.machine = MachineConfig::origin2000();
  const auto back = decodePayload<MeasureRequest>(encodePayload(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec.app, "Swim");
  EXPECT_EQ(back->spec.strategy, Strategy::FusedRegrouped);
  EXPECT_EQ(back->spec.fusionLevels, 4);
  EXPECT_EQ(back->spec.padBytes, 2048);
  EXPECT_EQ(back->n, 96);
  EXPECT_EQ(back->timeSteps, 3u);
  EXPECT_EQ(back->machine.l2.sizeBytes, req.machine.l2.sizeBytes);
  EXPECT_EQ(back->machine.tlbEntries, req.machine.tlbEntries);
  EXPECT_EQ(back->cost.l1MissCost, req.cost.l1MissCost);
}

TEST(Protocol, MulticoreRequestRoundTrip) {
  MulticoreRequest req;
  req.spec.app = "ADI";
  req.spec.strategy = Strategy::Fused;
  req.n = 40;
  req.timeSteps = 2;
  req.topology = CacheTopology::symmetric(4, ParallelSchedule::Cyclic);
  req.topology.name = "nehalem-4";
  req.cost.memoryCost = 250.0;
  const auto back = decodePayload<MulticoreRequest>(encodePayload(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->spec.app, "ADI");
  EXPECT_EQ(back->spec.strategy, Strategy::Fused);
  EXPECT_EQ(back->n, 40);
  EXPECT_EQ(back->timeSteps, 2u);
  EXPECT_EQ(back->topology.cores, 4);
  EXPECT_EQ(back->topology.schedule, ParallelSchedule::Cyclic);
  EXPECT_EQ(back->topology.l1.sizeBytes, req.topology.l1.sizeBytes);
  EXPECT_EQ(back->topology.llc.ways, req.topology.llc.ways);
  EXPECT_EQ(back->topology.name, "nehalem-4");
  EXPECT_EQ(back->cost.memoryCost, 250.0);
  EXPECT_EQ(back->cost.llcHitCost, req.cost.llcHitCost);

  // Trailing bytes and truncation reject like every other request codec.
  std::vector<std::uint8_t> bytes = encodePayload(req);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(
        decodePayload<MulticoreRequest>({bytes.data(), len}).has_value())
        << "decoded a " << len << "-byte prefix";
  bytes.push_back(0);
  EXPECT_FALSE(decodePayload<MulticoreRequest>(bytes).has_value());
}

TEST(Protocol, StatsReplyCarriesMulticoreCounters) {
  StatsReply r;
  r.engine.multicore.hits = 11;
  r.engine.multicore.misses = 3;
  r.engine.multicore.entries = 2;
  const auto back = decodePayload<StatsReply>(encodePayload(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->engine.multicore.hits, 11u);
  EXPECT_EQ(back->engine.multicore.misses, 3u);
  EXPECT_EQ(back->engine.multicore.entries, 2u);
}

TEST(Protocol, RequestCodecsRejectUnknownStrategy) {
  MeasureRequest req;
  req.spec.app = "ADI";
  std::vector<std::uint8_t> bytes = encodePayload(req);
  // The strategy word sits after the codec version (u32) and the app string
  // (u64 length + bytes); corrupt it wholesale instead of surgically — any
  // out-of-range value must be refused.
  bool rejectedSomething = false;
  for (std::size_t i = 4; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[i] = 0xEE;
    if (!decodePayload<MeasureRequest>(mutant).has_value())
      rejectedSomething = true;
  }
  EXPECT_TRUE(rejectedSomething);
}

TEST(Protocol, CodecsRejectTrailingBytes) {
  std::vector<std::uint8_t> bytes =
      encodePayload(HelloRequest{"tenant"});
  bytes.push_back(0);
  EXPECT_FALSE(decodePayload<HelloRequest>(bytes).has_value());

  std::vector<std::uint8_t> verify =
      encodePayload(VerifyRequest{"ADI", 16});
  verify.push_back(7);
  EXPECT_FALSE(decodePayload<VerifyRequest>(verify).has_value());
}

TEST(Protocol, CodecsRejectTruncationAtEveryLength) {
  MeasureRequest req;
  req.spec.app = "Tomcatv";
  req.machine = MachineConfig::origin2000();
  const std::vector<std::uint8_t> bytes = encodePayload(req);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(decodePayload<MeasureRequest>({bytes.data(), len}).has_value())
        << "decoded a " << len << "-byte prefix";
}

TEST(Protocol, ErrorReplyRoundTrip) {
  ErrorReply err;
  err.code = ErrorCode::Busy;
  err.message = "tenant over limit";
  const auto back = decodePayload<ErrorReply>(encodePayload(err));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, ErrorCode::Busy);
  EXPECT_EQ(back->message, "tenant over limit");
  EXPECT_STREQ(errorCodeName(ErrorCode::Busy), "busy");
}

TEST(Protocol, VerifyReplyRoundTrip) {
  VerifyReply r;
  r.notes = 3;
  r.warnings = 1;
  r.diagnostics = {"a:1:x note", "b:2:y warning"};
  const auto back = decodePayload<VerifyReply>(encodePayload(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->notes, 3u);
  EXPECT_EQ(back->warnings, 1u);
  EXPECT_EQ(back->errors, 0u);
  ASSERT_EQ(back->diagnostics.size(), 2u);
  EXPECT_EQ(back->diagnostics[1], "b:2:y warning");
}

TEST(Protocol, StatsReplyRoundTrip) {
  StatsReply r;
  r.server.connectionsAccepted = 5;
  r.server.requestsAdmitted = 40;
  r.server.draining = true;
  r.tenants = {{"a", 30, 2}, {"b", 10, 0}};
  r.engine.measurement.hits = 17;
  r.engine.symbolic.hits = 6;
  r.engine.symbolic.misses = 1;
  r.engine.inflightCoalesced = 4;
  r.engine.store.puts = 9;
  r.engine.store.evictions = 2;
  r.cacheDir = "/tmp/store";
  const auto back = decodePayload<StatsReply>(encodePayload(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->server.connectionsAccepted, 5u);
  EXPECT_TRUE(back->server.draining);
  ASSERT_EQ(back->tenants.size(), 2u);
  EXPECT_EQ(back->tenants[0].tenant, "a");
  EXPECT_EQ(back->tenants[0].admitted, 30u);
  EXPECT_EQ(back->engine.measurement.hits, 17u);
  EXPECT_EQ(back->engine.symbolic.hits, 6u);
  EXPECT_EQ(back->engine.symbolic.misses, 1u);
  EXPECT_EQ(back->engine.inflightCoalesced, 4u);
  EXPECT_EQ(back->engine.store.puts, 9u);
  EXPECT_EQ(back->engine.store.evictions, 2u);
  EXPECT_EQ(back->cacheDir, "/tmp/store");
}

TEST(Protocol, StatsReplyV3PayloadDecodesToNullopt) {
  // Codec v3 carried seven native-tier counters between the store counters
  // and the cache directory; v4 dropped them.  A v3 payload (an older
  // daemon) is refused, never misread as v4.
  StatsReply r;
  r.engine.store.puts = 9;
  r.cacheDir = "/tmp/store";
  const std::vector<std::uint8_t> v4 = encodePayload(r);
  ASSERT_TRUE(decodePayload<StatsReply>(v4).has_value());

  std::vector<std::uint8_t> v3 = v4;
  const std::size_t cacheDirBytes = 8 + r.cacheDir.size();  // u64 length
  v3.insert(v3.end() - static_cast<std::ptrdiff_t>(cacheDirBytes), 7 * 8, 0);
  ByteWriter tag;
  tag.u32(3);
  const std::vector<std::uint8_t> word = tag.take();
  std::copy(word.begin(), word.end(), v3.begin());
  EXPECT_FALSE(decodePayload<StatsReply>(v3).has_value());

  // Neither half of the change alone is accepted either.
  std::vector<std::uint8_t> tagOnly = v4;
  std::copy(word.begin(), word.end(), tagOnly.begin());
  EXPECT_FALSE(decodePayload<StatsReply>(tagOnly).has_value());
  std::vector<std::uint8_t> layoutOnly = v3;
  std::copy(v4.begin(), v4.begin() + 4, layoutOnly.begin());
  EXPECT_FALSE(decodePayload<StatsReply>(layoutOnly).has_value());
}

TEST(Protocol, MulticoreRequestV4PayloadDecodesToNullopt) {
  // Codec v4 ended the multicore request at the topology; v5 appends the
  // multicore cost model (four f64).  A v4 payload (an older client) is
  // refused, never misread as v5 with a cost taken from the next bytes.
  MulticoreRequest req;
  req.spec.app = "ADI";
  const std::vector<std::uint8_t> v5 = encodePayload(req);
  ASSERT_TRUE(decodePayload<MulticoreRequest>(v5).has_value());

  std::vector<std::uint8_t> v4(v5.begin(), v5.end() - 4 * 8);
  ByteWriter tag;
  tag.u32(4);
  const std::vector<std::uint8_t> word = tag.take();
  std::copy(word.begin(), word.end(), v4.begin());
  EXPECT_FALSE(decodePayload<MulticoreRequest>(v4).has_value());

  // Neither half of the change alone is accepted either.
  std::vector<std::uint8_t> tagOnly = v5;
  std::copy(word.begin(), word.end(), tagOnly.begin());
  EXPECT_FALSE(decodePayload<MulticoreRequest>(tagOnly).has_value());
  std::vector<std::uint8_t> layoutOnly = v4;
  std::copy(v5.begin(), v5.begin() + 4, layoutOnly.begin());
  EXPECT_FALSE(decodePayload<MulticoreRequest>(layoutOnly).has_value());
}

TEST(Protocol, MeasureRequestV5PayloadDecodesToNullopt) {
  // Codec v5 wrote ints and enums as u32; v6 writes ints as i64 and enums
  // as u8, the store codecs' width rule.  A v5 payload (an older client)
  // is refused, never misread as v6.
  MeasureRequest req;
  req.spec.app = "ADI";
  req.spec.strategy = Strategy::Fused;
  req.machine = MachineConfig::origin2000();
  const std::vector<std::uint8_t> v6 = encodePayload(req);
  ASSERT_TRUE(decodePayload<MeasureRequest>(v6).has_value());

  auto cacheV5 = [](ByteWriter& w, const CacheConfig& c) {
    w.i64(c.sizeBytes).i64(c.lineSize).u32(static_cast<std::uint32_t>(c.ways));
    w.str(c.name);
  };
  ByteWriter w;
  w.u32(5).str(req.spec.app);
  w.u32(static_cast<std::uint32_t>(req.spec.strategy));
  w.u32(static_cast<std::uint32_t>(req.spec.fusionLevels));
  w.i64(req.spec.padBytes).i64(req.n).u64(req.timeSteps);
  cacheV5(w, req.machine.l1);
  cacheV5(w, req.machine.l2);
  w.u32(static_cast<std::uint32_t>(req.machine.tlbEntries));
  w.i64(req.machine.pageSize).b(req.machine.l2NextLinePrefetch);
  w.str(req.machine.name);
  w.f64(req.cost.refCost).f64(req.cost.l1MissCost);
  w.f64(req.cost.l2MissCost).f64(req.cost.tlbMissCost);
  const std::vector<std::uint8_t> v5 = w.take();
  EXPECT_FALSE(decodePayload<MeasureRequest>(v5).has_value());

  // Neither half of the change alone is accepted either.
  std::vector<std::uint8_t> tagOnly = v6;
  std::copy(v5.begin(), v5.begin() + 4, tagOnly.begin());
  EXPECT_FALSE(decodePayload<MeasureRequest>(tagOnly).has_value());
  std::vector<std::uint8_t> layoutOnly = v5;
  std::copy(v6.begin(), v6.begin() + 4, layoutOnly.begin());
  EXPECT_FALSE(decodePayload<MeasureRequest>(layoutOnly).has_value());
}

TEST(Protocol, ErrorReplyWithOutOfRangeCodeDecodesToNullopt) {
  // The code is the u8 right after the codec version word.
  const std::vector<std::uint8_t> bytes =
      encodePayload(ErrorReply{ErrorCode::Busy, "m"});
  ASSERT_EQ(bytes[4], static_cast<std::uint8_t>(ErrorCode::Busy));
  for (std::uint8_t code : {std::uint8_t{0}, std::uint8_t{10},
                            std::uint8_t{0xFF}}) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[4] = code;
    EXPECT_FALSE(decodePayload<ErrorReply>(mutant).has_value())
        << "code " << int{code};
  }
  for (std::uint8_t code = 1; code <= 9; ++code) {
    std::vector<std::uint8_t> valid = bytes;
    valid[4] = code;
    const auto back = decodePayload<ErrorReply>(valid);
    ASSERT_TRUE(back.has_value()) << "code " << int{code};
    EXPECT_EQ(static_cast<std::uint8_t>(back->code), code);
  }
}

// The Engine request each Reply alternative T answers, for one app.
template <typename T>
Request requestFor(Engine& engine, const std::string& app) {
  const Program p = apps::buildApp(app);
  if constexpr (std::is_same_v<T, PipelineResult>)
    return PipelineRequest{p.clone(), pipelineOptionsFor(Strategy::Fused, {})};
  else if constexpr (std::is_same_v<T, SymbolicReuseProfile>)
    return SymbolicProfileRequest{p.clone(), {}};
  else {
    ProgramVersion v = engine.version(p, Strategy::Fused);
    if constexpr (std::is_same_v<T, Measurement>)
      return MeasureTask{std::move(v), 16, MachineConfig::origin2000(), 1, {}};
    else if constexpr (std::is_same_v<T, ReuseProfile>)
      return ReuseTask{std::move(v), 16, 1};
    else
      return MulticoreTask{std::move(v), 16,
                           CacheTopology::symmetric(2).scaledDown(16), 1, {}};
  }
}

TEST(Protocol, WorkKindTableIsOneToOne) {
  std::set<MsgKind> requestKinds, replyKinds;
  std::set<store::ArtifactKind> artifactKinds;
  std::size_t served = 0;
  Engine engine;
  // Every Reply alternative has a store row; the wire-served ones also
  // have a wire row.  Walk them all.
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ([&]<typename T>() {
      using Codec = store::Artifact<T>;
      EXPECT_TRUE(artifactKinds.insert(Codec::kind).second);
      for (const apps::AppInfo& app : apps::evaluationApps()) {
        SCOPED_TRACE(app.name);
        Request req = requestFor<T>(engine, app.name);
        ASSERT_EQ(req.index(), I);
        EXPECT_EQ(requestKind(req), Codec::kind);
        const Future<Reply> f = engine.submit(std::move(req));
        const Reply& reply = f.get();
        ASSERT_EQ(reply.index(), I);
        const std::vector<std::uint8_t> bytes =
            Codec::encode(replyAs<T>(reply));
        const std::optional<T> back = Codec::decode(bytes);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(Codec::encode(*back), bytes);
      }
      if constexpr (requires { WireArtifact<T>::request; }) {
        using Wire = WireArtifact<T>;
        ++served;
        EXPECT_TRUE(requestKinds.insert(Wire::request).second);
        EXPECT_TRUE(replyKinds.insert(Wire::reply).second);
        EXPECT_LT(static_cast<std::uint32_t>(Wire::request), 100u);
        EXPECT_GE(static_cast<std::uint32_t>(Wire::reply), 100u);
        // The request kind dispatches to exactly this artifact.
        int visits = 0;
        EXPECT_TRUE(visitWireArtifact(Wire::request, [&]<typename U>() {
          EXPECT_TRUE((std::is_same_v<U, T>));
          ++visits;
        }));
        EXPECT_EQ(visits, 1);
        // The request codec round-trips byte for byte.
        const std::vector<std::uint8_t> msg =
            encodePayload(typename Wire::Message{});
        const auto decoded = decodePayload<typename Wire::Message>(msg);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(encodePayload(*decoded), msg);
      }
    }.template operator()<std::variant_alternative_t<I, Reply>>(), ...);
  }(std::make_index_sequence<std::variant_size_v<Reply>>{});

  EXPECT_EQ(served, 4u);  // Optimize, Measure, Profile, Multicore
  EXPECT_EQ(requestKinds.size(), served);
  EXPECT_EQ(replyKinds.size(), served);
  EXPECT_EQ(artifactKinds.size(), std::variant_size_v<Reply>);
  // Requests that are not artifacts dispatch to nothing.
  for (MsgKind k : {MsgKind::Hello, MsgKind::Verify, MsgKind::Stats,
                    MsgKind::ReplyMeasure, static_cast<MsgKind>(77)})
    EXPECT_FALSE(visitWireArtifact(k, []<typename U>() { FAIL(); }));
}

TEST(Protocol, DecodersNeverCrashOnMutatedPayloads) {
  // Flip every byte of every valid encoding (and truncate at every point):
  // decoders must return a value or nullopt, never throw or over-read.
  MeasureRequest mreq;
  mreq.spec.app = "ADI";
  mreq.machine = MachineConfig::origin2000();
  StatsReply stats;
  stats.tenants = {{"t", 1, 0}};
  stats.cacheDir = "/x";
  const std::vector<std::vector<std::uint8_t>> corpus = {
      encodePayload(HelloRequest{"t"}),
      encodePayload(OptimizeRequest{{"ADI", Strategy::Fused, 8, 0}}),
      encodePayload(mreq),
      encodePayload(ProfileRequest{{"SP", Strategy::NoOpt, 8, 0}, 16, 1}),
      encodePayload(VerifyRequest{"Swim", 16}),
      encodePayload(MulticoreRequest{}),
      encodePayload(HelloReply{}),
      encodePayload(ErrorReply{ErrorCode::BadRequest, "m"}),
      encodePayload(VerifyReply{1, 0, 0, {"d"}}),
      encodePayload(stats),
  };
  auto tryAll = [](std::span<const std::uint8_t> bytes) {
    (void)decodePayload<HelloRequest>(bytes);
    (void)decodePayload<OptimizeRequest>(bytes);
    (void)decodePayload<MeasureRequest>(bytes);
    (void)decodePayload<ProfileRequest>(bytes);
    (void)decodePayload<VerifyRequest>(bytes);
    (void)decodePayload<MulticoreRequest>(bytes);
    (void)decodePayload<HelloReply>(bytes);
    (void)decodePayload<ErrorReply>(bytes);
    (void)decodePayload<VerifyReply>(bytes);
    (void)decodePayload<StatsReply>(bytes);
  };
  for (const std::vector<std::uint8_t>& seed : corpus) {
    for (std::size_t i = 0; i < seed.size(); ++i) {
      std::vector<std::uint8_t> mutant = seed;
      mutant[i] ^= 0xFF;
      tryAll(mutant);
      mutant[i] = 0xFF;
      tryAll(mutant);
      tryAll({seed.data(), i});
    }
  }
  SUCCEED();  // surviving without UB/throw IS the assertion (ASan/UBSan)
}

TEST(Protocol, DecodersNeverCrashOnRandomBytes) {
  // Deterministic LCG garbage at many lengths, including length prefixes
  // that claim far more data than present.
  std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(round * 7 % 512));
    for (std::uint8_t& b : bytes) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<std::uint8_t>(lcg >> 56);
    }
    (void)decodePayload<HelloRequest>(bytes);
    (void)decodePayload<OptimizeRequest>(bytes);
    (void)decodePayload<MeasureRequest>(bytes);
    (void)decodePayload<ProfileRequest>(bytes);
    (void)decodePayload<VerifyRequest>(bytes);
    (void)decodePayload<MulticoreRequest>(bytes);
    (void)decodePayload<HelloReply>(bytes);
    (void)decodePayload<ErrorReply>(bytes);
    (void)decodePayload<VerifyReply>(bytes);
    (void)decodePayload<StatsReply>(bytes);
    (void)decodeFrameHeader(bytes);
  }
  SUCCEED();
}

}  // namespace
}  // namespace gcr::server
