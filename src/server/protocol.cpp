#include "server/protocol.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "support/assert.hpp"

// --- field lists ------------------------------------------------------------
// Each payload struct's fields, once, in wire order (the width rule is in
// support/serialize.hpp).  They live in namespace gcr, where Put and Get
// find them.

namespace gcr {

template <typename IO>
void fields(IO& io, Is<CacheConfig> auto& c) {
  io(c.sizeBytes, c.lineSize, c.ways, c.name);
}
template <typename IO>
void fields(IO& io, Is<MachineConfig> auto& m) {
  io(m.l1, m.l2, m.tlbEntries, m.pageSize, m.l2NextLinePrefetch, m.name);
}
template <typename IO>
void fields(IO& io, Is<CostModel> auto& c) {
  io(c.refCost, c.l1MissCost, c.l2MissCost, c.tlbMissCost);
}
template <typename IO>
void fields(IO& io, Is<MulticoreCostModel> auto& c) {
  io(c.refCost, c.l2HitCost, c.llcHitCost, c.memoryCost);
}
template <typename IO>
void fields(IO& io, Is<CacheTopology> auto& t) {
  io(t.cores);
  io.bounded(t.schedule, ParallelSchedule::Block, ParallelSchedule::Cyclic);
  io(t.l1, t.l2, t.llc, t.name);
}
template <typename IO>
void fields(IO& io, Is<server::WorkSpec> auto& s) {
  io(s.app);
  io.bounded(s.strategy, Strategy::NoOpt, Strategy::RegroupedOnly);
  io(s.fusionLevels, s.padBytes);
}
template <typename IO>
void fields(IO& io, Is<server::HelloRequest> auto& h) {
  io(h.tenant);
}
template <typename IO>
void fields(IO& io, Is<server::OptimizeRequest> auto& o) {
  io(o.spec);
}
template <typename IO>
void fields(IO& io, Is<server::MeasureRequest> auto& m) {
  io(m.spec, m.n, m.timeSteps, m.machine, m.cost);
}
template <typename IO>
void fields(IO& io, Is<server::ProfileRequest> auto& p) {
  io(p.spec, p.n, p.timeSteps);
}
template <typename IO>
void fields(IO& io, Is<server::VerifyRequest> auto& v) {
  io(v.app, v.minN);
}
template <typename IO>
void fields(IO& io, Is<server::MulticoreRequest> auto& m) {
  io(m.spec, m.n, m.timeSteps, m.topology, m.cost);
}
template <typename IO>
void fields(IO& io, Is<server::HelloReply> auto& h) {
  io(h.protocolVersion, h.serverName);
}
template <typename IO>
void fields(IO& io, Is<server::ErrorReply> auto& e) {
  io.bounded(e.code, server::ErrorCode::MalformedFrame,
             server::ErrorCode::ProtocolViolation);
  io(e.message);
}
template <typename IO>
void fields(IO& io, Is<server::VerifyReply> auto& v) {
  io(v.notes, v.warnings, v.errors, v.diagnostics);
}
template <typename IO>
void fields(IO& io, Is<server::TenantStats> auto& t) {
  io(t.tenant, t.admitted, t.busyRejected);
}
template <typename IO>
void fields(IO& io, Is<server::ServerCounters> auto& c) {
  io(c.connectionsAccepted, c.connectionsRejected, c.requestsAdmitted,
     c.requestsBusyRejected, c.requestsErrored, c.framingErrors,
     c.repliesSent, c.draining);
}
template <typename IO>
void fields(IO& io, Is<CacheCounters> auto& c) {
  io(c.hits, c.misses, c.evictions, c.entries);
}
template <typename IO>
void fields(IO& io, Is<store::StoreCounters> auto& s) {
  io(s.hits, s.misses, s.puts, s.putFailures, s.corruptRejected,
     s.evictions, s.bytesLoaded, s.bytesStored);
}
template <typename IO>
void fields(IO& io, Is<Engine::Stats> auto& e) {
  io(e.pipeline, e.plan, e.measurement, e.profile, e.symbolic, e.multicore,
     e.inflightCoalesced, e.store);
}
template <typename IO>
void fields(IO& io, Is<server::StatsReply> auto& r) {
  io(r.server, r.tenants, r.engine, r.cacheDir);
}

}  // namespace gcr

namespace gcr::server {

namespace {

// Every payload codec writes a leading version word, mirroring the store
// codecs: payload encodings can evolve independently of the frame format.
// v2: StatsReply gained the symbolic-profile cache counters.
// v3: MulticoreRequest added; StatsReply gained the multicore cache
//     counters.
// v4: StatsReply dropped the seven native-tier counters (tier removed).
// v5: MulticoreRequest gained the multicore cost model.
// v6: the store codecs' width rule: an int travels as i64 (was u32) and an
//     enum as a range-checked u8 (was u32).
constexpr std::uint32_t kCodecVersion = 6;

/// Read exactly n bytes; 1 = ok, 0 = clean EOF before any byte, -1 = error
/// or EOF mid-read.
int readAll(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::recv(fd, out + done, n - done, 0);
    if (got == 0) return done == 0 ? 0 : -1;
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<std::size_t>(got);
  }
  return 1;
}

bool writeAll(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    // MSG_NOSIGNAL: a peer that closed mid-reply surfaces as EPIPE, never
    // as a process-killing SIGPIPE.
    const ssize_t put = ::send(fd, data + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

const char* errorCodeName(ErrorCode c) {
  switch (c) {
    case ErrorCode::MalformedFrame: return "malformed_frame";
    case ErrorCode::UnsupportedVersion: return "unsupported_version";
    case ErrorCode::OversizedFrame: return "oversized_frame";
    case ErrorCode::UnknownKind: return "unknown_kind";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::Busy: return "busy";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::EngineFailure: return "engine_failure";
    case ErrorCode::ProtocolViolation: return "protocol_violation";
  }
  return "unknown";
}

std::vector<std::uint8_t> encodeFrameHeader(const FrameHeader& h) {
  ByteWriter w;
  w.u32(h.magic)
      .u32(h.version)
      .u32(static_cast<std::uint32_t>(h.kind))
      .u64(h.payloadBytes);
  return w.take();
}

std::optional<FrameHeader> decodeFrameHeader(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFrameHeaderBytes) return std::nullopt;
  try {
    ByteReader r(bytes);
    FrameHeader h;
    h.magic = r.u32();
    if (h.magic != kFrameMagic) return std::nullopt;
    h.version = r.u32();
    h.kind = static_cast<MsgKind>(r.u32());
    h.payloadBytes = r.u64();
    return h;
  } catch (const Error&) {
    return std::nullopt;
  }
}

// --- payload codecs ---------------------------------------------------------

template <typename T>
std::vector<std::uint8_t> encodePayload(const T& msg) {
  return encodeFields(kCodecVersion, msg);
}

template <typename T>
std::optional<T> decodePayload(std::span<const std::uint8_t> bytes) {
  return decodeFields<T>(bytes, kCodecVersion);
}

// Every payload type of protocol.hpp.
template std::vector<std::uint8_t> encodePayload(const HelloRequest&);
template std::vector<std::uint8_t> encodePayload(const OptimizeRequest&);
template std::vector<std::uint8_t> encodePayload(const MeasureRequest&);
template std::vector<std::uint8_t> encodePayload(const ProfileRequest&);
template std::vector<std::uint8_t> encodePayload(const VerifyRequest&);
template std::vector<std::uint8_t> encodePayload(const MulticoreRequest&);
template std::vector<std::uint8_t> encodePayload(const HelloReply&);
template std::vector<std::uint8_t> encodePayload(const ErrorReply&);
template std::vector<std::uint8_t> encodePayload(const VerifyReply&);
template std::vector<std::uint8_t> encodePayload(const StatsReply&);
template std::optional<HelloRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<OptimizeRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<MeasureRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<ProfileRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<VerifyRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<MulticoreRequest> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<HelloReply> decodePayload(std::span<const std::uint8_t>);
template std::optional<ErrorReply> decodePayload(std::span<const std::uint8_t>);
template std::optional<VerifyReply> decodePayload(
    std::span<const std::uint8_t>);
template std::optional<StatsReply> decodePayload(std::span<const std::uint8_t>);

// --- socket transport -------------------------------------------------------

int listenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  ::unlink(path.c_str());  // stale socket from a dead server
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int listenTcp(int port, int* boundPort, int backlog) {
  if (port < 0 || port > 65535) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, backlog) < 0) {
    ::close(fd);
    return -1;
  }
  if (boundPort != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      ::close(fd);
      return -1;
    }
    *boundPort = ntohs(bound.sin_port);
  }
  return fd;
}

int connectAddress(const std::string& address) {
  if (address.rfind("tcp:", 0) == 0) {
    const std::string rest = address.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) return -1;
    const std::string host = rest.substr(0, colon);
    const int port = std::atoi(rest.c_str() + colon + 1);
    if (port <= 0 || port > 65535) return -1;

    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (host.empty() || host == "localhost") {
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  const std::string path =
      address.rfind("unix:", 0) == 0 ? address.substr(5) : address;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendFrame(int fd, MsgKind kind, std::span<const std::uint8_t> payload) {
  FrameHeader h;
  h.kind = kind;
  h.payloadBytes = payload.size();
  const std::vector<std::uint8_t> header = encodeFrameHeader(h);
  if (!writeAll(fd, header.data(), header.size())) return false;
  return payload.empty() || writeAll(fd, payload.data(), payload.size());
}

RecvResult recvFrame(int fd, std::uint64_t maxPayloadBytes) {
  RecvResult out;
  std::uint8_t header[kFrameHeaderBytes];
  const int got = readAll(fd, header, sizeof(header));
  if (got == 0) {
    out.eof = true;
    return out;
  }
  if (got < 0) {
    out.truncated = true;
    return out;
  }
  const std::optional<FrameHeader> h =
      decodeFrameHeader(std::span<const std::uint8_t>(header, sizeof(header)));
  if (!h) {
    out.badMagic = true;
    return out;
  }
  out.header = *h;
  if (h->version != kProtocolVersion) {
    out.badVersion = true;
    return out;
  }
  if (h->payloadBytes > maxPayloadBytes) {
    out.oversized = true;  // rejected before any allocation
    return out;
  }
  out.payload.resize(static_cast<std::size_t>(h->payloadBytes));
  if (!out.payload.empty() &&
      readAll(fd, out.payload.data(), out.payload.size()) != 1) {
    out.payload.clear();
    out.truncated = true;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace gcr::server
