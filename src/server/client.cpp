#include "server/client.hpp"

#include <unistd.h>

#include <utility>

#include "store/codec.hpp"

namespace gcr::server {

struct Client::Impl {
  int fd = -1;
  std::string serverName;
  std::vector<std::uint8_t> lastPayload;

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  /// One request/reply exchange.  Returns the reply payload when the reply
  /// kind matches `expect`; otherwise a populated error Result.
  template <typename T>
  Result<T> exchange(MsgKind request, std::span<const std::uint8_t> payload,
                     MsgKind expect,
                     std::optional<T> (*decode)(
                         std::span<const std::uint8_t>)) {
    Result<T> out;
    if (!sendFrame(fd, request, payload)) {
      out.message = "transport: send failed";
      return out;
    }
    const RecvResult r = recvFrame(fd);
    if (!r.ok) {
      out.message = r.eof ? "transport: connection closed"
                          : "transport: malformed reply frame";
      return out;
    }
    if (r.header.kind == MsgKind::ReplyError) {
      const std::optional<ErrorReply> err =
          decodePayload<ErrorReply>(r.payload);
      if (err) {
        out.error = err->code;
        out.message = err->message;
      } else {
        out.message = "transport: undecodable error reply";
      }
      return out;
    }
    if (r.header.kind != expect) {
      out.message = "transport: unexpected reply kind";
      return out;
    }
    std::optional<T> value = decode(r.payload);
    if (!value) {
      out.message = "transport: undecodable reply payload";
      return out;
    }
    lastPayload = std::move(r.payload);
    out.value = std::move(value);
    return out;
  }

  /// An artifact request: message kinds, request codec and reply decoder
  /// all come from the artifact table.
  template <typename T>
  Result<T> work(const typename WireArtifact<T>::Message& req) {
    using Wire = WireArtifact<T>;
    return exchange<T>(Wire::request, encodePayload(req), Wire::reply,
                       store::Artifact<T>::decode);
  }
};

Client::Client() = default;
Client::~Client() = default;

std::unique_ptr<Client> Client::connect(const std::string& address,
                                        const std::string& tenant,
                                        std::string* error) {
  auto fail = [&](const std::string& why) -> std::unique_ptr<Client> {
    if (error != nullptr) *error = why;
    return nullptr;
  };
  auto impl = std::make_unique<Impl>();
  impl->fd = connectAddress(address);
  if (impl->fd < 0) return fail("cannot connect to " + address);

  const Result<HelloReply> hello = impl->exchange<HelloReply>(
      MsgKind::Hello, encodePayload(HelloRequest{tenant}),
      MsgKind::ReplyHello, decodePayload<HelloReply>);
  if (!hello.ok())
    return fail("handshake failed: " + hello.message);
  if (hello->protocolVersion != kProtocolVersion)
    return fail("protocol version mismatch");

  std::unique_ptr<Client> c(new Client());
  c->impl_ = std::move(impl);
  c->impl_->serverName = hello->serverName;
  return c;
}

Result<PipelineResult> Client::optimize(const OptimizeRequest& req) {
  return impl_->work<PipelineResult>(req);
}

Result<Measurement> Client::measure(const MeasureRequest& req) {
  return impl_->work<Measurement>(req);
}

Result<ReuseProfile> Client::profile(const ProfileRequest& req) {
  return impl_->work<ReuseProfile>(req);
}

Result<MulticoreProfile> Client::multicore(const MulticoreRequest& req) {
  return impl_->work<MulticoreProfile>(req);
}

Result<VerifyReply> Client::verify(const VerifyRequest& req) {
  return impl_->exchange<VerifyReply>(MsgKind::Verify, encodePayload(req),
                                      MsgKind::ReplyVerify,
                                      decodePayload<VerifyReply>);
}

Result<StatsReply> Client::stats() {
  return impl_->exchange<StatsReply>(MsgKind::Stats, {}, MsgKind::ReplyStats,
                                     decodePayload<StatsReply>);
}

const std::vector<std::uint8_t>& Client::lastPayload() const {
  return impl_->lastPayload;
}

const std::string& Client::serverName() const { return impl_->serverName; }

}  // namespace gcr::server
