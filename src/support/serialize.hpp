// Binary serialization primitives for the persistent artifact store.
//
// ByteWriter builds a flat little-endian byte stream; ByteReader parses one
// back.  The encoding is fixed-width (u32/u64) with length-prefixed strings
// and sequences, fully deterministic — the same value always produces the
// same bytes, which is what lets the store's per-entry checksums double as
// content verification and lets tests assert byte-identical re-encoding.
//
// The reader is defensive by construction: every read is bounds-checked
// against the remaining input and every length prefix is validated *before*
// any allocation, so a truncated or bit-flipped payload that slips past the
// store's checksums still fails with gcr::Error instead of undefined
// behaviour or an attempted multi-gigabyte allocation.  Codecs decode
// through decodeWith() below, which turns that error into a decode failure:
// the store's cache tier treats it as a miss, the server as a malformed
// frame.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace gcr {

class ByteWriter {
 public:
  ByteWriter& u8(std::uint8_t v) {
    out_.push_back(v);
    return *this;
  }
  ByteWriter& u32(std::uint32_t v);
  ByteWriter& u64(std::uint64_t v);
  ByteWriter& i64(std::int64_t v) {
    return u64(static_cast<std::uint64_t>(v));
  }
  ByteWriter& b(bool v) { return u8(v ? 1 : 0); }
  /// Bit-exact: the double's object representation, so NaNs and signed
  /// zeros survive a round trip verbatim.
  ByteWriter& f64(double v);
  /// u64 length prefix + raw bytes.
  ByteWriter& str(std::string_view s);
  ByteWriter& bytes(std::span<const std::uint8_t> s);

  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }
  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b();
  double f64();
  std::string str();

  /// Length prefix for a sequence whose elements occupy at least
  /// `minElemBytes` each; throws when the prefix cannot possibly fit in the
  /// remaining input, so corrupt lengths never drive an allocation.
  std::size_t seqLen(std::size_t minElemBytes);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool atEnd() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) {
    GCR_CHECK(n <= remaining(), "serialized data truncated");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// The decode wrapper of every versioned codec (store artifacts and wire
/// payloads): the leading version word must equal `version`, `body` reads
/// the value, and the input must end exactly there.  Any gcr::Error thrown
/// by the reader or by a range check in `body` becomes nullopt, so
/// arbitrary byte soup can fail to decode but never over-read or throw.
template <typename T, typename Body>
std::optional<T> decodeWith(std::span<const std::uint8_t> bytes,
                            std::uint32_t version, Body&& body) {
  try {
    ByteReader r(bytes);
    if (r.u32() != version) return std::nullopt;
    T value = body(r);
    if (!r.atEnd()) return std::nullopt;  // trailing bytes are corruption
    return std::optional<T>(std::move(value));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace gcr
