// The one binary codec of the repository: the store's artifacts
// (store/codec.cpp) and the server's wire payloads (server/protocol.cpp).
//
// ByteWriter builds a flat little-endian byte stream; ByteReader parses one
// back.  The encoding is fixed-width with length-prefixed strings and
// sequences, fully deterministic — the same value always produces the same
// bytes, which is what lets the store's per-entry checksums double as
// content verification and lets tests assert byte-identical re-encoding.
// Codecs describe a struct once, as a field list that Put writes and Get
// reads back (below), under one width rule.
//
// The reader is defensive by construction: every read is bounds-checked
// against the remaining input and every length prefix is validated *before*
// any allocation, so a truncated or bit-flipped payload that slips past the
// store's checksums still fails with gcr::Error instead of undefined
// behaviour or an attempted multi-gigabyte allocation.  Codecs decode
// through decodeFields() below, which turns that error into a decode
// failure: the store's cache tier treats it as a miss, the server as a
// malformed frame.
#pragma once

#include <climits>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
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

// --- field lists ------------------------------------------------------------
// Every codec (store artifacts and wire payloads) lists each struct's fields
// once, in encoding order, in a `fields` overload that Put, Get and MinSize
// all walk:
//
//   template <typename IO>
//   void fields(IO& io, Is<AffineN> auto& a) {
//     io(a.c, a.s);
//   }
//
// so an encoder and its decoder cannot drift apart.  The overloads live in
// namespace gcr, where argument-dependent lookup from Put and Get finds
// them.  A type whose format is not a field list gives Put, Get (and
// MinSize, when it is a sequence element) a `fields` overload each.
//
// The width rule, one for every codec:
//   int              i64; decode rejects a value that does not fit an int
//   std::int64_t     i64
//   std::uint64_t    u64
//   std::uint32_t    u32
//   double           f64, bit-exact
//   bool             u8, 0 or 1
//   enum             u8, written with bounded(e, first, last); decode
//                    rejects a value outside [first, last]
//   std::string      u64 length, then the bytes
//   std::vector<T>   u64 count, then the elements; decode rejects a count
//                    whose elements cannot fit the remaining input before
//                    it allocates (MinSize gives each element's least size)
//   std::optional<T> bool presence, then the value when present

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/// Writes each field.
struct Put {
  ByteWriter& w;

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (one(fields), ...);
  }
  template <typename E>
  void bounded(E e, E, E) {
    w.u8(static_cast<std::uint8_t>(e));
  }
  /// An int that travels as a u32, outside the width rule.
  void u32(int v) { w.u32(static_cast<std::uint32_t>(v)); }
  /// A condition decode enforces on the fields read so far.
  void check(bool, const char*) {}

  void one(int v) { w.i64(v); }
  void one(std::int64_t v) { w.i64(v); }
  void one(std::uint64_t v) { w.u64(v); }
  void one(std::uint32_t v) { w.u32(v); }
  void one(double v) { w.f64(v); }
  void one(bool v) { w.b(v); }
  void one(const std::string& v) { w.str(v); }
  template <typename T>
  void one(const std::vector<T>& v) {
    w.u64(v.size());
    for (const T& x : v) one(x);
  }
  template <typename T>
  void one(const std::optional<T>& v) {
    w.b(v.has_value());
    if (v) one(*v);
  }
  template <typename T>
    requires std::is_class_v<T>
  void one(const T& v) {
    fields(*this, v);
  }
};

/// Adds up the fewest bytes a value of each listed type encodes to: the
/// bound Get checks a sequence count against.
struct MinSize {
  std::size_t bytes = 0;

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    (one(fields), ...);
  }
  template <typename E>
  void bounded(E, E, E) {
    bytes += 1;
  }

  void one(int) { bytes += 8; }
  void one(std::int64_t) { bytes += 8; }
  void one(std::uint64_t) { bytes += 8; }
  void one(std::uint32_t) { bytes += 4; }
  void one(double) { bytes += 8; }
  void one(bool) { bytes += 1; }
  void one(const std::string&) { bytes += 8; }
  template <typename T>
  void one(const std::vector<T>&) {
    bytes += 8;
  }
  template <typename T>
  void one(const std::optional<T>&) {
    bytes += 1;
  }
  template <typename T>
    requires std::is_class_v<T>
  void one(const T& v) {
    fields(*this, v);
  }
};

/// The fewest bytes any T encodes to (strings and sequences empty,
/// optionals absent).
template <typename T>
std::size_t minSize() {
  static const std::size_t bytes = [] {
    MinSize m;
    m.one(T{});
    return m.bytes;
  }();
  return bytes;
}

/// Reads each field back.  A truncated input, a count that cannot fit, or a
/// value out of range throws gcr::Error, which decodeFields() turns into
/// nullopt.
struct Get {
  ByteReader& r;
  /// Open recursion frames, for a hook that caps how deep a payload nests.
  int depth = 0;

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (one(fields), ...);
  }
  template <typename E>
  void bounded(E& e, E first, E last) {
    const std::uint8_t v = r.u8();
    GCR_CHECK(v >= static_cast<std::uint8_t>(first) &&
                  v <= static_cast<std::uint8_t>(last),
              "serialized enum out of range");
    e = static_cast<E>(v);
  }
  void u32(int& v) {
    const std::uint32_t x = r.u32();
    GCR_CHECK(x <= static_cast<std::uint32_t>(INT_MAX),
              "serialized int out of range");
    v = static_cast<int>(x);
  }
  void check(bool ok, const char* what) { GCR_CHECK(ok, what); }

  void one(int& v) {
    const std::int64_t x = r.i64();
    GCR_CHECK(x >= INT_MIN && x <= INT_MAX, "serialized int out of range");
    v = static_cast<int>(x);
  }
  void one(std::int64_t& v) { v = r.i64(); }
  void one(std::uint64_t& v) { v = r.u64(); }
  void one(std::uint32_t& v) { v = r.u32(); }
  void one(double& v) { v = r.f64(); }
  void one(bool& v) { v = r.b(); }
  void one(std::string& v) { v = r.str(); }
  template <typename T>
  void one(std::vector<T>& v) {
    v.resize(r.seqLen(minSize<T>()));
    for (T& x : v) one(x);
  }
  template <typename T>
  void one(std::optional<T>& v) {
    if (r.b()) one(v.emplace());
  }
  template <typename T>
    requires std::is_class_v<T>
  void one(T& v) {
    fields(*this, v);
  }
};

/// A versioned field-list encoding: the version word, then `value`.
template <typename T>
std::vector<std::uint8_t> encodeFields(std::uint32_t version, const T& value) {
  ByteWriter w;
  w.u32(version);
  Put{w}(value);
  return w.take();
}

/// The decode of encodeFields(): the leading version word must equal
/// `version`, and the input must end exactly after the value.  Any
/// gcr::Error from the reader or a range check becomes nullopt, so
/// arbitrary byte soup can fail to decode but never over-read or throw.
template <typename T>
std::optional<T> decodeFields(std::span<const std::uint8_t> bytes,
                              std::uint32_t version) {
  try {
    ByteReader r(bytes);
    if (r.u32() != version) return std::nullopt;
    T value;
    Get{r}(value);
    if (!r.atEnd()) return std::nullopt;  // trailing bytes are corruption
    return std::optional<T>(std::move(value));
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace gcr
