#include "support/serialize.hpp"

#include <bit>

namespace gcr {

ByteWriter& ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

ByteWriter& ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return *this;
}

ByteWriter& ByteWriter::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

ByteWriter& ByteWriter::str(std::string_view s) {
  u64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
  return *this;
}

ByteWriter& ByteWriter::bytes(std::span<const std::uint8_t> s) {
  out_.insert(out_.end(), s.begin(), s.end());
  return *this;
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

bool ByteReader::b() {
  const std::uint8_t v = u8();
  GCR_CHECK(v <= 1, "serialized bool out of range");
  return v == 1;
}

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::string ByteReader::str() {
  const std::size_t n = seqLen(1);
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::size_t ByteReader::seqLen(std::size_t minElemBytes) {
  const std::uint64_t n = u64();
  GCR_CHECK(minElemBytes == 0 || n <= remaining() / minElemBytes,
            "serialized sequence length exceeds input");
  return static_cast<std::size_t>(n);
}

}  // namespace gcr
