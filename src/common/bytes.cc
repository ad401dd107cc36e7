#include "common/bytes.h"

#include <stdexcept>

namespace ncache {

std::byte* ByteWriter::grab(std::size_t n) {
  if (vec_) {
    std::size_t at = vec_->size();
    vec_->resize(at + n);
    return vec_->data() + at;
  }
  if (n > fixed_.size() - pos_) {
    throw std::length_error("ByteWriter: fixed buffer overflow");
  }
  std::byte* p = fixed_.data() + pos_;
  pos_ += n;
  return p;
}

void ByteWriter::u8(std::uint8_t v) { *grab(1) = std::byte{v}; }

void ByteWriter::u16(std::uint16_t v) {
  std::byte* p = grab(2);
  p[0] = std::byte(v >> 8);
  p[1] = std::byte(v);
}

void ByteWriter::u32(std::uint32_t v) {
  std::byte* p = grab(4);
  for (int i = 0; i < 4; ++i) p[i] = std::byte(v >> (24 - 8 * i));
}

void ByteWriter::u64(std::uint64_t v) {
  std::byte* p = grab(8);
  for (int i = 0; i < 8; ++i) p[i] = std::byte(v >> (56 - 8 * i));
}

void ByteWriter::bytes(std::span<const std::byte> data) {
  if (!data.empty()) std::memcpy(grab(data.size()), data.data(), data.size());
}

void ByteWriter::zeros(std::size_t n) {
  if (n > 0) std::memset(grab(n), 0, n);
}

void ByteWriter::xdr_opaque(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  bytes(as_bytes(s));
  std::size_t pad = (4 - (s.size() & 3)) & 3;
  zeros(pad);
}

void ByteReader::need(std::size_t n) const {
  if (pos_ + n > in_.size()) {
    throw std::out_of_range("ByteReader: truncated input");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return std::to_integer<std::uint8_t>(in_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  std::uint16_t hi = u8();
  return static_cast<std::uint16_t>((hi << 8) | u8());
}

std::uint32_t ByteReader::u32() {
  std::uint32_t hi = u16();
  return (hi << 16) | u16();
}

std::uint64_t ByteReader::u64() {
  std::uint64_t hi = u32();
  return (hi << 32) | u32();
}

std::span<const std::byte> ByteReader::bytes(std::size_t n) {
  need(n);
  auto out = in_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void ByteReader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

std::string ByteReader::xdr_opaque() {
  std::uint32_t len = u32();
  auto payload = bytes(len);
  skip((4 - (len & 3)) & 3);
  return std::string(as_string_view(payload));
}

}  // namespace ncache
