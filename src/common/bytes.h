// Big-endian (network order) byte stream codecs used by every protocol
// layer (Ethernet/IP/UDP/TCP headers, RPC, NFS XDR-ish bodies, iSCSI BHS).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ncache {

/// Appends network-order fields to a byte vector, or fills caller-owned
/// storage of a known size (a stack array for a checksummed header, an
/// exact-size buffer for an XDR message) without touching the heap.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::byte>& out) : vec_(&out) {}
  /// Fixed storage: writing past its end throws std::length_error.
  explicit ByteWriter(std::span<std::byte> out) : fixed_(out) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::byte> data);
  void zeros(std::size_t n);
  /// XDR-style: 4-byte length, payload, zero padding to 4-byte multiple.
  void xdr_opaque(std::string_view s);

  std::size_t size() const noexcept { return vec_ ? vec_->size() : pos_; }

 private:
  /// The next `n` bytes of output.
  std::byte* grab(std::size_t n);

  std::vector<std::byte>* vec_ = nullptr;
  std::span<std::byte> fixed_;
  std::size_t pos_ = 0;  ///< bytes written into fixed_
};

/// Reads network-order fields from a byte span. All accessors throw
/// std::out_of_range on underrun so malformed packets surface loudly.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> in) : in_(in) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::span<const std::byte> bytes(std::size_t n);
  void skip(std::size_t n);
  std::string xdr_opaque();

  std::size_t remaining() const noexcept { return in_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  std::span<const std::byte> rest() const noexcept { return in_.subspan(pos_); }

 private:
  void need(std::size_t n) const;

  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

/// Convenience: view a string as bytes.
inline std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

inline std::string_view as_string_view(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace ncache
