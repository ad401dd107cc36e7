// NFS-over-RPC wire protocol (v2-flavoured subset).
//
// RPC runs over UDP exactly as in the paper's testbed ("NFS runs on UDP in
// our experiments", §5.5). Message layouts are XDR-ish: big-endian fixed
// fields plus length-prefixed padded strings. The file handle is the
// SimpleFS inode number widened to 64 bits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "fs/layout.h"
#include "netbuf/msg_buffer.h"

namespace ncache::nfs {

constexpr std::uint16_t kNfsPort = 2049;
constexpr std::uint32_t kNfsProgram = 100003;
constexpr std::uint32_t kNfsVersion = 2;
/// Largest READ/WRITE payload, as in the paper's 32 KB experiments.
constexpr std::uint32_t kMaxIoSize = 32 * 1024;

enum class Proc : std::uint32_t {
  Null = 0,
  Getattr = 1,
  Setattr = 2,
  Lookup = 4,
  Read = 6,
  Write = 8,
  Create = 9,
  Remove = 10,
  Rename = 11,
  Mkdir = 14,
  Readdir = 16,
};

enum class Status : std::uint32_t {
  Ok = 0,
  NoEnt = 2,
  Io = 5,
  Exist = 17,
  NotDir = 20,
  NoSpace = 28,
  Stale = 70,
};

constexpr std::size_t kCallHeaderBytes = 20;   // xid, mtype, prog, vers, proc
constexpr std::size_t kReplyHeaderBytes = 12;  // xid, mtype, status

// Argument and attribute types know their exact XDR size (wire_bytes()),
// so encoders write into storage of that size instead of growing a vector
// field by field.

/// XDR size of a length-prefixed, 4-byte-padded string.
constexpr std::size_t xdr_opaque_bytes(std::string_view s) {
  return 4 + (s.size() + 3) / 4 * 4;
}

struct CallHeader {
  std::uint32_t xid = 0;
  std::uint32_t prog = kNfsProgram;
  std::uint32_t vers = kNfsVersion;
  Proc proc = Proc::Null;

  void serialize(ByteWriter& w) const;
  static std::optional<CallHeader> parse(ByteReader& r);
};

struct ReplyHeader {
  std::uint32_t xid = 0;
  Status status = Status::Ok;

  void serialize(ByteWriter& w) const;
  static std::optional<ReplyHeader> parse(ByteReader& r);
};

struct Fattr {
  fs::InodeType type = fs::InodeType::Free;
  std::uint64_t size = 0;
  std::uint32_t nlink = 0;

  static constexpr std::size_t wire_bytes() { return 16; }
  void serialize(ByteWriter& w) const;
  static Fattr parse(ByteReader& r);
  friend bool operator==(const Fattr&, const Fattr&) = default;
};

// --- call bodies -------------------------------------------------------------

struct GetattrArgs {
  std::uint64_t fh;
  static constexpr std::size_t wire_bytes() { return 8; }
  void serialize(ByteWriter& w) const;
  static GetattrArgs parse(ByteReader& r);
};

struct LookupArgs {
  std::uint64_t dir_fh;
  std::string name;
  std::size_t wire_bytes() const { return 8 + xdr_opaque_bytes(name); }
  void serialize(ByteWriter& w) const;
  static LookupArgs parse(ByteReader& r);
};

struct ReadArgs {
  std::uint64_t fh;
  std::uint64_t offset;
  std::uint32_t count;
  static constexpr std::size_t wire_bytes() { return 20; }
  void serialize(ByteWriter& w) const;
  static ReadArgs parse(ByteReader& r);
};

/// WRITE arguments; the payload follows as the remainder of the datagram
/// (so it can travel as a buffer chain, not a copied array).
constexpr std::size_t kWriteArgsBytes = 20;
struct WriteArgs {
  std::uint64_t fh;
  std::uint64_t offset;
  std::uint32_t count;
  static constexpr std::size_t wire_bytes() { return kWriteArgsBytes; }
  void serialize(ByteWriter& w) const;
  static WriteArgs parse(ByteReader& r);
};

struct RenameArgs {
  std::uint64_t src_dir;
  std::string src_name;
  std::uint64_t dst_dir;
  std::string dst_name;
  std::size_t wire_bytes() const {
    return 16 + xdr_opaque_bytes(src_name) + xdr_opaque_bytes(dst_name);
  }
  void serialize(ByteWriter& w) const;
  static RenameArgs parse(ByteReader& r);
};

/// SETATTR carries only the size (truncate/extend), the one attribute the
/// simulated servers honour.
struct SetattrArgs {
  std::uint64_t fh;
  std::uint64_t size;
  static constexpr std::size_t wire_bytes() { return 16; }
  void serialize(ByteWriter& w) const;
  static SetattrArgs parse(ByteReader& r);
};

struct CreateArgs {
  std::uint64_t dir_fh;
  std::string name;
  fs::InodeType type = fs::InodeType::File;
  std::size_t wire_bytes() const { return 12 + xdr_opaque_bytes(name); }
  void serialize(ByteWriter& w) const;
  static CreateArgs parse(ByteReader& r);
};

struct DirEntry {
  std::uint64_t fh;
  fs::InodeType type;
  std::string name;
};

/// Serializes a READDIR reply body (count + entries).
void serialize_dir_entries(ByteWriter& w, const std::vector<DirEntry>& es);
std::vector<DirEntry> parse_dir_entries(ByteReader& r);

/// Encodes `msg` into a vector of exactly msg.wire_bytes(); throws
/// std::logic_error if serialize() disagrees with that size.
template <typename T>
std::vector<std::byte> encode(const T& msg) {
  std::vector<std::byte> out(msg.wire_bytes());
  ByteWriter w{std::span<std::byte>(out)};
  msg.serialize(w);
  if (w.size() != out.size()) {
    throw std::logic_error("nfs::encode: wire_bytes() overstates the size");
  }
  return out;
}

}  // namespace ncache::nfs
