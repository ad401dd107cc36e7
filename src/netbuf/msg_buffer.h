// MsgBuffer: the data currency of the whole simulated system.
//
// A message is an ordered list of segments. Each segment is one of:
//   * ByteSeg — real bytes in a (shared, refcounted) NetBuffer: the normal
//     physically-present representation;
//   * KeySeg — a logical-copy reference into the network-centric cache:
//     present only in NCache-mode data paths, materialized at the egress
//     interceptor;
//   * JunkSeg — a placeholder of known length with no real bytes: the
//     paper's `*-baseline` servers ship these ("packets ... contain only
//     random bits as payload", §5.1).
//
// Slicing a MsgBuffer (for IP fragmentation / TCP segmentation) is cheap:
// ByteSegs share the underlying NetBuffer, and the first kInlineSegments
// segments live inside the MsgBuffer object itself, so the one- and
// two-segment chains that make up nearly every frame never touch the
// heap. Longer chains spill to an array from a process-wide free list,
// which the buffer gives back as soon as it becomes empty.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "netbuf/cache_key.h"
#include "netbuf/net_buffer.h"

namespace ncache::netbuf {

struct ByteSeg {
  NetBufferPtr buf;
  std::uint32_t off = 0;  ///< offset into buf->data()
  std::uint32_t len = 0;

  std::span<const std::byte> view() const noexcept {
    return buf->data().subspan(off, len);
  }
};

struct KeySeg {
  CacheKey key;
  std::uint32_t off = 0;  ///< offset into the cached object
  std::uint32_t len = 0;
};

struct JunkSeg {
  std::uint32_t len = 0;
};

using Segment = std::variant<ByteSeg, KeySeg, JunkSeg>;

inline std::uint32_t seg_len(const Segment& s) noexcept {
  return std::visit([](const auto& v) { return v.len; }, s);
}

class MsgBuffer {
 public:
  /// Segments stored in the object itself; the chain spills to the heap
  /// beyond this count.
  static constexpr std::size_t kInlineSegments = 2;

  MsgBuffer() noexcept {}
  MsgBuffer(const MsgBuffer& other);
  MsgBuffer(MsgBuffer&& other) noexcept;
  MsgBuffer& operator=(const MsgBuffer& other);
  MsgBuffer& operator=(MsgBuffer&& other) noexcept;
  ~MsgBuffer() { release(); }

  /// Builds a message with one ByteSeg copied from `src` (this *is* a
  /// physical copy; callers wanting accounting should go through
  /// CopyEngine).
  static MsgBuffer from_bytes(std::span<const std::byte> src);
  static MsgBuffer from_string(std::string_view s);

  /// Wraps an existing buffer without copying.
  static MsgBuffer wrap(NetBufferPtr buf);
  static MsgBuffer wrap(NetBufferPtr buf, std::uint32_t off, std::uint32_t len);

  /// A single logical-copy reference.
  static MsgBuffer from_key(CacheKey key, std::uint32_t off, std::uint32_t len);

  /// A junk placeholder.
  static MsgBuffer junk(std::uint32_t len);

  void append(Segment seg);
  /// Splices other's segments (no copy). Into an empty buffer this takes
  /// over other's storage outright.
  void append(MsgBuffer other);

  /// Total bytes; a message is at most 4 GB - 1 (append throws beyond).
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::span<const Segment> segments() const noexcept {
    return {data() + head_, count_};
  }

  /// True if every byte is physically present.
  bool fully_physical() const noexcept;
  /// True if any segment is a KeySeg.
  bool has_keys() const noexcept;
  /// True if any segment is junk.
  bool has_junk() const noexcept;
  /// Number of KeySegs.
  std::size_t key_count() const noexcept;
  /// Bytes covered by KeySegs / JunkSegs.
  std::size_t logical_bytes() const noexcept;

  /// Cheap sub-range view [off, off+len): ByteSegs share buffers, Key/Junk
  /// segs are re-ranged. Throws std::out_of_range if out of bounds.
  MsgBuffer slice(std::size_t off, std::size_t len) const;

  /// Drops the first `n` bytes in place: whole leading segments are
  /// released and the new first segment is re-ranged. Equivalent to
  /// `*this = slice(n, size() - n)` without building a second chain.
  /// Throws std::out_of_range if n > size().
  void consume(std::size_t n);

  /// Gathers physical bytes into `dst` (dst.size() == size()). Junk/Key
  /// segments are filled with a deterministic pattern (they have no real
  /// bytes); callers that require real data must materialize first.
  void copy_out(std::span<std::byte> dst) const;

  /// Convenience: flattens into a fresh vector (tests, header parsing).
  std::vector<std::byte> to_bytes() const;

  /// First `n` physical bytes flattened (for protocol header peeking);
  /// throws if the prefix is not fully physical.
  std::vector<std::byte> peek_bytes(std::size_t n) const;

  /// peek_bytes() into the caller's storage: copies the first dst.size()
  /// bytes into `dst` and returns it. Throws std::out_of_range past the
  /// end and std::logic_error if the prefix is not fully physical. Fixed-
  /// size header peeks use this with a stack array.
  std::span<const std::byte> peek_into(std::span<std::byte> dst) const;

  void clear() noexcept { release(); }

 private:
  bool spilled() const noexcept { return cap_ > kInlineSegments; }
  Segment* data() noexcept { return spilled() ? heap_ : inline_; }
  const Segment* data() const noexcept { return spilled() ? heap_ : inline_; }
  /// Adds `len` to size_, refusing to wrap it.
  void grow_size(std::size_t len);
  /// Room for `extra` more segments after the last one: compacts the
  /// live range to the front, or moves it to a larger spill array.
  void reserve_back(std::size_t extra);
  /// Destroys every segment and returns the spill array, if any, to its
  /// free list.
  void release() noexcept;
  /// Takes over other's segments and storage; *this must be empty.
  void steal(MsgBuffer& other) noexcept;

  // Live segments are [head_, head_ + count_) of data(); consume() advances
  // head_ instead of shifting the chain down. A spilled chain keeps its
  // array pointer where the inline segments were, which keeps the object
  // at 96 bytes: frames, cached chunks and every idle TCP connection's
  // send queue embed one.
  union {
    Segment inline_[kInlineSegments];
    Segment* heap_;  ///< the spill array, when spilled()
  };
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t cap_ = kInlineSegments;
  std::uint32_t size_ = 0;
};

}  // namespace ncache::netbuf
