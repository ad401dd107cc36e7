#include "netbuf/msg_buffer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/bytes.h"

namespace ncache::netbuf {

namespace {

// Spilled segment arrays have power-of-two capacities and recycle through
// one free list per capacity: a chain that spills on every frame (a
// substituted payload of three or more segments) reuses the array the
// previous frame released instead of allocating. The lists are
// process-wide and unlocked like SlabCache::process(), and hold at most
// the high-water count of arrays live at once per capacity.
struct SpillLists {
  void* head[32] = {};
  bool alive = true;
  ~SpillLists() {
    for (void*& h : head) {
      while (h) {
        void* next = *static_cast<void**>(h);
        ::operator delete(h);
        h = next;
      }
    }
    alive = false;  // arrays released after exit go straight to the heap
  }
};

SpillLists& spill_lists() noexcept {
  static SpillLists lists;
  return lists;
}

Segment* acquire_spill(std::size_t cap) {
  void*& head = spill_lists().head[std::countr_zero(cap)];
  if (void* p = head) {
    head = *static_cast<void**>(p);
    return static_cast<Segment*>(p);
  }
  return static_cast<Segment*>(::operator new(cap * sizeof(Segment)));
}

void release_spill(Segment* p, std::size_t cap) noexcept {
  SpillLists& lists = spill_lists();
  if (!lists.alive) {
    ::operator delete(p);
    return;
  }
  void*& head = lists.head[std::countr_zero(cap)];
  *reinterpret_cast<void**>(p) = head;
  head = p;
}

}  // namespace

MsgBuffer MsgBuffer::from_bytes(std::span<const std::byte> src) {
  MsgBuffer m;
  if (!src.empty()) {
    auto buf = make_buffer(src.size());
    buf->append(src);
    m.append(ByteSeg{std::move(buf), 0, std::uint32_t(src.size())});
  }
  return m;
}

MsgBuffer MsgBuffer::from_string(std::string_view s) {
  return from_bytes(as_bytes(s));
}

MsgBuffer MsgBuffer::wrap(NetBufferPtr buf) {
  auto len = std::uint32_t(buf->size());
  return wrap(std::move(buf), 0, len);
}

MsgBuffer MsgBuffer::wrap(NetBufferPtr buf, std::uint32_t off,
                          std::uint32_t len) {
  MsgBuffer m;
  if (len > 0) m.append(ByteSeg{std::move(buf), off, len});
  return m;
}

MsgBuffer MsgBuffer::from_key(CacheKey key, std::uint32_t off,
                              std::uint32_t len) {
  MsgBuffer m;
  m.append(KeySeg{key, off, len});
  return m;
}

MsgBuffer MsgBuffer::junk(std::uint32_t len) {
  MsgBuffer m;
  if (len > 0) m.append(JunkSeg{len});
  return m;
}

MsgBuffer::MsgBuffer(const MsgBuffer& other) { *this = other; }

MsgBuffer::MsgBuffer(MsgBuffer&& other) noexcept { steal(other); }

MsgBuffer& MsgBuffer::operator=(const MsgBuffer& other) {
  if (this == &other) return *this;
  release();
  reserve_back(other.count_);
  Segment* dst = data();
  for (const Segment& s : other.segments()) ::new (dst + count_++) Segment(s);
  size_ = other.size_;
  return *this;
}

MsgBuffer& MsgBuffer::operator=(MsgBuffer&& other) noexcept {
  if (this != &other) {
    release();
    steal(other);
  }
  return *this;
}

void MsgBuffer::steal(MsgBuffer& other) noexcept {
  if (other.spilled()) {
    heap_ = other.heap_;
    head_ = std::exchange(other.head_, 0);
    cap_ = std::exchange(other.cap_, std::uint32_t(kInlineSegments));
  } else {
    for (std::uint32_t i = 0; i < other.count_; ++i) {
      Segment& src = other.inline_[other.head_ + i];
      ::new (inline_ + i) Segment(std::move(src));
      src.~Segment();
    }
    other.head_ = 0;
  }
  count_ = std::exchange(other.count_, 0);
  size_ = std::exchange(other.size_, 0);
}

void MsgBuffer::release() noexcept {
  Segment* base = data();
  for (std::uint32_t i = 0; i < count_; ++i) base[head_ + i].~Segment();
  if (spilled()) release_spill(heap_, cap_);
  head_ = 0;
  count_ = 0;
  cap_ = kInlineSegments;
  size_ = 0;
}

void MsgBuffer::reserve_back(std::size_t extra) {
  std::size_t need = std::size_t(count_) + extra;
  if (head_ + need <= cap_) return;
  Segment* old = data();
  Segment* dst = old;
  std::size_t cap = cap_;
  if (need > cap) {
    cap = std::bit_ceil(need);
    dst = acquire_spill(cap);
  }
  // Relocate the live range to the front of dst. head_ > 0 whenever dst
  // is the current array (else the range would already fit), so no
  // segment is ever moved onto itself.
  for (std::uint32_t i = 0; i < count_; ++i) {
    ::new (dst + i) Segment(std::move(old[head_ + i]));
    old[head_ + i].~Segment();
  }
  if (dst != old) {
    if (spilled()) release_spill(heap_, cap_);
    heap_ = dst;  // the inline segments were all relocated above
    cap_ = std::uint32_t(cap);
  }
  head_ = 0;
}

void MsgBuffer::grow_size(std::size_t len) {
  if (len > std::numeric_limits<std::uint32_t>::max() - size_) {
    throw std::length_error("MsgBuffer: message of 4 GB or more");
  }
  size_ += std::uint32_t(len);
}

void MsgBuffer::append(Segment seg) {
  std::uint32_t len = seg_len(seg);
  if (len == 0) return;
  reserve_back(1);
  grow_size(len);
  ::new (data() + head_ + count_) Segment(std::move(seg));
  ++count_;
}

void MsgBuffer::append(MsgBuffer other) {
  if (count_ == 0) {
    release();
    steal(other);
    return;
  }
  reserve_back(other.count_);
  grow_size(other.size_);
  Segment* dst = data() + head_ + count_;
  Segment* src = other.data() + other.head_;
  for (std::uint32_t i = 0; i < other.count_; ++i) {
    ::new (dst + i) Segment(std::move(src[i]));
  }
  count_ += other.count_;
  // other's destructor disposes of the moved-from segments.
}

void MsgBuffer::consume(std::size_t n) {
  if (n > size_) throw std::out_of_range("MsgBuffer::consume");
  if (n == size_) {
    release();
    return;
  }
  size_ -= std::uint32_t(n);
  Segment* base = data();
  while (n > 0) {
    Segment& s = base[head_];
    std::uint32_t slen = seg_len(s);
    if (n < slen) {
      // Re-range the new first segment in place.
      std::visit(
          [n](auto& v) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(v)>, JunkSeg>) {
              v.off += std::uint32_t(n);
            }
            v.len -= std::uint32_t(n);
          },
          s);
      break;
    }
    s.~Segment();
    ++head_;
    --count_;
    n -= slen;
  }
}

bool MsgBuffer::fully_physical() const noexcept {
  for (const auto& s : segments()) {
    if (!std::holds_alternative<ByteSeg>(s)) return false;
  }
  return true;
}

bool MsgBuffer::has_keys() const noexcept {
  for (const auto& s : segments()) {
    if (std::holds_alternative<KeySeg>(s)) return true;
  }
  return false;
}

bool MsgBuffer::has_junk() const noexcept {
  for (const auto& s : segments()) {
    if (std::holds_alternative<JunkSeg>(s)) return true;
  }
  return false;
}

std::size_t MsgBuffer::key_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : segments()) {
    if (std::holds_alternative<KeySeg>(s)) ++n;
  }
  return n;
}

std::size_t MsgBuffer::logical_bytes() const noexcept {
  std::size_t n = 0;
  for (const auto& s : segments()) {
    if (!std::holds_alternative<ByteSeg>(s)) n += seg_len(s);
  }
  return n;
}

MsgBuffer MsgBuffer::slice(std::size_t off, std::size_t len) const {
  if (off + len > size_) throw std::out_of_range("MsgBuffer::slice");
  MsgBuffer out;
  std::size_t pos = 0;
  for (const auto& s : segments()) {
    if (len == 0) break;
    std::uint32_t slen = seg_len(s);
    std::size_t seg_end = pos + slen;
    if (seg_end <= off) {
      pos = seg_end;
      continue;
    }
    std::size_t start_in_seg = off > pos ? off - pos : 0;
    std::size_t take = std::min<std::size_t>(slen - start_in_seg, len);
    if (const auto* b = std::get_if<ByteSeg>(&s)) {
      out.append(ByteSeg{b->buf, std::uint32_t(b->off + start_in_seg),
                         std::uint32_t(take)});
    } else if (const auto* k = std::get_if<KeySeg>(&s)) {
      out.append(KeySeg{k->key, std::uint32_t(k->off + start_in_seg),
                        std::uint32_t(take)});
    } else {
      out.append(JunkSeg{std::uint32_t(take)});
    }
    off += take;
    len -= take;
    pos = seg_end;
  }
  return out;
}

void MsgBuffer::copy_out(std::span<std::byte> dst) const {
  if (dst.size() != size_) throw std::length_error("MsgBuffer::copy_out size");
  std::size_t pos = 0;
  for (const auto& s : segments()) {
    if (const auto* b = std::get_if<ByteSeg>(&s)) {
      auto v = b->view();
      std::memcpy(dst.data() + pos, v.data(), v.size());
      pos += v.size();
    } else {
      // Non-physical segment: deterministic filler so consumers that
      // (incorrectly) read junk see a recognizable pattern.
      std::uint32_t len = seg_len(s);
      std::memset(dst.data() + pos, 0x5A, len);
      pos += len;
    }
  }
}

std::vector<std::byte> MsgBuffer::to_bytes() const {
  std::vector<std::byte> out(size_);
  copy_out(out);
  return out;
}

std::vector<std::byte> MsgBuffer::peek_bytes(std::size_t n) const {
  if (n > size_) throw std::out_of_range("MsgBuffer::peek_bytes");
  MsgBuffer prefix = slice(0, n);
  if (!prefix.fully_physical()) {
    throw std::logic_error("MsgBuffer::peek_bytes: prefix is not physical");
  }
  return prefix.to_bytes();
}

}  // namespace ncache::netbuf
