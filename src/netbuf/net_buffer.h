// NetBuffer: the simulation's sk_buff.
//
// One NetBuffer is a contiguous allocation with reserved headroom so that
// protocol layers can prepend headers with push() without copying — exactly
// the sk_buff/mbuf discipline the paper's design relies on. Buffers
// belonging to the network-centric cache are allocated from a pinned
// BufferPool (the paper allocates them in device-driver context, which pins
// them and, as a side effect, bounds the OS page cache — §4.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace ncache {
class MetricRegistry;
}

namespace ncache::netbuf {

class BufferPool;

namespace detail {
/// Accounting block shared between a BufferPool and every buffer charged to
/// it. Buffers can outlive their pool (in-flight frames still queued on the
/// event loop or in retransmit queues at teardown); the ledger keeps the
/// release path valid after the pool is gone — `owner` is nulled by
/// ~BufferPool and late releases just decrement the orphaned counter.
struct PoolLedger {
  BufferPool* owner = nullptr;
  std::size_t in_use = 0;
  void release(std::size_t charge) noexcept {
    in_use = in_use > charge ? in_use - charge : 0;
  }
};
}  // namespace detail

class NetBuffer {
 public:
  static constexpr std::size_t kDefaultHeadroom = 128;

  /// A buffer with `headroom` bytes reserved for headers and room for
  /// `capacity` bytes of data.
  NetBuffer(std::size_t headroom, std::size_t capacity);

  NetBuffer(const NetBuffer&) = delete;
  NetBuffer& operator=(const NetBuffer&) = delete;
  NetBuffer(NetBuffer&&) noexcept;
  NetBuffer& operator=(NetBuffer&&) noexcept;
  ~NetBuffer();

  /// Prepends `n` bytes (header space); returns pointer to the new front.
  std::byte* push(std::size_t n);
  /// Strips `n` bytes from the front; returns pointer to the old front.
  std::byte* pull(std::size_t n);
  /// Appends `n` bytes at the tail; returns pointer to the new region.
  std::byte* put(std::size_t n);
  /// Shrinks the data region to `len` bytes.
  void trim(std::size_t len);

  std::span<std::byte> data() noexcept {
    return {storage_.data() + head_, tail_ - head_};
  }
  std::span<const std::byte> data() const noexcept {
    return {storage_.data() + head_, tail_ - head_};
  }

  std::size_t size() const noexcept { return tail_ - head_; }
  std::size_t headroom() const noexcept { return head_; }
  std::size_t tailroom() const noexcept { return cap_ - tail_; }
  /// Logical capacity (headroom + data room), the size pools charge for.
  /// The backing storage may be larger: it comes from a SlabCache size
  /// class so that release/allocate cycles recycle it without touching
  /// the heap. Only the first capacity() bytes are ever reachable.
  std::size_t capacity() const noexcept { return cap_; }

  /// Appends the given bytes (convenience over put + memcpy).
  void append(std::span<const std::byte> src);

  /// Pool this buffer is charged against, or nullptr (also nullptr once
  /// the pool itself has been destroyed).
  BufferPool* pool() const noexcept { return pool_ ? pool_->owner : nullptr; }

 private:
  friend class BufferPool;

  std::vector<std::byte> storage_;  // slab-class sized, >= cap_
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
  std::size_t cap_ = 0;  // logical capacity; accounting unit
  std::shared_ptr<detail::PoolLedger> pool_;  // set by BufferPool::allocate
};

using NetBufferPtr = std::shared_ptr<NetBuffer>;

/// Makes an unpooled buffer (ordinary kernel memory).
NetBufferPtr make_buffer(std::size_t capacity,
                         std::size_t headroom = NetBuffer::kDefaultHeadroom);

/// Pinned-memory accounting for network-centric cache buffers.
///
/// The pool has a byte budget; allocation beyond the budget fails, which is
/// what forces the NetCentricCache to evict (LRU) before inserting. The
/// budget models physical memory carved out of the machine in driver
/// context (§4.1): memory held here is unavailable to the FS buffer cache.
class BufferPool {
 public:
  BufferPool(std::string name, std::size_t budget_bytes)
      : name_(std::move(name)), budget_(budget_bytes) {
    ledger_->owner = this;
  }
  ~BufferPool() { ledger_->owner = nullptr; }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Allocates a pooled buffer or returns nullptr if the budget would be
  /// exceeded. The accounted size is the full capacity plus a fixed
  /// per-buffer metadata overhead (descriptor, list links, hash entry) —
  /// this overhead is what degrades NCache at large working sets in
  /// Fig 6(a).
  NetBufferPtr allocate(std::size_t capacity,
                        std::size_t headroom = NetBuffer::kDefaultHeadroom);

  /// Adopts an existing buffer into this pool (charges its capacity).
  /// Returns false if the budget would be exceeded.
  bool adopt(NetBuffer& buf);

  std::size_t budget() const noexcept { return budget_; }
  std::size_t in_use() const noexcept { return ledger_->in_use; }
  std::size_t available() const noexcept {
    return budget_ > in_use() ? budget_ - in_use() : 0;
  }
  std::uint64_t allocations() const noexcept { return allocations_; }
  std::uint64_t failures() const noexcept { return failures_; }
  /// Allocations whose storage came off a slab free list / had to hit
  /// the heap. recycled + slab_misses == allocations until a registry
  /// reset zeroes allocations (these two are host-side and never reset).
  std::uint64_t recycled() const noexcept { return recycled_; }
  std::uint64_t slab_misses() const noexcept { return slab_misses_; }

  /// Publishes <prefix>.* occupancy and recycling metrics under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node,
                        const std::string& prefix);

  /// Per-buffer bookkeeping overhead in bytes (descriptor + links + index).
  static constexpr std::size_t kPerBufferOverhead = 96;

 private:
  std::string name_;
  std::size_t budget_;
  std::shared_ptr<detail::PoolLedger> ledger_ =
      std::make_shared<detail::PoolLedger>();
  std::uint64_t allocations_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t recycled_ = 0;
  std::uint64_t slab_misses_ = 0;
};

}  // namespace ncache::netbuf
