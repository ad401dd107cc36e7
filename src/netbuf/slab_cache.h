// SlabCache — size-class recycling for NetBuffer storage (and, via
// RecyclingAllocator, for their shared_ptr control blocks).
//
// The paper's data path allocates and frees network buffers at wire rate:
// every cached chunk, every frame, every NFS message body is a NetBuffer.
// Before this cache each buffer cost two heap round-trips (storage vector
// + control block); under churn that is the dominant cost of the buffer
// path (bench/perf_core.cc's buffer_pool case measured 2.0 allocs per
// cycle). SlabCache keeps freed storage on per-size-class free lists and
// hands it back zeroed, the way the kernel's kmem caches back sk_buff
// data — so a steady-state allocate/release cycle touches no allocator.
//
// Size classes are powers of two from 256 B to 1 MB. A request is served
// from the smallest class that fits; the vector handed out has the class
// size, while the NetBuffer keeps its own logical capacity — pool byte
// accounting charges the logical size, so recycling never perturbs the
// budget arithmetic the cache's eviction behavior (and the figures)
// depend on. Requests above the largest class fall through to exact-size
// allocation and are not retained.
//
// Every NetBuffer recycles through the process() slab; the simulation
// runs on one thread, so the slab is never locked. The slab outlives the
// worlds that use it and is warm from earlier worlds in the same process,
// so its hit/miss counters are host-side telemetry, not simulation output
// (MetricRegistry::host_counter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace ncache::netbuf {

class SlabCache {
 public:
  static constexpr std::size_t kMinClassBytes = 256;
  static constexpr std::size_t kMaxClassBytes = std::size_t(1) << 20;
  /// Retention bound per class, in bytes: beyond it a recycled vector is
  /// freed instead of held, so an allocation burst cannot pin its
  /// high-water mark in the cache forever.
  static constexpr std::size_t kMaxHeldBytesPerClass = 64u << 20;

  /// Storage of at least `bytes` (the containing size class), zeroed up
  /// to `bytes` — identical observable contents to a freshly
  /// value-initialized vector.
  std::vector<std::byte> acquire(std::size_t bytes);

  /// Returns storage to its size-class free list (or frees it, when the
  /// size is not a class size or the class is at its retention bound).
  void recycle(std::vector<std::byte>&& storage) noexcept;

  /// Drops all held storage (tests; memory pressure is not modelled).
  void drain() noexcept;

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::size_t held_bytes() const noexcept { return held_bytes_; }

  /// The process-wide instance every NetBuffer recycles through.
  static SlabCache& process();

 private:
  static constexpr int kNumClasses = 13;  // 2^8 .. 2^20

  /// Smallest class index whose size is >= bytes; kNumClasses if none.
  static int class_index(std::size_t bytes) noexcept;

  std::vector<std::vector<std::byte>> lists_[kNumClasses];
  std::size_t held_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Minimal std allocator over a per-type free list; sizeof(T) must be at
/// least a pointer. std::allocate_shared uses it to recycle shared_ptr
/// control blocks the same way SlabCache recycles buffer storage. The
/// list is process-wide and unlocked like the slab, holds at most the
/// type's high-water live count, and is freed at exit — blocks
/// deallocated after the list's own destructor has run go straight back
/// to the heap.
template <typename T>
struct RecyclingAllocator {
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(sizeof(T) >= sizeof(void*));
    if (n == 1) {
      FreeList& list = free_list();
      if (list.head) {
        void* p = list.head;
        list.head = *static_cast<void**>(p);
        return static_cast<T*>(p);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      FreeList& list = free_list();
      if (list.alive) {
        *reinterpret_cast<void**>(static_cast<void*>(p)) = list.head;
        list.head = p;
        return;
      }
    }
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }

 private:
  // Destructor frees the held blocks at exit; `alive` guards against
  // re-population afterwards (a shared_ptr released by a static destroyed
  // later may deallocate through here).
  struct FreeList {
    void* head = nullptr;
    bool alive = true;
    ~FreeList() {
      while (head) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
      alive = false;
    }
  };

  static FreeList& free_list() noexcept {
    static FreeList list;
    return list;
  }
};

}  // namespace ncache::netbuf
