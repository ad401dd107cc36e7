// Hierarchical timer wheel — the event loop's pending-event store.
//
// The old implementation kept every pending event in one binary heap:
// O(log n) comparisons per operation, one heap-boxed std::function per
// event, and a const_cast to move out of priority_queue::top. This is the
// calendar-queue / timing-wheel discipline instead (Brown '88; Varghese &
// Lauck '87; the same shape the Linux kernel uses for its timers):
//
//   * 6 levels x 64 slots, 1 ns ticks. Level L slots span 64^L ns, so the
//     wheel covers 64^6 ns (~68 simulated seconds) ahead of the cursor;
//     events beyond the horizon wait in a small min-heap and enter the
//     wheel as the cursor approaches.
//   * An event lands at the level of the highest 6-bit digit in which its
//     deadline differs from the cursor (`at XOR elapsed`), i.e. as low as
//     possible without ambiguity. Advancing the cursor into a higher-level
//     slot cascades its events down; each event cascades at most 5 times.
//   * Occupancy bitmaps (one 64-bit word per level) make "next non-empty
//     slot" a count-trailing-zeros, so an idle wheel skips any distance in
//     O(levels) — no tick-by-tick stepping.
//   * Slots are intrusive singly-linked lists of pool-recycled nodes
//     (the kernel's timer/sk_buff idiom): a cascade relinks a node in
//     O(1) instead of moving an 80-byte entry, and once the pool reaches
//     the workload's high-water mark of concurrently-pending events,
//     schedule/dispatch performs zero heap allocations regardless of the
//     delay distribution (bench/perf_core.cc asserts this via a global
//     operator-new counter).
//
// Cancellation: slot lists are doubly linked, so cancel() unlinks a
// pending node in O(1) and recycles it at once (its callback is destroyed
// there and then, and the node is free for the next push). A dead timer
// therefore costs nothing after it is cancelled: it never cascades, never
// forms a batch and never moves the cursor.
//
// Cursor rule: the cursor advances only to a batch that is about to be
// dispatched, or no further than a caller's explicit limit (pop_node's
// `limit`). next_time() reads the earliest deadline without moving it.
// A cursor that ran ahead of the clock would make every later push that
// lands before it walk the ready list.
//
// Determinism contract (load-bearing: BENCH_*.json must be byte-identical
// across same-seed runs): events fire in exactly (time, seq) order, the
// same total order the old heap produced. A level-0 slot holds events of
// exactly one deadline, and every relink path preserves relative order,
// so a drained batch is already FIFO by sequence number; a defensive sort
// pass restores it if any merge ever breaks that invariant.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_callback.h"

namespace ncache::sim {

using Time = std::uint64_t;      // absolute simulated time, ns
using Duration = std::uint64_t;  // simulated interval, ns

class TimerWheel {
 public:
  struct Entry {
    Time at = 0;
    std::uint64_t seq = 0;
    InlineCallback fn;
  };
  /// Pool node; exposed so the event loop can dispatch callbacks in
  /// place via pop_node()/recycle() without moving the Entry out, and
  /// name a pending event to cancel(). The links precede the entry so
  /// relink walks (next/at/seq) stay within the node's first cache line;
  /// callback bytes are only touched at dispatch. `prev` sits in what
  /// would otherwise be alignment padding before the 16-aligned entry,
  /// so the node stays 96 bytes.
  struct Node {
    Node* next = nullptr;
    Node* prev = nullptr;  ///< list predecessor; overflow_mark() in the heap
    Entry e;
  };
  /// `Entry::seq` of every node that is not pending (free, or popped for
  /// dispatch). Real sequence numbers never reach it, so (node, seq)
  /// names one pending event and goes stale the moment it stops pending.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t(0);
  /// "No bound" for pop_node()/fill_ready().
  static constexpr Time kNoLimit = ~Time(0);

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Pre-grows the node pool to hold `entries` concurrently-pending
  /// events (plus the overflow/scratch vectors), so a workload that never
  /// exceeds that high-water mark never allocates after this call.
  void reserve(std::size_t entries);

  TimerWheel() = default;
  ~TimerWheel();

  /// Inserts an entry. `at` must be >= the time of the last popped entry
  /// (the EventLoop clamps past-due schedules before calling).
  Node* push(Entry e) { return push(e.at, e.seq, std::move(e.fn)); }

  /// Same, constructing the entry directly in its pool node — the
  /// scheduling hot path (one callback move total). Returns the node,
  /// which names the event to cancel() while `seq` still matches.
  Node* push(Time at, std::uint64_t seq, InlineCallback&& fn) {
    ++size_;
    Node* n = acquire();
    n->e.at = at;
    n->e.seq = seq;
    n->e.fn = std::move(fn);
    if (ready_.head && at <= ready_.tail->e.at) {
      // The ready batch holds the earliest pending deadlines, so an entry
      // landing at or before its tail belongs inside it. Same-deadline
      // entries already present carry smaller sequence numbers (seq is
      // monotone), so inserting before the first strictly-later deadline
      // preserves the (at, seq) order.
      Node* after = ready_.tail;
      while (after && after->e.at > at) after = after->prev;
      link_after(ready_, after, n);
      return n;
    }
    if (at <= elapsed_) {
      // The cursor is at or past `at` (schedule-at-now while the current
      // batch drains, or a caller bounded the cursor beyond its clock):
      // every pending deadline so far is <= at, so appending keeps order.
      append(ready_, n);
      return n;
    }
    insert_wheel(n);
    return n;
  }

  /// Moves the earliest entry (by (at, seq)) into `out`; false when empty.
  bool pop(Entry& out) {
    if (!ready_.head && !fill_ready(kNoLimit)) return false;
    out.seq = ready_.head->e.seq;
    Node* n = pop_node();
    out.at = n->e.at;
    out.fn = std::move(n->e.fn);
    recycle(n);
    return true;
  }

  /// Zero-copy dispatch interface: unlinks the earliest node with a
  /// deadline <= `limit` (nullptr if there is none) so the caller can
  /// invoke its callback in place, then hand the node back via
  /// recycle(). The cursor never moves past `limit`. The node stays
  /// valid across interleaved push() calls (it is off every list and no
  /// longer pending, so cancel() ignores it); recycle() destroys the
  /// callback so a popped event never outlives its dispatch.
  Node* pop_node(Time limit = kNoLimit) {
    if (!ready_.head && !fill_ready(limit)) return nullptr;
    Node* n = ready_.head;
    if (n->e.at > limit) return nullptr;
    ready_.head = n->next;
    if (!ready_.head) {
      ready_.tail = nullptr;
    } else {
      ready_.head->prev = nullptr;
      // Pool nodes are scattered across blocks; start pulling the next
      // event's cache lines while this one's callback runs.
      __builtin_prefetch(ready_.head);
    }
    n->e.seq = kNoSeq;
    --size_;
    return n;
  }
  void recycle(Node* n) noexcept {
    n->e.seq = kNoSeq;
    n->e.fn = nullptr;
    release(n);
  }

  /// Removes the pending event `n` and destroys its callback at once.
  /// The caller must know `n` is pending (its seq matches a live handle).
  void cancel(Node* n) noexcept;

  /// Earliest pending deadline, or kNoLimit when empty. Never moves the
  /// cursor: pushes after it stay as cheap as before it.
  Time next_time() const noexcept;

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  static constexpr int kLevelBits = 6;
  static constexpr int kLevels = 6;
  static constexpr std::size_t kSlotsPerLevel = std::size_t(1) << kLevelBits;
  /// Deadlines >= cursor + kHorizon wait in the overflow heap.
  static constexpr Time kHorizon = Time(1) << (kLevelBits * kLevels);

 private:
  /// Intrusive FIFO list; nodes are appended at the tail so each slot
  /// keeps its entries in push order.
  struct List {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  Node* acquire() {
    if (!free_) grow_pool();
    Node* n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
  }
  void release(Node* n) noexcept {
    n->next = free_;
    free_ = n;
  }
  static void append(List& l, Node* n) noexcept {
    n->next = nullptr;
    n->prev = l.tail;
    if (l.tail) {
      l.tail->next = n;
    } else {
      l.head = n;
    }
    l.tail = n;
  }
  /// Links `n` after `after` (at the head when `after` is null).
  static void link_after(List& l, Node* after, Node* n) noexcept {
    n->prev = after;
    n->next = after ? after->next : l.head;
    if (n->next) {
      n->next->prev = n;
    } else {
      l.tail = n;
    }
    if (after) {
      after->next = n;
    } else {
      l.head = n;
    }
  }
  /// `prev` of a node waiting in the overflow heap: an address no node
  /// has, so cancel() can tell heap entries from list entries.
  Node* overflow_mark() noexcept {
    return reinterpret_cast<Node*>(&overflow_);
  }
  /// Level of a node in the wheel: the highest 6-bit digit in which its
  /// deadline differs from the cursor. The cursor only ever advances to
  /// a slot's region start (or to a deadline below every wheel entry),
  /// so a node's level stays what insert_wheel() computed until its slot
  /// is cascaded.
  int level_of(Time at) const noexcept {
    std::uint64_t diff = at ^ elapsed_;  // at > elapsed_, so diff != 0
    return (63 - std::countl_zero(diff)) / kLevelBits;
  }
  static std::size_t slot_of(Time at, int level) noexcept {
    return std::size_t(at >> (level * kLevelBits)) & (kSlotsPerLevel - 1);
  }
  void insert_wheel(Node* n) {
    int level = level_of(n->e.at);
    if (level >= kLevels) {
      push_overflow(n);
      return;
    }
    auto slot = slot_of(n->e.at, level);
    append(slots_[level][slot], n);
    occupied_[level] |= std::uint64_t(1) << slot;
  }
  void grow_pool();
  /// The earliest occupied wheel slot and its region start; false when
  /// the wheel (not counting ready and overflow) is empty.
  bool first_slot(int& level, std::size_t& slot, Time& wheel_t) const noexcept;
  /// Makes the earliest pending batch ready if its deadline is <= limit,
  /// advancing the cursor no further than `limit`; false otherwise.
  bool fill_ready(Time limit);
  void push_overflow(Node* n);
  void drain_overflow_at(Time t);
  void ensure_ready_sorted();

  List slots_[kLevels][kSlotsPerLevel];
  std::uint64_t occupied_[kLevels] = {};
  std::vector<Node*> overflow_;  ///< min-heap by (at, seq)
  /// Earliest batch, in (at, seq) order; consumed from the head. Pushes
  /// at or before the tail's deadline insert here to keep global order.
  List ready_;
  /// Wheel cursor: every wheel and overflow entry lies after it, every
  /// ready entry at or before it.
  Time elapsed_ = 0;
  std::size_t size_ = 0;

  // Node pool: blocks are handed out once and recycled through free_
  // forever after; scratch_ backs the (rare) defensive batch sort.
  static constexpr std::size_t kBlockNodes = 1024;
  std::vector<std::unique_ptr<Node[]>> blocks_;
  Node* free_ = nullptr;
  std::vector<Node*> scratch_;
};

}  // namespace ncache::sim
