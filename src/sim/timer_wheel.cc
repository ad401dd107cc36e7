// Slow paths of the hierarchical timer wheel: pool growth, the overflow
// heap, and the batch-refill cascade. The per-event fast paths (push, pop,
// peek, insert_wheel) are inline in timer_wheel.h.
#include "sim/timer_wheel.h"

#include <algorithm>

namespace ncache::sim {

namespace {

// Min-heap order for the overflow heap: front is the smallest (at, seq).
constexpr auto kLater = [](const auto* a, const auto* b) noexcept {
  if (a->e.at != b->e.at) return a->e.at > b->e.at;
  return a->e.seq > b->e.seq;
};

constexpr auto kEarlier = [](const auto* a, const auto* b) noexcept {
  if (a->e.at != b->e.at) return a->e.at < b->e.at;
  return a->e.seq < b->e.seq;
};

}  // namespace

TimerWheel::~TimerWheel() {
  // A callback may own an object whose destructor cancels its own timer.
  // Retire every node first, so such a cancel finds a stale handle, and
  // destroy the callbacks while every pool block is still allocated.
  for (auto& block : blocks_) {
    for (std::size_t i = 0; i < kBlockNodes; ++i) block[i].e.seq = kNoSeq;
  }
  for (auto& block : blocks_) {
    for (std::size_t i = 0; i < kBlockNodes; ++i) block[i].e.fn = nullptr;
  }
}

void TimerWheel::grow_pool() {
  blocks_.push_back(std::make_unique<Node[]>(kBlockNodes));
  Node* block = blocks_.back().get();
  for (std::size_t i = 0; i < kBlockNodes; ++i) {
    block[i].e.seq = kNoSeq;
    block[i].next = free_;
    free_ = &block[i];
  }
}

void TimerWheel::reserve(std::size_t entries) {
  while (blocks_.size() * kBlockNodes < entries) grow_pool();
  overflow_.reserve(entries);
  scratch_.reserve(entries);
}

void TimerWheel::push_overflow(Node* n) {
  n->prev = overflow_mark();
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(), kLater);
}

void TimerWheel::drain_overflow_at(Time t) {
  while (!overflow_.empty() && overflow_.front()->e.at == t) {
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    append(ready_, overflow_.back());
    overflow_.pop_back();
  }
}

void TimerWheel::cancel(Node* n) noexcept {
  if (n->prev == overflow_mark()) {
    // Deadlines past the horizon are rare; a scan of the heap is fine.
    overflow_.erase(std::find(overflow_.begin(), overflow_.end(), n));
    std::make_heap(overflow_.begin(), overflow_.end(), kLater);
  } else {
    List* l = &ready_;
    int level = -1;
    std::size_t slot = 0;
    if (n->e.at > elapsed_) {
      level = level_of(n->e.at);
      slot = slot_of(n->e.at, level);
      l = &slots_[level][slot];
    }
    if (n->prev) {
      n->prev->next = n->next;
    } else {
      l->head = n->next;
    }
    if (n->next) {
      n->next->prev = n->prev;
    } else {
      l->tail = n->prev;
    }
    if (level >= 0 && !l->head) occupied_[level] &= ~(std::uint64_t(1) << slot);
  }
  --size_;
  recycle(n);
}

/// Relink paths keep batches in (at, seq) order by construction: slots
/// receive cascaded nodes (older seqs) before direct pushes (newer seqs)
/// and every walk is order-preserving. This pass verifies that in O(n)
/// and falls back to an explicit sort if a merge ever breaks it, so
/// dispatch order never silently depends on the structural argument.
void TimerWheel::ensure_ready_sorted() {
  for (Node* n = ready_.head; n && n->next; n = n->next) {
    if (kEarlier(n->next, n)) {
      scratch_.clear();
      for (Node* m = ready_.head; m; m = m->next) scratch_.push_back(m);
      std::sort(scratch_.begin(), scratch_.end(), kEarlier);
      ready_ = List{};
      for (Node* m : scratch_) append(ready_, m);
      return;
    }
  }
}

bool TimerWheel::first_slot(int& level, std::size_t& slot,
                            Time& wheel_t) const noexcept {
  // The first non-empty level holds the earliest pending slot: level-0
  // entries precede the cursor's next level-1 boundary, which precedes
  // every occupied level-1 slot, and so on up.
  for (int l = 0; l < kLevels; ++l) {
    auto cursor = slot_of(elapsed_, l);
    // Occupied slots are strictly above the cursor digit at their level
    // (equal-or-below would mean a deadline at or before the cursor).
    std::uint64_t mask =
        cursor + 1 >= kSlotsPerLevel
            ? 0
            : occupied_[l] & (~std::uint64_t(0) << (cursor + 1));
    if (mask) {
      level = l;
      slot = std::size_t(std::countr_zero(mask));
      Time span = Time(1) << ((l + 1) * kLevelBits);
      wheel_t = (elapsed_ & ~(span - 1)) | (Time(slot) << (l * kLevelBits));
      return true;
    }
  }
  return false;
}

Time TimerWheel::next_time() const noexcept {
  if (ready_.head) return ready_.head->e.at;
  Time t = overflow_.empty() ? kNoLimit : overflow_.front()->e.at;
  int level;
  std::size_t slot;
  Time wheel_t;
  if (!first_slot(level, slot, wheel_t)) return t;
  if (level == 0) return std::min(t, wheel_t);
  // A higher-level slot spans many deadlines; its earliest is the
  // wheel's earliest. Scanning it leaves the cursor where it is.
  for (const Node* n = slots_[level][slot].head; n; n = n->next) {
    t = std::min(t, n->e.at);
  }
  return t;
}

bool TimerWheel::fill_ready(Time limit) {
  if (ready_.head) return true;
  if (size_ == 0) return false;

  for (;;) {
    int level = -1;
    std::size_t slot = 0;
    Time wheel_t = 0;
    bool have_wheel = first_slot(level, slot, wheel_t);
    bool have_overflow = !overflow_.empty();
    Time overflow_t = have_overflow ? overflow_.front()->e.at : 0;

    if (!have_wheel && !have_overflow) return false;
    bool from_overflow = !have_wheel || (have_overflow && overflow_t < wheel_t);
    // wheel_t is the slot's region start, at or before everything in
    // the wheel; past `limit` nothing can be ready, so the cursor stays.
    if ((from_overflow ? overflow_t : wheel_t) > limit) return false;

    if (from_overflow) {
      // Every wheel entry is at or after wheel_t, so the overflow front
      // is globally earliest; batch out all entries sharing its deadline
      // (heap pops arrive in (at, seq) order already).
      elapsed_ = overflow_t;
      drain_overflow_at(overflow_t);
      ensure_ready_sorted();
      return true;
    }

    if (level == 0) {
      // A level-0 slot stores exactly one deadline (the cursor's upper
      // digits plus this slot index), so the whole slot is one batch:
      // taking it is a pointer swap, no per-entry work.
      elapsed_ = wheel_t;
      ready_ = slots_[0][slot];
      slots_[0][slot] = List{};
      occupied_[0] &= ~(std::uint64_t(1) << slot);
      if (have_overflow && overflow_t == wheel_t) drain_overflow_at(wheel_t);
      ensure_ready_sorted();
      return true;
    }

    // Cascade: advance the cursor to the slot's region start and re-bin
    // its nodes; each relinks at a lower level (or into ready when its
    // deadline is exactly the region start).
    elapsed_ = wheel_t;
    List l = slots_[level][slot];
    slots_[level][slot] = List{};
    occupied_[level] &= ~(std::uint64_t(1) << slot);
    for (Node* n = l.head; n;) {
      Node* next = n->next;
      if (n->e.at == elapsed_) {
        append(ready_, n);
      } else {
        insert_wheel(n);
      }
      n = next;
    }
    if (ready_.head) {
      if (have_overflow && overflow_t == wheel_t) drain_overflow_at(wheel_t);
      ensure_ready_sorted();
      return true;
    }
  }
}

}  // namespace ncache::sim
