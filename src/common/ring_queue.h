// RingQueue — a FIFO in one power-of-two ring array.
//
// std::deque allocates a map and a block even while empty, and a node-based
// container allocates per element. The simulation's per-core completion
// queues and per-connection retransmission queues want neither: this queue
// keeps its elements in one array that doubles when full, so a steady
// push/pop cycle never touches the allocator. release() frees the array;
// owners that are numerous and mostly idle (TCP connections) call it
// whenever the queue drains, so an idle owner holds no storage.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace ncache {

template <typename T>
class RingQueue {
 public:
  static constexpr std::size_t kMinCapacity = 16;

  bool empty() const noexcept { return size_ == 0; }
  T& front() noexcept { return slots_[head_]; }

  void push_back(T v) {
    if (size_ == cap_) grow();
    slots_[(head_ + size_) & (cap_ - 1)] = std::move(v);
    ++size_;
  }

  /// Removes the front element; its slot is reset to T{} so whatever the
  /// element held is released now, not when the slot is next reused.
  void pop_front() {
    slots_[head_] = T{};
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  /// Destroys every element and frees the array.
  void release() noexcept {
    slots_.reset();
    cap_ = head_ = size_ = 0;
  }

 private:
  void grow() {
    std::size_t cap = cap_ ? 2 * cap_ : kMinCapacity;
    auto slots = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      slots[i] = std::move(slots_[(head_ + i) & (cap_ - 1)]);
    }
    slots_ = std::move(slots);
    cap_ = cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ncache
