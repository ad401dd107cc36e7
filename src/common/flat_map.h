// FlatMap — an open-addressing hash table for the simulator's hot indexes.
//
// std::unordered_map allocates one node per entry and chases a pointer per
// probe; the NCache chunk indexes, the fs buffer cache and the NFS
// client's pending-call table look up on every request. This table keeps
// keys and values inline in one power-of-two array, probes linearly
// (Fibonacci-hashed home slot, so sequential keys spread), stays at most
// three quarters full, and deletes by backward shift, so there are no
// tombstones and a probe ends at the first empty slot.
//
// Values move on growth and on erase, so a pointer from find() is valid
// only until the next insert or erase. Iteration order is the slot order:
// callers that walk the table must sort what they collect or not depend
// on order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace ncache {

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
 public:
  FlatMap() = default;

  std::size_t size() const noexcept { return size_; }

  V* find(const K& key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }
  const V* find(const K& key) const noexcept {
    return const_cast<FlatMap*>(this)->find(key);
  }
  bool contains(const K& key) const noexcept { return find(key) != nullptr; }

  /// The value under `key`, default-constructed first when absent; the
  /// bool says whether it was inserted.
  std::pair<V*, bool> try_emplace(const K& key) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        ++size_;
        return {&s.value, true};
      }
      if (s.key == key) return {&s.value, false};
    }
  }
  V& operator[](const K& key) { return *try_emplace(key).first; }

  /// Removes `key`; false when absent.
  bool erase(const K& key) {
    if (slots_.empty()) return false;
    std::size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == key) break;
    }
    // Backward shift: pull each later member of the probe run into the
    // hole unless its home lies cyclically in (hole, j].
    for (std::size_t j = (i + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& s = slots_[j];
      if (!s.used) break;
      std::size_t h = home(s.key);
      bool stays = i <= j ? (i < h && h <= j) : (i < h || h <= j);
      if (stays) continue;
      slots_[i].key = s.key;
      slots_[i].value = std::move(s.value);
      i = j;
    }
    slots_[i].used = false;
    slots_[i].value = V{};
    --size_;
    return true;
  }

  void clear() {
    slots_.clear();
    mask_ = 0;
    size_ = 0;
  }

  /// Calls f(key, value) for every entry, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.used) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    K key{};
    V value{};
    bool used = false;
  };

  std::size_t home(const K& key) const noexcept {
    std::uint64_t h = std::uint64_t(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return std::size_t(h >> shift_);
  }

  void grow() {
    std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    size_ = 0;
    for (Slot& s : old) {
      if (!s.used) continue;
      *try_emplace(s.key).first = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace ncache
