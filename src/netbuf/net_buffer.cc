#include "netbuf/net_buffer.h"

#include <cstring>

#include "common/metrics.h"
#include "netbuf/slab_cache.h"

namespace ncache::netbuf {

NetBuffer::NetBuffer(std::size_t headroom, std::size_t capacity)
    : storage_(SlabCache::process().acquire(headroom + capacity)),
      head_(headroom),
      tail_(headroom),
      cap_(headroom + capacity) {}

NetBuffer::NetBuffer(NetBuffer&& o) noexcept
    : storage_(std::move(o.storage_)),
      head_(o.head_),
      tail_(o.tail_),
      cap_(o.cap_),
      pool_(std::move(o.pool_)) {
  o.head_ = o.tail_ = o.cap_ = 0;
}

NetBuffer& NetBuffer::operator=(NetBuffer&& o) noexcept {
  if (this != &o) {
    if (pool_) pool_->release(cap_ + BufferPool::kPerBufferOverhead);
    if (!storage_.empty()) SlabCache::process().recycle(std::move(storage_));
    storage_ = std::move(o.storage_);
    head_ = o.head_;
    tail_ = o.tail_;
    cap_ = o.cap_;
    pool_ = std::move(o.pool_);
    o.head_ = o.tail_ = o.cap_ = 0;
  }
  return *this;
}

NetBuffer::~NetBuffer() {
  if (pool_) pool_->release(cap_ + BufferPool::kPerBufferOverhead);
  if (!storage_.empty()) SlabCache::process().recycle(std::move(storage_));
}

std::byte* NetBuffer::push(std::size_t n) {
  if (n > head_) throw std::length_error("NetBuffer::push: headroom exhausted");
  head_ -= n;
  return storage_.data() + head_;
}

std::byte* NetBuffer::pull(std::size_t n) {
  if (n > size()) throw std::length_error("NetBuffer::pull: underrun");
  std::byte* old = storage_.data() + head_;
  head_ += n;
  return old;
}

std::byte* NetBuffer::put(std::size_t n) {
  if (n > tailroom()) throw std::length_error("NetBuffer::put: tailroom exhausted");
  std::byte* at = storage_.data() + tail_;
  tail_ += n;
  return at;
}

void NetBuffer::trim(std::size_t len) {
  if (len > size()) throw std::length_error("NetBuffer::trim: grows buffer");
  tail_ = head_ + len;
}

void NetBuffer::append(std::span<const std::byte> src) {
  std::byte* dst = put(src.size());
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
}

NetBufferPtr make_buffer(std::size_t capacity, std::size_t headroom) {
  // allocate_shared + RecyclingAllocator: the combined control-block/
  // object allocation recycles through a free list, like the storage.
  return std::allocate_shared<NetBuffer>(RecyclingAllocator<NetBuffer>{},
                                         headroom, capacity);
}

NetBufferPtr BufferPool::allocate(std::size_t capacity, std::size_t headroom) {
  std::size_t charge = headroom + capacity + kPerBufferOverhead;
  if (ledger_->in_use + charge > budget_) {
    ++failures_;
    return nullptr;
  }
  // Attribute the slab outcome of this construction to this pool (the
  // hit-count delta is exactly our acquire).
  SlabCache& slab = SlabCache::process();
  std::uint64_t hits0 = slab.hits();
  auto buf = std::allocate_shared<NetBuffer>(RecyclingAllocator<NetBuffer>{},
                                             headroom, capacity);
  if (slab.hits() != hits0) {
    ++recycled_;
  } else {
    ++slab_misses_;
  }
  buf->pool_ = ledger_;
  ledger_->in_use += charge;
  ++allocations_;
  return buf;
}

bool BufferPool::adopt(NetBuffer& buf) {
  if (buf.pool_ == ledger_) return true;
  std::size_t charge = buf.capacity() + kPerBufferOverhead;
  if (ledger_->in_use + charge > budget_) {
    ++failures_;
    return false;
  }
  if (buf.pool_) buf.pool_->release(charge);
  buf.pool_ = ledger_;
  ledger_->in_use += charge;
  ++allocations_;
  return true;
}

void BufferPool::register_metrics(MetricRegistry& registry,
                                  const std::string& node,
                                  const std::string& prefix) {
  registry.gauge(node, prefix + ".in_use_bytes",
                 [ledger = ledger_] { return double(ledger->in_use); });
  registry.counter(node, prefix + ".allocations", &allocations_);
  registry.counter(node, prefix + ".failures", &failures_);
  registry.host_counter(node, prefix + ".recycled",
                        [this] { return recycled_; });
  registry.host_counter(node, prefix + ".slab_misses",
                        [this] { return slab_misses_; });
}

}  // namespace ncache::netbuf
