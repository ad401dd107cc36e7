#include "core/net_centric_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace ncache::core {

using netbuf::CacheKey;
using netbuf::FhoKey;
using netbuf::LbnKey;
using netbuf::MsgBuffer;

NetCentricCache::NetCentricCache(sim::CpuModel& cpu,
                                 const sim::CostModel& costs, Config config)
    : cpu_(cpu),
      costs_(costs),
      config_(config),
      pool_("ncache", config.pool_budget_bytes) {}

NetCentricCache::ChunkId NetCentricCache::new_chunk() {
  if (free_ == kNil) {
    auto block = std::make_unique<Chunk[]>(kSlabBlock);
    ChunkId base = ChunkId(slab_.size() * kSlabBlock);
    for (std::size_t i = kSlabBlock; i-- > 0;) {
      block[i].next = free_;
      free_ = base + ChunkId(i);
    }
    slab_.push_back(std::move(block));
  }
  ChunkId id = free_;
  free_ = chunk(id).next;
  lru_push_back(id);
  ++chunk_count_;
  return id;
}

void NetCentricCache::lru_unlink(ChunkId id) noexcept {
  Chunk& c = chunk(id);
  if (c.prev != kNil) {
    chunk(c.prev).next = c.next;
  } else {
    lru_head_ = c.next;
  }
  if (c.next != kNil) {
    chunk(c.next).prev = c.prev;
  } else {
    lru_tail_ = c.prev;
  }
  c.prev = c.next = kNil;
}

void NetCentricCache::lru_push_back(ChunkId id) noexcept {
  Chunk& c = chunk(id);
  c.prev = lru_tail_;
  c.next = kNil;
  if (lru_tail_ != kNil) {
    chunk(lru_tail_).next = id;
  } else {
    lru_head_ = id;
  }
  lru_tail_ = id;
}

void NetCentricCache::drop_chunk(ChunkId id) {
  Chunk& c = chunk(id);
  lru_unlink(id);
  if (c.fho) forward_.erase(*c.fho);
  if (c.lbn) {
    lbn_index_.erase(*c.lbn);
  } else if (c.fho) {
    fho_index_.erase(*c.fho);
  }
  // Releasing the chain unpins its buffers as their last reference (cache
  // or in-flight frame) goes away.
  c = Chunk{};
  c.next = free_;
  free_ = id;
  --chunk_count_;
}

bool NetCentricCache::evict_one() {
  for (ChunkId id = lru_head_; id != kNil; id = chunk(id).next) {
    if (chunk(id).dirty) {
      // Dirty chunks are FHO data not yet flushed by the fs; the paper's
      // sizing argument (§3.4) says this should not be the LRU victim.
      ++stats_.dirty_skips;
      continue;
    }
    ++stats_.evictions;
    drop_chunk(id);
    return true;
  }
  return false;
}

std::optional<std::size_t> NetCentricCache::pin_chain(MsgBuffer& chain) {
  std::size_t pinned = 0;
  for (const auto& seg : chain.segments()) {
    const auto* b = std::get_if<netbuf::ByteSeg>(&seg);
    if (!b) return std::nullopt;  // only physical chains are cacheable
    if (b->buf->pool() == &pool_) continue;  // shared buffer already pinned
    std::size_t before = pool_.in_use();
    while (!pool_.adopt(*b->buf)) {
      if (!evict_one()) {
        ++stats_.insert_failures;
        return std::nullopt;
      }
    }
    pinned += pool_.in_use() - before;
  }
  return pinned;
}

bool NetCentricCache::insert_lbn(LbnKey key, MsgBuffer chain) {
  cpu_.charge(costs_.ncache_manage_ns);
  auto pinned = pin_chain(chain);
  if (!pinned) return false;
  // Pinning may have evicted the old chunk; then this is a fresh insert.
  if (const ChunkId* id = lbn_index_.find(key)) {
    // Fresh copy of a block we already hold: replace the chain.
    Chunk& c = chunk(*id);
    c.chain = std::move(chain);
    c.pinned = *pinned;
    c.inserted_at = stamp();
    touch(*id);
    ++stats_.lbn_inserts;
    return true;
  }
  ChunkId id = new_chunk();
  Chunk& c = chunk(id);
  c.chain = std::move(chain);
  c.lbn = key;
  c.pinned = *pinned;
  c.inserted_at = stamp();
  lbn_index_[key] = id;
  ++stats_.lbn_inserts;
  return true;
}

bool NetCentricCache::insert_fho(FhoKey key, MsgBuffer chain) {
  cpu_.charge(costs_.ncache_manage_ns);
  auto pinned = pin_chain(chain);
  if (!pinned) return false;
  if (const ChunkId* id = fho_index_.find(key)) {
    Chunk& c = chunk(*id);
    c.chain = std::move(chain);
    c.pinned = *pinned;
    c.dirty = true;
    c.inserted_at = stamp();
    touch(*id);
    ++stats_.fho_overwrites;
    return true;
  }
  // A re-write of a previously remapped block: drop the stale forwarding;
  // the FHO index now holds the freshest data and is consulted first.
  forward_.erase(key);
  ChunkId id = new_chunk();
  Chunk& c = chunk(id);
  c.chain = std::move(chain);
  c.fho = key;
  c.dirty = true;
  c.pinned = *pinned;
  c.inserted_at = stamp();
  fho_index_[key] = id;
  ++stats_.fho_inserts;
  return true;
}

const MsgBuffer* NetCentricCache::lookup(const CacheKey& key) {
  const ChunkId* id = nullptr;
  if (const auto* f = std::get_if<FhoKey>(&key)) {
    id = fho_index_.find(*f);
    if (!id) {
      if (const LbnKey* fwd = forward_.find(*f)) {
        id = lbn_index_.find(*fwd);
        if (id) ++stats_.forward_hits;
      }
    }
  } else {
    id = lbn_index_.find(std::get<LbnKey>(key));
  }
  if (!id) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  touch(*id);
  return &chunk(*id).chain;
}

bool NetCentricCache::contains_lbn(std::uint64_t lbn_block,
                                   std::uint32_t target) const {
  return lbn_index_.contains(LbnKey{target, lbn_block});
}

std::optional<sim::Time> NetCentricCache::lbn_inserted_at(
    std::uint64_t lbn_block, std::uint32_t target) const {
  const ChunkId* id = lbn_index_.find(LbnKey{target, lbn_block});
  if (!id) return std::nullopt;
  return chunk(*id).inserted_at;
}

std::vector<LbnKey> NetCentricCache::lbn_keys() const {
  std::vector<LbnKey> keys;
  keys.reserve(lbn_index_.size());
  lbn_index_.for_each(
      [&](const LbnKey& key, ChunkId) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end(), [](const LbnKey& a, const LbnKey& b) {
    return a.target != b.target ? a.target < b.target : a.lbn < b.lbn;
  });
  return keys;
}

bool NetCentricCache::invalidate_lbn(const LbnKey& key) {
  const ChunkId* id = lbn_index_.find(key);
  if (!id) return false;
  cpu_.charge(costs_.ncache_manage_ns);
  drop_chunk(*id);
  return true;
}

bool NetCentricCache::remap(FhoKey fho, LbnKey lbn) {
  cpu_.charge(costs_.ncache_manage_ns);
  const ChunkId* found = fho_index_.find(fho);
  if (!found) return false;
  ChunkId id = *found;
  fho_index_.erase(fho);

  // "If the LBN cache already has an entry with the same LBN, the FHO
  // cache entry is overwritten on it because data in the FHO cache is
  // always more up-to-date." (§3.4)
  if (const ChunkId* existing = lbn_index_.find(lbn)) {
    ++stats_.remap_overwrites;
    drop_chunk(*existing);
  }

  Chunk& c = chunk(id);
  c.lbn = lbn;
  c.fho = fho;  // retained for forwarding cleanup on eviction
  c.dirty = false;  // the triggering flush is writing it to storage
  c.inserted_at = stamp();  // remap refreshes: the flush just wrote it
  forward_[fho] = lbn;
  lbn_index_[lbn] = id;
  ++stats_.remaps;
  return true;
}

void NetCentricCache::clear() {
  while (lru_head_ != kNil) drop_chunk(lru_head_);
  forward_.clear();
}

void NetCentricCache::register_metrics(MetricRegistry& registry,
                                       const std::string& node,
                                       const std::string& prefix) {
  registry.counter(node, prefix + ".lbn_inserts", &stats_.lbn_inserts);
  registry.counter(node, prefix + ".fho_inserts", &stats_.fho_inserts);
  registry.counter(node, prefix + ".fho_overwrites", &stats_.fho_overwrites);
  registry.counter(node, prefix + ".remap_overwrites",
                   &stats_.remap_overwrites);
  registry.counter(node, prefix + ".hits", &stats_.hits);
  registry.counter(node, prefix + ".misses", &stats_.misses);
  registry.counter(node, prefix + ".remaps", &stats_.remaps);
  registry.counter(node, prefix + ".evictions", &stats_.evictions);
  registry.counter(node, prefix + ".dirty_skips", &stats_.dirty_skips);
  registry.counter(node, prefix + ".insert_failures", &stats_.insert_failures);
  registry.counter(node, prefix + ".forward_hits", &stats_.forward_hits);
  registry.gauge(node, prefix + ".chunk_count",
                 [this] { return double(chunk_count()); });
  registry.gauge(node, prefix + ".pinned_bytes",
                 [this] { return double(pinned_bytes()); });
  pool_.register_metrics(registry, node, prefix + ".pool");
}

}  // namespace ncache::core
