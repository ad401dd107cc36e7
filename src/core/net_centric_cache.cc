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

void NetCentricCache::drop_chunk(Chunk& c) {
  lru_.remove(c);
  if (c.fho && forward_.contains(*c.fho)) forward_.erase(*c.fho);
  // Erasing from the owning index destroys the chunk; buffers unpin as
  // their last reference (cache or in-flight frame) goes away.
  if (c.lbn) {
    lbn_index_.erase(*c.lbn);
  } else if (c.fho) {
    fho_index_.erase(*c.fho);
  }
}

bool NetCentricCache::evict_one() {
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    Chunk& c = *it;
    if (c.dirty) {
      // Dirty chunks are FHO data not yet flushed by the fs; the paper's
      // sizing argument (§3.4) says this should not be the LRU victim.
      ++stats_.dirty_skips;
      continue;
    }
    ++stats_.evictions;
    drop_chunk(c);
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
  auto it = lbn_index_.find(key);
  if (it != lbn_index_.end()) {
    // Fresh copy of a block we already hold: replace the chain.
    auto pinned = pin_chain(chain);
    if (!pinned) return false;
    it->second->chain = std::move(chain);
    it->second->pinned = *pinned;
    it->second->inserted_at = stamp();
    touch(*it->second);
    ++stats_.lbn_inserts;
    return true;
  }
  auto pinned = pin_chain(chain);
  if (!pinned) return false;
  auto chunk = std::make_unique<Chunk>();
  chunk->chain = std::move(chain);
  chunk->lbn = key;
  chunk->pinned = *pinned;
  chunk->inserted_at = stamp();
  lru_.push_back(*chunk);
  lbn_index_.emplace(key, std::move(chunk));
  ++stats_.lbn_inserts;
  return true;
}

bool NetCentricCache::insert_fho(FhoKey key, MsgBuffer chain) {
  cpu_.charge(costs_.ncache_manage_ns);
  auto pinned = pin_chain(chain);
  if (!pinned) return false;
  auto it = fho_index_.find(key);
  if (it != fho_index_.end()) {
    it->second->chain = std::move(chain);
    it->second->pinned = *pinned;
    it->second->dirty = true;
    it->second->inserted_at = stamp();
    touch(*it->second);
    ++stats_.fho_overwrites;
    return true;
  }
  // A re-write of a previously remapped block: drop the stale forwarding;
  // the FHO index now holds the freshest data and is consulted first.
  forward_.erase(key);
  auto chunk = std::make_unique<Chunk>();
  chunk->chain = std::move(chain);
  chunk->fho = key;
  chunk->dirty = true;
  chunk->pinned = *pinned;
  chunk->inserted_at = stamp();
  lru_.push_back(*chunk);
  fho_index_.emplace(key, std::move(chunk));
  ++stats_.fho_inserts;
  return true;
}

const MsgBuffer* NetCentricCache::lookup(const CacheKey& key) {
  if (const auto* f = std::get_if<FhoKey>(&key)) {
    auto it = fho_index_.find(*f);
    if (it != fho_index_.end()) {
      ++stats_.hits;
      touch(*it->second);
      return &it->second->chain;
    }
    auto fwd = forward_.find(*f);
    if (fwd != forward_.end()) {
      auto lit = lbn_index_.find(fwd->second);
      if (lit != lbn_index_.end()) {
        ++stats_.hits;
        ++stats_.forward_hits;
        touch(*lit->second);
        return &lit->second->chain;
      }
    }
    ++stats_.misses;
    return nullptr;
  }
  const auto& l = std::get<LbnKey>(key);
  auto it = lbn_index_.find(l);
  if (it == lbn_index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  touch(*it->second);
  return &it->second->chain;
}

bool NetCentricCache::contains_lbn(std::uint64_t lbn_block,
                                   std::uint32_t target) const {
  return lbn_index_.contains(LbnKey{target, lbn_block});
}

std::optional<sim::Time> NetCentricCache::lbn_inserted_at(
    std::uint64_t lbn_block, std::uint32_t target) const {
  auto it = lbn_index_.find(LbnKey{target, lbn_block});
  if (it == lbn_index_.end()) return std::nullopt;
  return it->second->inserted_at;
}

std::vector<LbnKey> NetCentricCache::lbn_keys() const {
  std::vector<LbnKey> keys;
  keys.reserve(lbn_index_.size());
  for (const auto& [key, chunk] : lbn_index_) keys.push_back(key);
  std::sort(keys.begin(), keys.end(), [](const LbnKey& a, const LbnKey& b) {
    return a.target != b.target ? a.target < b.target : a.lbn < b.lbn;
  });
  return keys;
}

bool NetCentricCache::invalidate_lbn(const LbnKey& key) {
  auto it = lbn_index_.find(key);
  if (it == lbn_index_.end()) return false;
  cpu_.charge(costs_.ncache_manage_ns);
  drop_chunk(*it->second);
  return true;
}

bool NetCentricCache::remap(FhoKey fho, LbnKey lbn) {
  cpu_.charge(costs_.ncache_manage_ns);
  auto it = fho_index_.find(fho);
  if (it == fho_index_.end()) return false;

  std::unique_ptr<Chunk> chunk = std::move(it->second);
  fho_index_.erase(it);

  // "If the LBN cache already has an entry with the same LBN, the FHO
  // cache entry is overwritten on it because data in the FHO cache is
  // always more up-to-date." (§3.4)
  auto existing = lbn_index_.find(lbn);
  if (existing != lbn_index_.end()) {
    ++stats_.remap_overwrites;
    drop_chunk(*existing->second);
  }

  chunk->lbn = lbn;
  chunk->fho = fho;  // retained for forwarding cleanup on eviction
  chunk->dirty = false;  // the triggering flush is writing it to storage
  chunk->inserted_at = stamp();  // remap refreshes: the flush just wrote it
  forward_[fho] = lbn;
  lbn_index_.emplace(lbn, std::move(chunk));
  ++stats_.remaps;
  return true;
}

void NetCentricCache::clear() {
  while (Chunk* c = lru_.front()) drop_chunk(*c);
  forward_.clear();
}

void NetCentricCache::register_metrics(MetricRegistry& registry,
                                       const std::string& node,
                                       const std::string& prefix) {
  registry.counter(node, prefix + ".lbn_inserts",
                   [this] { return stats_.lbn_inserts; });
  registry.counter(node, prefix + ".fho_inserts",
                   [this] { return stats_.fho_inserts; });
  registry.counter(node, prefix + ".fho_overwrites",
                   [this] { return stats_.fho_overwrites; });
  registry.counter(node, prefix + ".remap_overwrites",
                   [this] { return stats_.remap_overwrites; });
  registry.counter(node, prefix + ".hits", [this] { return stats_.hits; });
  registry.counter(node, prefix + ".misses", [this] { return stats_.misses; });
  registry.counter(node, prefix + ".remaps", [this] { return stats_.remaps; });
  registry.counter(node, prefix + ".evictions",
                   [this] { return stats_.evictions; });
  registry.counter(node, prefix + ".dirty_skips",
                   [this] { return stats_.dirty_skips; });
  registry.counter(node, prefix + ".insert_failures",
                   [this] { return stats_.insert_failures; });
  registry.counter(node, prefix + ".forward_hits",
                   [this] { return stats_.forward_hits; });
  registry.gauge(node, prefix + ".chunk_count",
                 [this] { return double(chunk_count()); });
  registry.gauge(node, prefix + ".pinned_bytes",
                 [this] { return double(pinned_bytes()); });
  pool_.register_metrics(registry, node, prefix + ".pool");
  registry.on_reset([this] { reset_stats(); });
}

}  // namespace ncache::core
