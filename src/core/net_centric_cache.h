// The network-centric buffer cache (§3.1, §3.4) — the paper's core data
// structure.
//
// Cached data lives as fixed-size chunks, each a chain of network buffers
// in wire-ready form, pinned in a BufferPool (driver-context allocation,
// §4.1). Two indexes identify chunks by their two possible origins:
//
//   * the LBN index — blocks that arrived from the iSCSI target, keyed by
//     logical block number;
//   * the FHO index — blocks that arrived in NFS WRITE requests, keyed by
//     file handle + offset (always dirty until remapped).
//
// Chunks are chained in one LRU list; every access moves a chunk to the
// MRU end. Both indexes and the remap forwarding table are open-addressing
// tables over a slab of chunks (common/flat_map.h). Reclamation frees clean chunks from the LRU head; dirty FHO
// chunks are skipped (the paper argues the much smaller fs cache always
// flushes — and thereby remaps — them first; we keep the invariant and
// count violations).
//
// remap() converts a dirty FHO chunk into a clean LBN chunk when the file
// system flushes the corresponding buffer (§3.4, Figure 3). A forwarding
// entry keeps the old FHO key resolvable while frames referencing it are
// still in flight, and to serve "read replies [that] contain both an FHO
// key and an LBN key" (§3.4).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/metrics.h"
#include "netbuf/cache_key.h"
#include "netbuf/msg_buffer.h"
#include "netbuf/net_buffer.h"
#include "sim/cost_model.h"
#include "sim/cpu_model.h"
#include "sim/timer_wheel.h"

namespace ncache::core {

struct NetCacheStats {
  std::uint64_t lbn_inserts = 0;
  std::uint64_t fho_inserts = 0;
  std::uint64_t fho_overwrites = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t remaps = 0;
  std::uint64_t remap_overwrites = 0;  ///< remap landed on an existing LBN
  std::uint64_t evictions = 0;
  std::uint64_t dirty_skips = 0;  ///< dirty FHO chunks passed over by LRU
  std::uint64_t insert_failures = 0;
  std::uint64_t forward_hits = 0;  ///< FHO keys resolved via remap forwarding
};

class NetCentricCache {
 public:
  struct Config {
    /// Pinned-memory budget (network buffers + per-buffer overhead). This
    /// memory is carved out of the machine; the fs buffer cache must be
    /// sized to what remains (§4.1 double-buffering control).
    std::size_t pool_budget_bytes = 64 << 20;
    /// Logical chunk payload size: one fs block.
    std::size_t chunk_bytes = 4096;
  };

  NetCentricCache(sim::CpuModel& cpu, const sim::CostModel& costs,
                  Config config);

  // ---- ingestion -------------------------------------------------------------
  /// Inserts a clean chunk arriving from the storage server. The chain's
  /// buffers are adopted (pinned) into the cache pool. Returns false when
  /// space cannot be reclaimed.
  bool insert_lbn(netbuf::LbnKey key, netbuf::MsgBuffer chain);

  /// Inserts a dirty chunk carried by an NFS WRITE. Overwrites any
  /// existing chunk under the same key ("data in the FHO cache is always
  /// more up-to-date", §3.4).
  bool insert_fho(netbuf::FhoKey key, netbuf::MsgBuffer chain);

  // ---- lookup ---------------------------------------------------------------
  /// Resolves a key to its cached chain, or nullptr on a miss. For FHO
  /// keys the FHO index is consulted first, then remap forwarding into the
  /// LBN index — the §3.4 freshness rule. Touches the LRU.
  ///
  /// The chain stays owned by the cache: the pointer is valid until the
  /// next call that inserts, remaps, invalidates, evicts or clears. Slice
  /// or copy it before doing any of those.
  const netbuf::MsgBuffer* lookup(const netbuf::CacheKey& key);

  /// Presence probe without LRU touch (used by the initiator's
  /// second-level-cache check).
  bool contains_lbn(std::uint64_t lbn_block, std::uint32_t target) const;

  /// When the chunk under (target, lbn) was last inserted or remapped, or
  /// nullopt when absent. Only meaningful with a clock attached; brownout's
  /// serve-stale tier uses it to bound the age of second-level hits.
  std::optional<sim::Time> lbn_inserted_at(std::uint64_t lbn_block,
                                           std::uint32_t target) const;

  /// Clock source for freshness stamps. Without one, stamps stay 0 — the
  /// cache itself never reads them, so fault-free runs are unaffected.
  void set_clock(std::function<sim::Time()> clock) { clock_ = std::move(clock); }

  /// Every LBN key currently cached, in ascending (target, lbn) order so
  /// callers iterate deterministically. Cluster peering walks this on a
  /// membership change to push chunks to their new hash owner.
  std::vector<netbuf::LbnKey> lbn_keys() const;

  /// Drops the chunk under `key` (peer write-invalidation). Returns false
  /// when not cached. In-flight frames referencing the chunk keep their
  /// buffer pins; only the cache's claim is released.
  bool invalidate_lbn(const netbuf::LbnKey& key);

  // ---- remapping -------------------------------------------------------------
  /// Moves the chunk under `fho` to the LBN index under `lbn`, marking it
  /// clean (the triggering flush is writing it to storage). Keeps a
  /// forwarding entry fho -> lbn. Returns false if `fho` is not cached.
  bool remap(netbuf::FhoKey fho, netbuf::LbnKey lbn);

  // ---- accounting ------------------------------------------------------------
  const NetCacheStats& stats() const noexcept { return stats_; }
  std::size_t chunk_count() const noexcept { return chunk_count_; }
  std::size_t pinned_bytes() const noexcept { return pool_.in_use(); }
  std::size_t budget_bytes() const noexcept { return pool_.budget(); }
  const Config& config() const noexcept { return config_; }

  /// Drops everything (tests / reconfiguration).
  void clear();

  /// Publishes <prefix>.* counters plus occupancy gauges under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node,
                        const std::string& prefix);

 private:
  /// Chunks live in a slab and are named by index: the indexes map keys to
  /// slab indices, and the LRU chain links indices (the index-linked LRU
  /// of an embedded buffer cache), so a hit costs one flat-table probe and
  /// no pointer chase through a node.
  using ChunkId = std::uint32_t;
  static constexpr ChunkId kNil = ~ChunkId(0);
  struct Chunk {
    netbuf::MsgBuffer chain;
    std::optional<netbuf::LbnKey> lbn;
    std::optional<netbuf::FhoKey> fho;
    bool dirty = false;
    std::size_t pinned = 0;  ///< bytes charged to the pool for this chunk
    sim::Time inserted_at = 0;  ///< freshness stamp (0 without a clock)
    ChunkId prev = kNil;  ///< LRU neighbours (kNil at the ends); `next`
    ChunkId next = kNil;  ///< also links the slab's free list
  };

  sim::Time stamp() const { return clock_ ? clock_() : 0; }

  /// Pins the chain's buffers into the pool; evicts LRU chunks as needed.
  /// Returns pinned byte count, or nullopt on failure.
  std::optional<std::size_t> pin_chain(netbuf::MsgBuffer& chain);
  bool evict_one();
  void drop_chunk(ChunkId id);

  Chunk& chunk(ChunkId id) noexcept {
    return slab_[id / kSlabBlock][id % kSlabBlock];
  }
  const Chunk& chunk(ChunkId id) const noexcept {
    return slab_[id / kSlabBlock][id % kSlabBlock];
  }
  /// A fresh chunk linked at the LRU's MRU end.
  ChunkId new_chunk();
  void lru_unlink(ChunkId id) noexcept;
  void lru_push_back(ChunkId id) noexcept;
  void touch(ChunkId id) noexcept {
    lru_unlink(id);
    lru_push_back(id);
  }

  sim::CpuModel& cpu_;
  const sim::CostModel& costs_;
  Config config_;
  netbuf::BufferPool pool_;

  FlatMap<netbuf::LbnKey, ChunkId, netbuf::LbnKeyHash> lbn_index_;
  FlatMap<netbuf::FhoKey, ChunkId, netbuf::FhoKeyHash> fho_index_;
  /// Remap forwarding: old FHO key -> current LBN key.
  FlatMap<netbuf::FhoKey, netbuf::LbnKey, netbuf::FhoKeyHash> forward_;

  /// Fixed-size blocks, so a chunk never moves once allocated and the
  /// slab grows without copying what it holds.
  static constexpr std::size_t kSlabBlock = 256;
  std::vector<std::unique_ptr<Chunk[]>> slab_;
  ChunkId free_ = kNil;       ///< free slab entries, linked through `next`
  ChunkId lru_head_ = kNil;   ///< least recently used
  ChunkId lru_tail_ = kNil;   ///< most recently used
  std::size_t chunk_count_ = 0;
  NetCacheStats stats_;
  std::function<sim::Time()> clock_;
};

}  // namespace ncache::core
