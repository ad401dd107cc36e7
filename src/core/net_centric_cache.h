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
// MRU end. Reclamation frees clean chunks from the LRU head; dirty FHO
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
#include <optional>
#include <unordered_map>

#include "common/intrusive_list.h"
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
  void reset_stats() noexcept { stats_ = NetCacheStats{}; }
  std::size_t chunk_count() const noexcept { return lru_.size(); }
  std::size_t pinned_bytes() const noexcept { return pool_.in_use(); }
  std::size_t budget_bytes() const noexcept { return pool_.budget(); }
  const Config& config() const noexcept { return config_; }

  /// Drops everything (tests / reconfiguration).
  void clear();

  /// Publishes <prefix>.* counters plus occupancy gauges under `node` and
  /// hooks reset_stats() into the registry reset.
  void register_metrics(MetricRegistry& registry, const std::string& node,
                        const std::string& prefix);

 private:
  struct Chunk : ListHook {
    netbuf::MsgBuffer chain;
    std::optional<netbuf::LbnKey> lbn;
    std::optional<netbuf::FhoKey> fho;
    bool dirty = false;
    std::size_t pinned = 0;  ///< bytes charged to the pool for this chunk
    sim::Time inserted_at = 0;  ///< freshness stamp (0 without a clock)
  };

  sim::Time stamp() const { return clock_ ? clock_() : 0; }

  /// Pins the chain's buffers into the pool; evicts LRU chunks as needed.
  /// Returns pinned byte count, or nullopt on failure.
  std::optional<std::size_t> pin_chain(netbuf::MsgBuffer& chain);
  bool evict_one();
  void drop_chunk(Chunk& c);
  void touch(Chunk& c) { lru_.move_to_back(c); }

  sim::CpuModel& cpu_;
  const sim::CostModel& costs_;
  Config config_;
  netbuf::BufferPool pool_;

  std::unordered_map<netbuf::LbnKey, std::unique_ptr<Chunk>,
                     netbuf::LbnKeyHash>
      lbn_index_;
  std::unordered_map<netbuf::FhoKey, std::unique_ptr<Chunk>,
                     netbuf::FhoKeyHash>
      fho_index_;
  /// Remap forwarding: old FHO key -> current LBN key.
  std::unordered_map<netbuf::FhoKey, netbuf::LbnKey, netbuf::FhoKeyHash>
      forward_;

  IntrusiveList<Chunk> lru_;
  NetCacheStats stats_;
  std::function<sim::Time()> clock_;
};

}  // namespace ncache::core
