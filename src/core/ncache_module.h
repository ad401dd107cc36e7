// The NCache kernel module (§4.1): glue between the network-centric cache
// and the rest of the pass-through server.
//
// Responsibilities, mirroring the paper's module boundaries:
//   * ingestion hooks wired into the iSCSI initiator (LBN data arriving
//     from storage) and the NFS server's write path (FHO data arriving
//     from clients) — the "modified read/write interfaces" of Table 1;
//   * the egress interceptor installed between the network stack and the
//     Ethernet driver, substituting cached chains for key-bearing frames
//     just before transmission (§3.2 step 6);
//   * the remap hook fired when the fs flushes a key-bearing dirty block
//     (§3.4);
//   * the second-level-cache probe letting the initiator satisfy fs-cache
//     misses from the LBN cache without touching the network (§3.4,
//     "acts as a second-level cache with respect to the file system
//     buffer cache").
#pragma once

#include <deque>
#include <optional>

#include "core/net_centric_cache.h"
#include "iscsi/initiator.h"
#include "proto/stack.h"

namespace ncache::core {

struct ModuleStats {
  std::uint64_t frames_substituted = 0;
  std::uint64_t keys_substituted = 0;
  std::uint64_t substitution_misses = 0;  ///< key evicted before egress
  std::uint64_t frames_passed = 0;        ///< frames with no keys (metadata)
  std::uint64_t cross_core_handoffs = 0;  ///< key owned by another core (SMP)
  std::uint64_t second_level_hits = 0;    ///< initiator reads served locally
  std::uint64_t degrade_entries = 0;      ///< times the module fell back
  std::uint64_t degrade_exits = 0;        ///< times it recovered
  std::uint64_t degraded_ingest_bypass = 0;  ///< ingests served physically
  std::uint64_t brownout_escalations = 0;    ///< tier steps up
  std::uint64_t brownout_deescalations = 0;  ///< tier steps down (one at a time)
  std::uint64_t brownout_stale_hits = 0;  ///< ServeStale probes within TTL
};

/// Degradation ladder. Tiers are ordered by severity; each keeps
/// everything the previous tier gave up and sheds more:
///   Normal       — full NCache operation;
///   ServeStale   — ingestion bypassed (relieves pool pressure); the
///                  second-level probe still answers from cache, but only
///                  for chunks younger than `stale_ttl`;
///   PhysicalCopy — the degraded mode: the paper's Original path, physical
///                  copies everywhere, probe disabled;
///   Shed         — additionally tells the NFS server (via its shed probe)
///                  to drop incoming data ops at the door.
enum class BrownoutTier { Normal = 0, ServeStale = 1, PhysicalCopy = 2, Shed = 3 };

/// When the module climbs and descends the ladder. Pressure events (pool
/// insert failures, substitution misses) accumulate in a rolling
/// `pressure_window`, and the window count enters the highest tier whose
/// threshold it reaches. Escalation is immediate and can skip tiers; the
/// window is not cleared on escalation, so sustained pressure keeps
/// climbing. Recovery steps down one tier at a time, each step gated by
/// `min_dwell` since the last change plus `quiet_period` with no pressure —
/// the hysteresis that prevents flapping. A tier without a threshold is
/// skipped both ways.
///
/// The default is the physical-copy fallback alone: 8 events in 50 ms trip
/// it, and it recovers after a 200 ms dwell and 100 ms of quiet.
struct LadderConfig {
  std::optional<std::size_t> serve_stale_at;        ///< window count entering ServeStale
  std::optional<std::size_t> physical_copy_at = 8;  ///< entering PhysicalCopy
  std::optional<std::size_t> shed_at;               ///< entering Shed
  sim::Duration pressure_window = 50 * sim::kMillisecond;
  sim::Duration stale_ttl = 500 * sim::kMillisecond;  ///< ServeStale age bound
  sim::Duration min_dwell = 200 * sim::kMillisecond;
  sim::Duration quiet_period = 100 * sim::kMillisecond;
};

/// The full four-tier brownout ladder.
inline constexpr LadderConfig kBrownoutLadder{
    .serve_stale_at = 8, .physical_copy_at = 16, .shed_at = 32};

class NCacheModule {
 public:
  NCacheModule(proto::NetworkStack& stack, NetCentricCache::Config config);

  /// Installs the egress interceptor on every NIC of the host stack.
  void attach_egress();

  /// Wires the initiator's NCache seams: payload policy, LBN ingestion,
  /// remap-on-flush, and the second-level-cache probe.
  void attach_initiator(iscsi::IscsiInitiator& initiator);

  // ---- hooks (also callable directly; the NFS/Web servers use these) --------
  /// Ingests a physical chain for fs block `lbn`; returns the key-bearing
  /// message that travels up instead. Falls back to the physical chain if
  /// the cache cannot take it.
  netbuf::MsgBuffer ingest_lbn(std::uint32_t target, std::uint64_t lbn,
                               netbuf::MsgBuffer chain);

  /// Ingests an NFS WRITE payload block; returns the key message.
  netbuf::MsgBuffer ingest_fho(netbuf::FhoKey key, netbuf::MsgBuffer chain);

  /// Remaps every FHO key in a flushed block payload to its disk LBN.
  void remap_on_flush(std::uint32_t target, std::uint64_t lbn,
                      const netbuf::MsgBuffer& payload);

  /// The egress frame filter: materializes KeySegs from the cache. Never
  /// drops frames; unresolvable keys become junk (and are counted).
  bool egress_filter(proto::Frame& frame);

  NetCentricCache& cache() noexcept { return cache_; }
  const ModuleStats& stats() const noexcept { return stats_; }

  /// In PhysicalCopy or above.
  bool degraded() const noexcept { return tier_ >= BrownoutTier::PhysicalCopy; }
  /// Time spent degraded in the current measurement window, including the
  /// stretch still open.
  sim::Duration degraded_ns() const noexcept;

  /// Configure before register_metrics (the ncache.brownout.* rows register
  /// only with a ServeStale or Shed tier, preserving byte-identity of runs
  /// that use the plain physical-copy fallback).
  LadderConfig& ladder_config() noexcept { return ladder_; }
  BrownoutTier brownout_tier() const noexcept { return tier_; }
  bool shed_active() const noexcept { return tier_ == BrownoutTier::Shed; }
  /// The NFS server's shed probe: gives recovery a chance to run (the
  /// ladder is checked lazily, on hook calls) and reports whether the
  /// top tier is active.
  bool shed_probe() {
    maybe_recover();
    return shed_active();
  }

  /// Publishes ncache.* module counters (and the underlying cache's
  /// counters/gauges) under `node`; hooks the degraded-time window into
  /// the registry reset.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  /// Records one pressure event (insert failure / substitution miss) and
  /// escalates to the highest tier the rolling window reaches.
  void note_pressure();
  /// Lazy recovery check on every hook call: step down one tier once the
  /// dwell and quiet conditions hold.
  void maybe_recover();
  void set_tier(BrownoutTier tier, sim::Time now);
  /// Whether ingestion should fall back to the physical-copy path.
  bool ingest_bypass() const noexcept { return tier_ != BrownoutTier::Normal; }

  proto::NetworkStack& stack_;
  NetCentricCache cache_;
  ModuleStats stats_;

  LadderConfig ladder_;
  BrownoutTier tier_ = BrownoutTier::Normal;
  sim::Time tier_since_ = 0;
  std::deque<sim::Time> pressure_events_;  ///< rolling window
  sim::Time degraded_since_ = 0;
  sim::Time last_pressure_ = 0;
  /// Closed degraded stretches since window_start_ (the part inside it).
  sim::Duration degraded_total_ns_ = 0;
  sim::Time window_start_ = 0;
};

}  // namespace ncache::core
