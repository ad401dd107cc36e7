// The scale-out testbed: M clients × 1 load balancer × N pass-through
// replicas × 1 iSCSI target, all on one switch.
//
//   clients ---+
//   clients ---[switch]--- lb ---(NAT'd flows)--- replica0..N-1 --- storage
//
// ClusterTestbed is a thin preset over the topology API: it builds
// topo::presets::cluster and materializes it with topo::World, which
// attaches the full per-replica stack (initiator, SimpleFS + buffer
// cache, optional NCache module, PeerCache + PeerBlockClient, NFS server)
// and the balancer. Same-seed behavior is byte-identical with the
// historical hand-wired constructor (tests/topology_parity_test).
//
// Write coherence: every replica's NFS server gets a write observer that
// flushes the fs and broadcasts INVALIDATE for the dirtied LBNs — peers
// converge within one flush+invalidate round. Mutating workloads should
// route ContentHash (file-affine) so a file's writes serialize on one
// replica.
#pragma once

#include <memory>

#include "topo/instantiator.h"
#include "topo/presets.h"

namespace ncache::cluster {

struct ClusterConfig {
  core::PassMode mode = core::PassMode::Original;

  int server_count = 2;
  int client_count = 2;

  std::uint64_t volume_blocks = 64 * 1024;  ///< 256 MB default
  std::uint32_t inode_count = 16 * 1024;

  // Per-replica caches.
  std::size_t fs_cache_blocks = 4096;
  std::size_t fs_readahead_blocks = 8;
  std::size_t ncache_budget_bytes = 192u << 20;

  int nfs_daemons = 8;

  // Peering / balancing.
  bool peering = true;        ///< cooperative cache (forced off in Baseline)
  Routing routing = Routing::FlowHash;

  // Overload-control spine (all gates off by default — see WorldConfig).
  topo::WorldConfig::OverloadConfig overload;

  sim::CostModel costs{};
};

class ClusterTestbed {
 public:
  explicit ClusterTestbed(ClusterConfig config);

  /// Phase 1 (before start): populate the shared storage volume.
  fs::FsImageBuilder& image() { return world_.image(); }

  /// Phase 2: target up, every replica logs in and mounts, peering agents
  /// and NFS servers start, balancer starts, clients appear.
  void start_nfs() { world_.start_nfs(); }

  sim::EventLoop& loop() noexcept { return world_.loop(); }
  const ClusterConfig& config() const noexcept { return config_; }

  /// The materialized world behind this preset.
  topo::World& world() noexcept { return world_; }

  int server_count() const noexcept { return world_.server_count(); }
  int client_count() const noexcept { return world_.client_count(); }

  blockdev::BlockStore& store() noexcept { return world_.store(); }
  iscsi::IscsiTarget& target() noexcept { return world_.target(); }
  LoadBalancer& lb() noexcept { return *world_.lb(); }
  fs::SimpleFs& fs(int i) { return *world_.server(i).fs; }
  nfs::NfsServer& nfs_server(int i) { return *world_.server(i).nfs; }
  PeerCache& peers(int i) { return *world_.server(i).peers; }
  core::NCacheModule* ncache(int i) { return world_.server(i).ncache.get(); }
  iscsi::IscsiInitiator& initiator(int i) {
    return *world_.server(i).initiator;
  }
  nfs::NfsClient& nfs_client(int i) { return world_.nfs_client(i); }
  proto::EthernetSwitch& ether_switch() noexcept { return world_.ether(); }

  proto::Ipv4Addr replica_ip(int i) const { return world_.server_ip(i); }
  proto::Ipv4Addr client_ip(int i) const { return world_.client_ip(i); }
  static constexpr proto::Ipv4Addr kStorageIp = topo::World::kStorageIp;
  static constexpr proto::Ipv4Addr kLbIp = topo::World::kLbIp;

  MetricRegistry& metrics() noexcept { return world_.metrics(); }
  const MetricRegistry& metrics() const noexcept { return world_.metrics(); }
  void reset_stats() { world_.reset_stats(); }

  // ---- fault scenarios -------------------------------------------------------
  /// Power-fails replica `i` (cables drop first, then sessions, daemons
  /// and caches). The balancer detects the silence via heartbeats and
  /// rebalances the ring.
  void crash_replica(int i) { world_.crash_server(i); }
  /// Brings replica `i` back asynchronously; the balancer re-admits it on
  /// its first heartbeat ack.
  void restart_replica(int i) { world_.restart_server(i); }
  bool replica_crashed(int i) const { return world_.server_crashed(i); }

  /// Cluster-wide aggregates for benches/tests.
  std::uint64_t total_target_reads() const;
  std::uint64_t total_peer_hits() const;
  std::uint64_t total_peer_misses() const;

 private:
  static topo::WorldConfig world_config(const ClusterConfig& config);

  ClusterConfig config_;
  topo::World world_;
};

}  // namespace ncache::cluster
