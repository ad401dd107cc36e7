// The paper's 4-node testbed (§5.2) as a preset over the topology API:
//
//   storage (P-III 1 GHz, 4-disk RAID-0, iSCSI target)
//      |
//   [NetGear GbE switch] -- clients (x2, P-III 1 GHz)
//      |
//   app server
//   (NFS / kHTTPd in one of the three modes,
//    iSCSI initiator, SimpleFS + buffer cache,
//    optional NCache module; 1 or 2 NICs)
//
// Testbed is a thin facade: it builds topo::presets::single_server and
// materializes it with topo::World — same-seed behavior is byte-identical
// with the historical hand-wired constructor (tests/topology_parity_test
// proves it). Tests, examples and every bench build on it; arbitrary
// graphs (multi-rack, lossy WAN trunks) go through topo::World directly.
//
// Metric node ids follow the unified topology scheme: "server0",
// "storage0", "client0".. — identical JSON keys across single-server and
// cluster worlds.
#pragma once

#include <memory>

#include "topo/instantiator.h"
#include "topo/presets.h"

namespace ncache::testbed {

using Node = topo::Node;

struct TestbedConfig {
  core::PassMode mode = core::PassMode::Original;

  // Topology.
  int server_nics = 1;  ///< 1 (Fig 5a) or 2 (Fig 5b)
  int client_count = 2;

  // Storage volume.
  std::uint64_t volume_blocks = 64 * 1024;  ///< 256 MB default
  std::uint32_t inode_count = 16 * 1024;

  // App-server caches.
  std::size_t fs_cache_blocks = 4096;       ///< 16 MB buffer cache
  std::size_t fs_readahead_blocks = 8;      ///< tuned per experiment (§5.4)
  std::size_t ncache_budget_bytes = 192u << 20;

  // §6 extension: wire-format block cache on the storage server.
  bool wire_format_target = false;
  std::size_t wire_target_budget_bytes = 96u << 20;

  // NFS.
  int nfs_daemons = 8;

  // Overload-control spine (all gates off by default — see WorldConfig).
  topo::WorldConfig::OverloadConfig overload;

  sim::CostModel costs{};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  /// Phase 1 (before start): populate the storage volume directly.
  fs::FsImageBuilder& image() { return world_.image(); }

  /// Phase 2: brings the system up — iSCSI login, fs mount, NFS server
  /// start. Runs the event loop until ready.
  void start_nfs() { world_.start_nfs(); }
  /// Same bring-up without an NFS server (kHTTPd attaches separately).
  void start_base() { world_.start_base(); }

  sim::EventLoop& loop() noexcept { return world_.loop(); }
  const TestbedConfig& config() const noexcept { return config_; }
  const sim::CostModel& costs() const noexcept { return config_.costs; }

  /// The materialized world behind this preset — fault plans, per-node
  /// cables and arbitrary-graph features live here.
  topo::World& world() noexcept { return world_; }

  Node& storage_node() noexcept { return world_.storage_node(); }
  Node& server_node() noexcept { return *world_.server(0).node; }
  Node& client_node(int i) { return world_.client_node(i); }
  int client_count() const noexcept { return world_.client_count(); }

  blockdev::BlockStore& store() noexcept { return world_.store(); }
  iscsi::IscsiTarget& target() noexcept { return world_.target(); }
  iscsi::IscsiInitiator& initiator() noexcept {
    return *world_.server(0).initiator;
  }
  fs::SimpleFs& fs() noexcept { return *world_.server(0).fs; }
  nfs::NfsServer& nfs_server() { return *world_.server(0).nfs; }
  core::NCacheModule* ncache() noexcept {
    return world_.server(0).ncache.get();
  }
  core::WireFormatTarget* wire_target() noexcept {
    return world_.wire_target();
  }
  proto::EthernetSwitch& ether_switch() noexcept { return world_.ether(); }

  /// Per-client NFS client handle. Client i binds to server NIC i %
  /// server_nics, spreading load across both NICs in the 2-NIC setup.
  nfs::NfsClient& nfs_client(int i) { return world_.nfs_client(i); }

  proto::Ipv4Addr server_ip(int nic = 0) const {
    return world_.server_ip(0, nic);
  }
  proto::Ipv4Addr client_ip(int i) const { return world_.client_ip(i); }
  static constexpr proto::Ipv4Addr kStorageIp = topo::World::kStorageIp;

  /// The testbed-wide metric registry. Every node/subsystem registers at
  /// construction (the NFS server at start_nfs); externally-attached
  /// servers (kHTTPd) register themselves via KHttpd::register_metrics.
  MetricRegistry& metrics() noexcept { return world_.metrics(); }
  const MetricRegistry& metrics() const noexcept { return world_.metrics(); }

  /// Starts a measurement window: the registry zeroes every counter and
  /// histogram, then restarts the utilization windows.
  void reset_stats() { world_.reset_stats(); }

  // ---- fault scenarios -------------------------------------------------------
  /// Power-fails the pass-through server (cables first, then sessions,
  /// daemons and caches — see topo::World::crash_server).
  void crash_server() { world_.crash_server(0); }
  /// Brings a crashed server back asynchronously. Safe to call from
  /// fault-plan callbacks while the loop is running.
  void restart_server() { world_.restart_server(0); }
  bool server_crashed() const noexcept { return world_.server_crashed(0); }

  /// Aggregate measurement snapshot over the window since reset_stats().
  /// A thin typed view over the registry — every field is readable by
  /// name from metrics() / its JSON export; this struct exists for
  /// ergonomic access from tests and benches.
  struct Snapshot {
    double elapsed_s = 0;
    double server_cpu = 0;   ///< utilization [0,1]
    double storage_cpu = 0;
    double client_cpu_max = 0;
    double server_link_util = 0;  ///< max across server NIC tx links
    std::uint64_t server_data_copies = 0;
    std::uint64_t server_logical_copies = 0;
    std::uint64_t nfs_requests = 0;
    std::uint64_t read_bytes_served = 0;
  };
  Snapshot snapshot(sim::Time window_start) const;

 private:
  static topo::WorldConfig world_config(const TestbedConfig& config);

  TestbedConfig config_;
  topo::World world_;
};

}  // namespace ncache::testbed
