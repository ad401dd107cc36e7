// Instantiator: materializes a Topology into a live simulated world.
//
// One construction path for every shape the repo runs — the paper's 4-node
// testbed, the M×N×1 scale-out cluster, and anything else a Topology can
// describe (e.g. two racks joined by a WAN trunk). Testbed and
// ClusterTestbed are thin presets over this class.
//
// What instantiation does, in deterministic order:
//
//   1. Switches are created in declaration order; switch-switch edges
//      become trunks with the edge's link profile.
//   2. Hosts are created and cabled in declaration order; a host's edges
//      (in declaration order) are its NICs. Addresses follow the classic
//      testbed conventions so same-seed runs are byte-identical with the
//      historical hand-wired constructors:
//        target    10.0.0.1     MAC 0x10
//        balancer  10.0.0.5     MAC 0x50
//        servers   10.0.0.10+s  MAC 0x20+s   (s = global server-NIC slot)
//        clients   10.0.0.100+i MAC 0x30+i
//   3. Role stacks attach: the target node gets the BlockStore +
//      FsImageBuilder + IscsiTarget (+ optional wire-format cache); each
//      server gets an initiator, the PassMode policy (Original / NCache /
//      Baseline), a SimpleFs, and — when a balancer exists — a PeerCache
//      and PeerBlockClient; the balancer node gets the LoadBalancer.
//   4. Every subsystem registers metrics under its topology node id
//      ("server0", "storage0", "lb0", "client3"), giving identical JSON
//      keys across single-server and cluster worlds. A seeded
//      FaultInjector is attached ("faults" node) and lossy edges get
//      deterministic Bernoulli drop hooks derived from the same seed.
//
// start_nfs() brings the world up in the canonical order: image finish,
// target start, per-server iSCSI login + mount, per-server peering agent +
// NFS server start, balancer start, NFS clients bind (to the VIP when a
// balancer exists, else round-robin over server0's NICs, source port
// 700+i). crash_server()/restart_server() keep the cables-first crash
// discipline.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blockdev/block_store.h"
#include "cluster/load_balancer.h"
#include "cluster/peer_cache.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "common/rng.h"
#include "core/ncache_module.h"
#include "core/wire_target.h"
#include "fault/fault_injector.h"
#include "fs/image_builder.h"
#include "fs/simple_fs.h"
#include "iscsi/initiator.h"
#include "iscsi/target.h"
#include "nfs/client.h"
#include "nfs/server.h"
#include "proto/switch.h"
#include "sim/parallel.h"
#include "topo/node.h"
#include "topo/topology.h"

namespace ncache::topo {

/// Runtime knobs — everything about a world that is not its shape.
/// (The Topology says *what is wired to what*; WorldConfig says how the
/// software on top behaves.)
struct WorldConfig {
  core::PassMode mode = core::PassMode::Original;

  // SMP: run-queue count for every server CPU; a server node's `cores=`
  // attribute overrides this per node. 1 = the paper's single-CPU
  // pass-through server (byte-identical to the historical model).
  unsigned server_cores = 1;

  // Partitioned simulation: one event-loop domain per switch (per rack),
  // driven through engine().run()/run_until(). Requires every host's NICs
  // to cable into a single switch. false = classic single-loop world
  // driven via loop().
  bool partitioned = false;
  /// Read by nothing: the engine runs every domain on the calling thread.
  /// Its only writer is perfbench/driver/workloads.cc:433; the field goes
  /// when that line does.
  unsigned threads = 1;

  // Cooperative NCache peering between servers of a balancer-less
  // multi-server world (e.g. presets::cluster_racks, where each rack's
  // clients bind to their rack server directly). Balancer worlds always
  // get peering (subject to `peering` below).
  bool peer_without_balancer = false;

  // Storage volume.
  std::uint64_t volume_blocks = 64 * 1024;  ///< 256 MB default
  std::uint32_t inode_count = 16 * 1024;

  // Per-server caches.
  std::size_t fs_cache_blocks = 4096;
  std::size_t fs_readahead_blocks = 8;
  std::size_t ncache_budget_bytes = 192u << 20;

  // §6 extension: wire-format block cache on the storage server.
  bool wire_format_target = false;
  std::size_t wire_target_budget_bytes = 96u << 20;

  int nfs_daemons = 8;

  // Cluster knobs — consulted only when the topology has a balancer.
  bool peering = true;  ///< cooperative cache (forced off in Baseline)
  cluster::Routing routing = cluster::Routing::FlowHash;

  /// Seeds the world's FaultInjector and the loss hooks of lossy edges.
  std::uint64_t fault_seed = 1;

  /// The overload-control spine. Every gate defaults off; a world built
  /// with this struct untouched is byte-identical (event streams and
  /// metrics JSON) to one built before the spine existed.
  struct OverloadConfig {
    bool server_queue = false;     ///< NFS CoDel shedding + metadata priority
    bool admission = false;        ///< AIMD token bucket at the balancer VIP
    bool qdepth_feedback = false;  ///< replica queue depth on heartbeat acks
    bool retry_budget = false;     ///< per-node budgets (NFS/iSCSI/peer paths)

    overload::CoDelState::Config codel;  ///< server queue discipline
    std::size_t nfs_queue_limit = 8192;  ///< hard bound (always enforced)
    overload::AimdRate::Config aimd;     ///< admission controller
    std::uint32_t admission_qdepth_high = 16;  ///< congestion signal level
    overload::RetryBudget::Config budget;
    /// NCache's degradation ladder. The default is the physical-copy
    /// fallback alone; core::kBrownoutLadder adds ServeStale and Shed, and
    /// a Shed tier also installs the NFS server's shed probe.
    core::LadderConfig ncache_ladder;
  };
  OverloadConfig overload;

  sim::CostModel costs{};
};

class World {
 public:
  /// Validates `topo` and materializes it (throws TopologyError on a
  /// malformed graph).
  World(Topology topo, WorldConfig config);

  /// Everything attached to one server node.
  struct ServerStack {
    std::string id;  ///< topology node id ("server0")
    Node* node = nullptr;
    std::unique_ptr<iscsi::IscsiInitiator> initiator;
    std::unique_ptr<core::NCacheModule> ncache;           ///< NCache mode only
    std::unique_ptr<cluster::PeerCache> peers;            ///< balancer worlds
    std::unique_ptr<cluster::PeerBlockClient> block_client;
    std::unique_ptr<fs::SimpleFs> fs;
    std::unique_ptr<nfs::NfsServer> nfs;  ///< created in start_nfs()
    /// Node-wide retry budget (overload.retry_budget): the initiator and
    /// peer retransmit paths on this node share it.
    std::unique_ptr<overload::RetryBudget> retry_budget;
    bool crashed = false;
  };

  // ---- bring-up --------------------------------------------------------------
  /// Phase 1 (before start): populate the storage volume directly.
  fs::FsImageBuilder& image() { return *image_; }
  /// Target up, every server logs in and mounts. No NFS (kHTTPd and other
  /// app servers attach externally).
  void start_base();
  /// start_base() + peering agents, NFS servers, balancer, NFS clients.
  void start_nfs();

  // ---- graph access ----------------------------------------------------------
  /// The world's event loop (single-loop worlds only; a partitioned world
  /// has one loop per domain — drive it through engine()).
  sim::EventLoop& loop() {
    if (engine_) {
      throw std::logic_error(
          "World::loop(): world is partitioned; drive it via engine()");
    }
    return loop_;
  }
  const sim::EventLoop& loop() const {
    if (engine_) {
      throw std::logic_error(
          "World::loop(): world is partitioned; drive it via engine()");
    }
    return loop_;
  }

  /// The parallel engine of a partitioned world; throws when the world
  /// was built with partitioned = false.
  sim::ParallelEngine& engine() {
    if (!engine_) {
      throw std::logic_error("World::engine(): world is not partitioned");
    }
    return *engine_;
  }
  bool partitioned() const noexcept { return engine_ != nullptr; }
  /// Domain id of a host or switch node (partitioned worlds).
  unsigned domain_of(std::string_view node_id) const;
  const Topology& topology() const noexcept { return topo_; }
  const WorldConfig& config() const noexcept { return config_; }
  const sim::CostModel& costs() const noexcept { return config_.costs; }

  /// Host node by topology id; throws std::out_of_range on unknown ids
  /// (switches are not hosts — see ether()).
  Node& node(std::string_view id);
  proto::EthernetSwitch& ether(std::string_view id);
  /// The first-declared switch (every legacy shape has exactly one).
  proto::EthernetSwitch& ether() { return *switch_order_.front(); }
  /// The cable behind `host_id`'s nic-th NIC.
  sim::DuplexLink& cable(std::string_view host_id, std::size_t nic = 0);
  /// The trunk cable between two switches.
  sim::DuplexLink& trunk(std::string_view a, std::string_view b);

  // ---- roles -----------------------------------------------------------------
  int server_count() const noexcept { return int(servers_.size()); }
  int client_count() const noexcept { return int(clients_.size()); }

  ServerStack& server(int i) { return *servers_.at(std::size_t(i)); }
  const ServerStack& server(int i) const {
    return *servers_.at(std::size_t(i));
  }
  Node& client_node(int i) { return *clients_.at(std::size_t(i))->node; }
  /// Created by start_nfs().
  nfs::NfsClient& nfs_client(int i) { return *nfs_clients_.at(std::size_t(i)); }

  Node& storage_node() noexcept { return *storage_->node; }
  blockdev::BlockStore& store() noexcept { return *store_; }
  iscsi::IscsiTarget& target() noexcept { return *target_; }
  const iscsi::IscsiTarget& target() const noexcept { return *target_; }
  core::WireFormatTarget* wire_target() noexcept { return wire_target_.get(); }
  /// Null when the topology has no balancer.
  cluster::LoadBalancer* lb() noexcept { return lb_.get(); }

  proto::Ipv4Addr storage_ip() const noexcept { return kStorageIp; }
  /// The balancer VIP; 0 when the topology has no balancer.
  proto::Ipv4Addr vip() const noexcept { return lb_ ? kLbIp : 0; }
  proto::Ipv4Addr server_ip(int i, int nic = 0) const;
  proto::Ipv4Addr client_ip(int i) const;

  static constexpr proto::Ipv4Addr kStorageIp = proto::make_ipv4(10, 0, 0, 1);
  static constexpr proto::Ipv4Addr kLbIp = proto::make_ipv4(10, 0, 0, 5);

  // ---- observability / faults ------------------------------------------------
  MetricRegistry& metrics() noexcept { return metrics_; }
  const MetricRegistry& metrics() const noexcept { return metrics_; }
  void reset_stats() { metrics_.reset_all(); }

  /// The world's seeded injector (registered under the "faults" node);
  /// FaultPlans apply here.
  fault::FaultInjector& faults() noexcept { return *faults_; }

  // ---- fault scenarios -------------------------------------------------------
  /// Resolves the set of link cuts that isolates `side` — a list of
  /// topology ids naming switches (whole racks) and/or hosts — from the
  /// rest of the world. Trunks crossing the boundary and the NIC cables
  /// of listed hosts are cut; `one_way` cuts only the directions that
  /// deliver *into* the side (an asymmetric failure: the side still
  /// transmits, but hears nothing). In a partitioned world each cut
  /// carries its owning domain loop, so the resulting Partition is safe
  /// under the ParallelEngine. Throws TopologyError when the side has no
  /// crossing links (nothing would be isolated).
  fault::Partition make_partition(const std::vector<std::string>& side,
                                  bool one_way = false);

  /// Power-fails server `i`: cables down first (on every fabric a
  /// multi-homed server touches), then peering agent, iSCSI session, NFS
  /// daemons, and caches. Metric registrations survive.
  void crash_server(int i);
  /// Brings server `i` back asynchronously: cables up, iSCSI re-login,
  /// peering + NFS daemons relaunch. Safe from fault-plan callbacks.
  void restart_server(int i);
  bool server_crashed(int i) const { return servers_.at(std::size_t(i))->crashed; }

 private:
  struct Host {
    const NodeSpec* spec = nullptr;
    std::unique_ptr<Node> node;
    /// Per-NIC switch, parallel to the stack's NICs (multi-rack servers
    /// cable into different fabrics).
    std::vector<proto::EthernetSwitch*> nic_switch;
    /// The event loop this host's models run on (a domain loop in a
    /// partitioned world, loop_ otherwise).
    sim::EventLoop* loop = nullptr;
  };

  void build_domains();
  void build_fabric();
  void build_hosts();
  void build_roles();
  void register_all_metrics();
  void set_host_cables(Host& host, bool up);

  Host& host(std::string_view id);
  sim::EventLoop& loop_of(const NodeSpec& n);
  Task<void> bring_up_server(int i);
  Task<void> bring_up_counted(int i, int* remaining);
  Task<void> restart_task(int i);
  Task<void> write_coherence_task(int i, std::uint64_t fh,
                                  std::uint64_t offset, std::uint32_t count);

  Topology topo_;
  WorldConfig config_;
  sim::EventLoop loop_;
  /// Partitioned worlds: one loop per switch domain (declaration order),
  /// and the engine that drives them.
  std::vector<std::unique_ptr<sim::EventLoop>> domain_loops_;
  std::unique_ptr<sim::ParallelEngine> engine_;
  std::unordered_map<std::string, unsigned> switch_domain_;
  std::shared_ptr<proto::AddressBook> book_;

  std::unordered_map<std::string, std::unique_ptr<proto::EthernetSwitch>>
      switches_;
  std::vector<proto::EthernetSwitch*> switch_order_;
  std::unordered_map<std::string, Host> hosts_;
  std::vector<Host*> host_order_;

  Host* storage_ = nullptr;
  Host* lb_host_ = nullptr;
  std::vector<std::unique_ptr<ServerStack>> servers_;
  std::vector<Host*> clients_;
  /// First-NIC IP per server, in declaration order (the peer/member list).
  std::vector<proto::Ipv4Addr> server_ips_;

  std::unique_ptr<blockdev::BlockStore> store_;
  std::unique_ptr<fs::FsImageBuilder> image_;
  std::unique_ptr<iscsi::IscsiTarget> target_;
  std::unique_ptr<core::WireFormatTarget> wire_target_;
  std::unique_ptr<cluster::LoadBalancer> lb_;
  std::vector<std::unique_ptr<nfs::NfsClient>> nfs_clients_;
  /// One budget per client node (overload.retry_budget).
  std::vector<std::unique_ptr<overload::RetryBudget>> client_budgets_;

  std::unique_ptr<fault::FaultInjector> faults_;
  /// One deterministic RNG per lossy link direction (seeded from
  /// fault_seed + ordinal), kept alive for the drop hooks.
  std::vector<std::unique_ptr<Pcg32>> loss_rngs_;

  bool started_ = false;

  /// Declared last: its counter cells and sampling callbacks point into
  /// the members above, so the registry must never outlive them.
  MetricRegistry metrics_;
};

}  // namespace ncache::topo
