// L4 full-proxy load balancer for the scale-out cluster.
//
// A dedicated sim node that owns the cluster's client-facing IP. Client
// NFS requests arrive on the service port; the balancer picks a replica —
// by flow hash (client ip:port) or by *content* hash (the file handle all
// NFS call bodies carry at a fixed offset, giving file-affine routing that
// concentrates each file's working set on one replica) — and forwards the
// datagram through a NAT'd flow: the replica sees the balancer as the
// client and replies to a per-flow NAT port, where the reply is forwarded
// back to the real client. NFS clients match replies by XID only, so the
// proxy is invisible to them.
//
// Forwarding is L4 cut-through: the MsgBuffer is re-sent, not copied — the
// balancer charges no per-byte CPU, matching a switch-resident or
// SmartNIC-style appliance.
//
// The balancer is also the cluster's failure detector: it heartbeats every
// replica's peering agent; `heartbeat_miss_limit` silent intervals mark a
// replica dead, drop it from the ring, and broadcast an epoch-numbered
// MEMBERSHIP update so every peering agent rebuilds the same ring. A dead
// replica is only re-admitted after answering `readmit_quiet_rounds`
// consecutive probes (a quiet period) — a merely-lossy trunk that drops
// every third ack can therefore suspend a replica once, but cannot flap
// the ring on every lucky ack. Suppressed flaps are metered. Epochs are
// compared with serial-number (RFC 1982) arithmetic on the agent side, so
// the u32 counter wraps seamlessly.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/hash_ring.h"
#include "cluster/peer_cache.h"
#include "common/overload.h"
#include "proto/stack.h"

namespace ncache::cluster {

enum class Routing {
  FlowHash,     ///< hash(client ip:port): flow-sticky, content-blind
  ContentHash,  ///< hash(NFS file handle): file-affine (falls back to
                ///< flow hash for requests without a parsable handle)
};

struct LbStats {
  std::uint64_t forwards = 0;         ///< client -> replica datagrams
  std::uint64_t replies = 0;          ///< replica -> client datagrams
  std::uint64_t drops_no_member = 0;  ///< no live replica to route to
  std::uint64_t content_routes = 0;
  std::uint64_t flow_routes = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t rebalances = 0;  ///< members marked dead or re-admitted
  std::uint64_t membership_broadcasts = 0;
  /// Ring changes damping prevented: re-admissions deferred during the
  /// quiet period, and probations reset by a renewed silence.
  std::uint64_t flaps_suppressed = 0;
  // --- admission control (overload) ---
  std::uint64_t admitted = 0;        ///< requests past the token bucket
  std::uint64_t admission_shed = 0;  ///< requests refused at ingress
};

class LoadBalancer {
 public:
  struct Member {
    std::uint32_t id = 0;
    proto::Ipv4Addr ip = 0;
  };

  struct Config {
    Routing routing = Routing::FlowHash;
    std::uint16_t port = 2049;       ///< client-facing service port
    std::uint16_t peer_port = kPeerPort;
    std::uint16_t control_port = kLbControlPort;
    std::uint16_t nat_base = 30000;  ///< first NAT flow port
    sim::Duration heartbeat_interval = 25 * sim::kMillisecond;
    int heartbeat_miss_limit = 3;
    /// Consecutive acked rounds a dead member must string together before
    /// re-admission (suspicion hysteresis; 1 ≈ the old immediate behaviour,
    /// one evaluation round later).
    int readmit_quiet_rounds = 2;
    int vnodes = 64;
    /// AIMD/token-bucket admission control at the VIP: requests past the
    /// bucket are dropped at ingress (the client's RTO resends), and the
    /// rate walks up additively each healthy heartbeat round / cuts
    /// multiplicatively when replica queue-depth feedback signals
    /// congestion. Off by default; when off nothing changes.
    struct Admission {
      bool enabled = false;
      overload::AimdRate::Config aimd;
      double burst = 256.0;            ///< bucket depth (requests)
      std::uint32_t qdepth_high = 16;  ///< replica depth = congestion
    };
    Admission admission;
  };

  LoadBalancer(proto::NetworkStack& stack, Config config,
               std::vector<Member> members);

  void start();
  void stop();
  bool running() const noexcept { return running_; }

  std::size_t live_count() const noexcept { return ring_.member_count(); }
  bool is_live(std::uint32_t id) const { return ring_.has_member(id); }
  std::uint32_t epoch() const noexcept { return epoch_; }
  /// Repositions the epoch counter (wraparound drills and recovery
  /// tooling; agents compare serially, so only steps < 2^31 apply).
  void reset_epoch(std::uint32_t epoch) noexcept { epoch_ = epoch; }
  /// Sim time of the most recent ring change (0 = never) — benches report
  /// rebalance latency as (first post-crash ring change − crash time).
  sim::Time last_rebalance_at() const noexcept { return last_rebalance_at_; }

  const Config& config() const noexcept { return config_; }
  const LbStats& stats() const noexcept { return stats_; }

  /// Last queue depth member `id` piggybacked on a heartbeat ack
  /// (0 = never reported / reported idle).
  std::uint32_t replica_qdepth(std::uint32_t id) const {
    auto it = qdepth_.find(id);
    return it == qdepth_.end() ? 0 : it->second;
  }
  /// Current admission rate (requests/sec; the AIMD controller's output).
  double admission_rate() const noexcept { return aimd_.rate(); }

  /// Publishes lb.* counters and ring gauges under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct Flow {
    proto::Ipv4Addr client_ip = 0;
    std::uint16_t client_port = 0;
    std::uint16_t nat_port = 0;
  };

  void on_request(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                  proto::Ipv4Addr dst_ip, std::uint16_t dst_port,
                  netbuf::MsgBuffer msg);
  void on_control(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                  proto::Ipv4Addr dst_ip, std::uint16_t dst_port,
                  netbuf::MsgBuffer msg);

  /// Routing key for one request under the configured policy.
  std::uint64_t route_key(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                          const netbuf::MsgBuffer& msg);
  Flow& flow_for(proto::Ipv4Addr client_ip, std::uint16_t client_port);

  void heartbeat_tick(std::uint64_t generation);
  void mark_dead(std::uint32_t id);
  void mark_live(std::uint32_t id);
  void broadcast_membership();
  std::optional<proto::Ipv4Addr> member_ip(std::uint32_t id) const;

  proto::NetworkStack& stack_;
  Config config_;
  std::vector<Member> members_;

  HashRing ring_;
  std::uint32_t epoch_ = 0;
  sim::Time last_rebalance_at_ = 0;

  bool running_ = false;
  std::uint64_t generation_ = 0;  ///< invalidates stale heartbeat timers

  std::unordered_map<std::uint64_t, Flow> flows_;  ///< (ip<<16|port) -> flow
  std::uint16_t next_nat_port_;

  std::uint32_t hb_seq_ = 0;
  std::unordered_set<std::uint32_t> hb_acked_;  ///< acks this round
  std::unordered_map<std::uint32_t, int> hb_misses_;
  /// Dead members' consecutive acked rounds (re-admission probation).
  std::unordered_map<std::uint32_t, int> readmit_streak_;

  /// Replica queue depths piggybacked on heartbeat acks (zero-suppressed
  /// on the wire: an ack without the trailing field means idle).
  std::unordered_map<std::uint32_t, std::uint32_t> qdepth_;
  overload::AimdRate aimd_;      ///< admission-rate controller
  overload::TokenBucket bucket_; ///< enforces the current rate at ingress

  LbStats stats_;
};

}  // namespace ncache::cluster
