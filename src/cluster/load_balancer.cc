#include "cluster/load_balancer.h"

#include <array>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "nfs/protocol.h"

namespace ncache::cluster {

using netbuf::MsgBuffer;

LoadBalancer::LoadBalancer(proto::NetworkStack& stack, Config config,
                           std::vector<Member> members)
    : stack_(stack),
      config_(config),
      members_(std::move(members)),
      ring_(config.vnodes),
      next_nat_port_(config.nat_base),
      aimd_(config.admission.aimd),
      bucket_(aimd_.rate(), config.admission.burst) {
  for (const Member& m : members_) ring_.add_member(m.id);
}

void LoadBalancer::start() {
  if (running_) return;
  running_ = true;
  ++generation_;
  stack_.udp_bind(config_.port,
                  [this](proto::Ipv4Addr sip, std::uint16_t sport,
                         proto::Ipv4Addr dip, std::uint16_t dport,
                         MsgBuffer msg) {
                    on_request(sip, sport, dip, dport, std::move(msg));
                  });
  stack_.udp_bind(config_.control_port,
                  [this](proto::Ipv4Addr sip, std::uint16_t sport,
                         proto::Ipv4Addr dip, std::uint16_t dport,
                         MsgBuffer msg) {
                    on_control(sip, sport, dip, dport, std::move(msg));
                  });
  std::uint64_t gen = generation_;
  stack_.loop().schedule_in(config_.heartbeat_interval,
                            [this, gen] { heartbeat_tick(gen); });
}

void LoadBalancer::stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;  // orphans any scheduled heartbeat tick
  stack_.udp_unbind(config_.port);
  stack_.udp_unbind(config_.control_port);
  for (auto& [key, flow] : flows_) stack_.udp_unbind(flow.nat_port);
  flows_.clear();
}

std::optional<proto::Ipv4Addr> LoadBalancer::member_ip(
    std::uint32_t id) const {
  for (const Member& m : members_) {
    if (m.id == id) return m.ip;
  }
  return std::nullopt;
}

std::uint64_t LoadBalancer::route_key(proto::Ipv4Addr src_ip,
                                      std::uint16_t src_port,
                                      const MsgBuffer& msg) {
  if (config_.routing == Routing::ContentHash &&
      msg.size() >= nfs::kCallHeaderBytes + 8) {
    // Every NFS call body starts with the file handle (or directory
    // handle) right after the RPC header — one fixed-offset peek routes
    // all procedures file-affinely without parsing per-procedure bodies.
    try {
      std::array<std::byte, nfs::kCallHeaderBytes + 8> head;
      ByteReader r(msg.peek_into(head));
      r.skip(nfs::kCallHeaderBytes);
      ++stats_.content_routes;
      return HashRing::mix64(r.u64());
    } catch (const std::exception&) {
      // Non-physical or short prefix: fall through to the flow hash.
    }
  }
  ++stats_.flow_routes;
  return HashRing::mix64((std::uint64_t(src_ip) << 16) | src_port);
}

LoadBalancer::Flow& LoadBalancer::flow_for(proto::Ipv4Addr client_ip,
                                           std::uint16_t client_port) {
  std::uint64_t key = (std::uint64_t(client_ip) << 16) | client_port;
  auto it = flows_.find(key);
  if (it != flows_.end()) return it->second;

  Flow flow;
  flow.client_ip = client_ip;
  flow.client_port = client_port;
  flow.nat_port = next_nat_port_++;
  auto [ins, _] = flows_.emplace(key, flow);
  // Replica replies land on the flow's NAT port and are cut through back
  // to the real client, from the service port (so the client's view of
  // the server address never changes).
  stack_.udp_bind(flow.nat_port,
                  [this, client_ip, client_port](
                      proto::Ipv4Addr, std::uint16_t, proto::Ipv4Addr,
                      std::uint16_t, MsgBuffer reply) {
                    if (!running_) return;
                    ++stats_.replies;
                    stack_.udp_send(stack_.primary_ip(), config_.port,
                                    client_ip, client_port,
                                    std::move(reply));
                  });
  return ins->second;
}

void LoadBalancer::on_request(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                              proto::Ipv4Addr /*dst_ip*/,
                              std::uint16_t /*dst_port*/, MsgBuffer msg) {
  if (!running_) return;
  if (config_.admission.enabled) {
    // Admission control: reject at the VIP, before any replica CPU is
    // spent. The drop is silent — NFS clients resend on their adaptive
    // RTO, so shed work retries against a recovered cluster.
    if (!bucket_.try_take(stack_.loop().now())) {
      ++stats_.admission_shed;
      return;
    }
    ++stats_.admitted;
  }
  if (ring_.empty()) {
    ++stats_.drops_no_member;
    return;
  }
  std::uint32_t member = ring_.owner(route_key(src_ip, src_port, msg));
  auto ip = member_ip(member);
  if (!ip) {
    ++stats_.drops_no_member;
    return;
  }
  Flow& flow = flow_for(src_ip, src_port);
  ++stats_.forwards;
  // L4 cut-through: the datagram is re-sent by reference, never copied.
  stack_.udp_send(stack_.primary_ip(), flow.nat_port, *ip, config_.port,
                  std::move(msg));
}

void LoadBalancer::on_control(proto::Ipv4Addr /*src_ip*/,
                              std::uint16_t /*src_port*/,
                              proto::Ipv4Addr /*dst_ip*/,
                              std::uint16_t /*dst_port*/, MsgBuffer msg) {
  if (!running_ || msg.size() < 12) return;
  // Acks are 12 bytes [msg, seq, id] plus an optional trailing u32 queue
  // depth — zero-suppressed by the replica, so idle clusters put exactly
  // the same bytes on the wire as before the field existed.
  const bool has_qdepth = msg.size() >= 16;
  std::array<std::byte, 16> buf;
  ByteReader r(msg.peek_into(std::span(buf).first(has_qdepth ? 16 : 12)));
  if (PeerMsg(r.u32()) != PeerMsg::HeartbeatAck) return;
  std::uint32_t seq = r.u32();
  std::uint32_t id = r.u32();
  if (seq != hb_seq_) return;  // stale round
  ++stats_.acks_received;
  hb_acked_.insert(id);
  hb_misses_[id] = 0;
  qdepth_[id] = has_qdepth ? r.u32() : 0;
  // A dead member answering is NOT re-admitted here: heartbeat_tick
  // evaluates its probation, and only `readmit_quiet_rounds` consecutive
  // acked rounds bring it back (flap damping on lossy links).
}

void LoadBalancer::heartbeat_tick(std::uint64_t generation) {
  if (!running_ || generation != generation_) return;

  // Evaluate the round that just ended (none before the first probe).
  if (hb_seq_ > 0) {
    for (const Member& m : members_) {
      if (ring_.has_member(m.id)) {
        if (hb_acked_.contains(m.id)) {
          hb_misses_[m.id] = 0;
          continue;
        }
        if (++hb_misses_[m.id] >= config_.heartbeat_miss_limit) {
          mark_dead(m.id);
        }
        continue;
      }
      // Dead member: re-admission probation. It must answer
      // readmit_quiet_rounds consecutive probes; one renewed silence
      // resets the streak, so a link dropping most acks cannot churn the
      // ring on every one that survives.
      if (hb_acked_.contains(m.id)) {
        if (++readmit_streak_[m.id] >= config_.readmit_quiet_rounds) {
          mark_live(m.id);
        } else {
          ++stats_.flaps_suppressed;  // deferred: still on probation
        }
      } else if (readmit_streak_[m.id] > 0) {
        readmit_streak_[m.id] = 0;
        ++stats_.flaps_suppressed;  // probation reset: a flap caught
      }
    }
  }

  if (config_.admission.enabled && hb_seq_ > 0) {
    // One AIMD round per heartbeat round: any live replica reporting a
    // deep queue cuts the admission rate multiplicatively; an all-clear
    // round walks it back up additively.
    std::uint32_t max_depth = 0;
    for (const Member& m : members_) {
      if (!ring_.has_member(m.id)) continue;
      max_depth = std::max(max_depth, replica_qdepth(m.id));
    }
    bucket_.set_rate(
        aimd_.on_round(max_depth >= config_.admission.qdepth_high));
  }

  hb_acked_.clear();
  ++hb_seq_;
  std::vector<std::byte> head;
  ByteWriter w(head);
  w.u32(std::uint32_t(PeerMsg::Heartbeat));
  w.u32(hb_seq_);
  // Probe every configured member, dead ones included — an ack from a
  // dead member is the re-admission signal.
  for (const Member& m : members_) {
    ++stats_.heartbeats_sent;
    stack_.udp_send(stack_.primary_ip(), config_.control_port, m.ip,
                    config_.peer_port, MsgBuffer::from_bytes(head));
  }

  std::uint64_t gen = generation_;
  stack_.loop().schedule_in(config_.heartbeat_interval,
                            [this, gen] { heartbeat_tick(gen); });
}

void LoadBalancer::mark_dead(std::uint32_t id) {
  if (!ring_.has_member(id)) return;
  ring_.remove_member(id);
  hb_misses_.erase(id);
  readmit_streak_.erase(id);
  ++stats_.rebalances;
  last_rebalance_at_ = stack_.loop().now();
  NC_WARN("lb", "member %u marked dead (%zu live)", id,
          ring_.member_count());
  broadcast_membership();
}

void LoadBalancer::mark_live(std::uint32_t id) {
  if (ring_.has_member(id)) return;
  ring_.add_member(id);
  hb_misses_[id] = 0;
  readmit_streak_.erase(id);
  ++stats_.rebalances;
  last_rebalance_at_ = stack_.loop().now();
  NC_WARN("lb", "member %u re-admitted (%zu live)", id,
          ring_.member_count());
  broadcast_membership();
}

void LoadBalancer::broadcast_membership() {
  ++epoch_;
  const std::vector<std::uint32_t>& live = ring_.members();  // sorted
  std::vector<std::byte> head;
  ByteWriter w(head);
  w.u32(std::uint32_t(PeerMsg::Membership));
  w.u32(epoch_);
  w.u32(std::uint32_t(live.size()));
  for (std::uint32_t id : live) w.u32(id);
  for (const Member& m : members_) {
    if (!ring_.has_member(m.id)) continue;  // dead: unreachable anyway
    ++stats_.membership_broadcasts;
    stack_.udp_send(stack_.primary_ip(), config_.control_port, m.ip,
                    config_.peer_port, MsgBuffer::from_bytes(head));
  }
}

void LoadBalancer::register_metrics(MetricRegistry& registry,
                                    const std::string& node) {
  registry.counter(node, "lb.forwards", &stats_.forwards);
  registry.counter(node, "lb.replies", &stats_.replies);
  registry.counter(node, "lb.drops_no_member", &stats_.drops_no_member);
  registry.counter(node, "lb.content_routes", &stats_.content_routes);
  registry.counter(node, "lb.flow_routes", &stats_.flow_routes);
  registry.counter(node, "lb.heartbeats_sent", &stats_.heartbeats_sent);
  registry.counter(node, "lb.acks_received", &stats_.acks_received);
  registry.counter(node, "lb.rebalances", &stats_.rebalances);
  registry.counter(node, "lb.membership_broadcasts",
                   &stats_.membership_broadcasts);
  registry.counter(node, "lb.flaps_suppressed", &stats_.flaps_suppressed);
  registry.gauge(node, "lb.live_members",
                 [this] { return double(ring_.member_count()); });
  registry.gauge(node, "lb.ring_points",
                 [this] { return double(ring_.point_count()); });
  registry.gauge(node, "lb.epoch", [this] { return double(epoch_); });
  for (const Member& m : members_) {
    // Replica queue depth as last piggybacked on a heartbeat ack. One
    // gauge per configured member, e.g. "lb.replica0.qdepth".
    registry.gauge(node, "lb.replica" + std::to_string(m.id) + ".qdepth",
                   [this, id = m.id] { return double(replica_qdepth(id)); });
  }
  if (config_.admission.enabled) {
    // Admission metrics exist only when the feature is on, keeping a
    // disabled run's metrics JSON byte-identical.
    registry.counter(node, "overload.admitted", &stats_.admitted);
    registry.counter(node, "overload.shed", &stats_.admission_shed);
    registry.gauge(node, "overload.rate", [this] { return aimd_.rate(); });
  }
}

}  // namespace ncache::cluster
