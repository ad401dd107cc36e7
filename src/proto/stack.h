// Per-host network stack: NIC management, IPv4 send path with
// fragmentation, UDP demux, TCP connection management, and the NCache
// attach points (driver-boundary frame filters).
//
// The stack deliberately passes payloads internally by reference
// (MsgBuffer) just like sk_buffs travel pointer-wise inside the kernel;
// the *copy semantics* of the user/kernel boundary are expressed by the
// callers (servers) through CopyEngine — exactly where the paper's <150
// modified lines sit.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "netbuf/copy_engine.h"
#include "proto/frame.h"
#include "proto/ip_reassembly.h"
#include "proto/nic.h"
#include "proto/tcp.h"
#include "sim/cost_model.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::proto {

/// Testbed-wide IP -> MAC resolution (static ARP table; the testbed
/// topology never churns).
class AddressBook {
 public:
  void add(Ipv4Addr ip, MacAddr mac) { table_[ip] = mac; }
  std::optional<MacAddr> lookup(Ipv4Addr ip) const {
    auto it = table_.find(ip);
    if (it == table_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<Ipv4Addr, MacAddr> table_;
};

struct StackStats {
  std::uint64_t udp_datagrams_sent = 0;
  std::uint64_t udp_datagrams_received = 0;
  std::uint64_t udp_fragments_sent = 0;
  std::uint64_t no_handler_drops = 0;
  std::uint64_t bad_checksum_drops = 0;
  std::uint64_t not_mine_drops = 0;
  std::uint64_t tcp_resets_sent = 0;
};

class NetworkStack {
 public:
  /// src_ip, src_port, dst_ip, dst_port, payload. dst_ip identifies the NIC
  /// the datagram arrived on, so replies can bind to the same local IP.
  using UdpHandler = std::function<void(Ipv4Addr, std::uint16_t, Ipv4Addr,
                                        std::uint16_t, netbuf::MsgBuffer)>;
  using AcceptHandler = std::function<void(TcpConnectionPtr)>;

  NetworkStack(sim::EventLoop& loop, sim::CpuModel& cpu,
               netbuf::CopyEngine& copier, const sim::CostModel& costs,
               std::string host, std::shared_ptr<AddressBook> book);

  NetworkStack(const NetworkStack&) = delete;
  NetworkStack& operator=(const NetworkStack&) = delete;

  /// Adds a NIC with the given MAC/IP and registers it in the address book.
  Nic& add_nic(MacAddr mac, Ipv4Addr ip);
  Nic& nic(std::size_t i) { return *nics_.at(i); }
  std::size_t nic_count() const noexcept { return nics_.size(); }
  Ipv4Addr primary_ip() const { return nics_.at(0)->ip(); }

  // ---- UDP -----------------------------------------------------------------
  void udp_bind(std::uint16_t port, UdpHandler handler);
  void udp_unbind(std::uint16_t port);
  /// Sends a datagram from `src_ip` (selects the NIC bound to that IP).
  /// Payload may contain logical segments (zero-copy path) — physical
  /// copy-semantics callers run through CopyEngine first.
  void udp_send(Ipv4Addr src_ip, std::uint16_t src_port, Ipv4Addr dst_ip,
                std::uint16_t dst_port, netbuf::MsgBuffer payload);

  // ---- TCP -----------------------------------------------------------------
  void tcp_listen(std::uint16_t port, AcceptHandler on_accept);
  /// Active open; resolves once established.
  Task<TcpConnectionPtr> tcp_connect(Ipv4Addr src_ip, Ipv4Addr dst_ip,
                                     std::uint16_t dst_port);

  // ---- NCache attach points --------------------------------------------------
  /// Installs the egress filter on every NIC (driver boundary, §4.1).
  void set_egress_filter(Nic::FrameFilter f);
  void set_ingress_filter(Nic::FrameFilter f);

  const StackStats& stats() const noexcept { return stats_; }

  IpReassembler& reassembler() noexcept { return reassembler_; }

  /// Publishes udp.*/tcp.* stack counters and every NIC's meters (as
  /// nicK.*) under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

  sim::EventLoop& loop() noexcept { return loop_; }
  sim::CpuModel& cpu() noexcept { return cpu_; }
  netbuf::CopyEngine& copier() noexcept { return copier_; }
  const sim::CostModel& costs() const noexcept { return costs_; }
  const std::string& host() const noexcept { return host_; }

 private:
  struct ConnKey {
    Ipv4Addr local_ip;
    std::uint16_t local_port;
    Ipv4Addr remote_ip;
    std::uint16_t remote_port;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      std::uint64_t h = (std::uint64_t(k.local_ip) << 32) | k.remote_ip;
      h ^= (std::uint64_t(k.local_port) << 16) | k.remote_port;
      h *= 0x9e3779b97f4a7c15ULL;
      return std::size_t(h ^ (h >> 32));
    }
  };

  void on_frame(Nic& nic, Frame frame);
  void dispatch_udp(IpReassembler::Datagram d);
  void dispatch_tcp(IpReassembler::Datagram d);
  Nic* nic_for_ip(Ipv4Addr ip);
  bool is_local_ip(Ipv4Addr ip) const;
  void send_ip(Nic& out, MacAddr dst_mac, Ipv4Header ip_template,
               std::optional<UdpHeader> udp, std::optional<TcpHeader> tcp,
               netbuf::MsgBuffer payload);
  void emit_tcp_segment(TcpConnection& conn, TcpHeader h,
                        netbuf::MsgBuffer payload);
  std::uint16_t l4_checksum(Ipv4Addr src, Ipv4Addr dst, IpProto proto,
                            std::span<const std::byte> l4_header,
                            const netbuf::MsgBuffer& payload) const;
  /// The UDP checksum of `h` (its checksum field read as zero) + payload.
  std::uint16_t udp_checksum(Ipv4Addr src, Ipv4Addr dst, const UdpHeader& h,
                             const netbuf::MsgBuffer& payload) const;
  TcpConnectionPtr make_connection(Ipv4Addr lip, std::uint16_t lport,
                                   Ipv4Addr rip, std::uint16_t rport);

  sim::EventLoop& loop_;
  sim::CpuModel& cpu_;
  netbuf::CopyEngine& copier_;
  const sim::CostModel& costs_;
  std::string host_;
  std::shared_ptr<AddressBook> book_;

  std::vector<std::unique_ptr<Nic>> nics_;
  IpReassembler reassembler_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  std::unordered_map<std::uint16_t, AcceptHandler> tcp_listeners_;
  std::unordered_map<ConnKey, TcpConnectionPtr, ConnKeyHash> connections_;

  std::uint16_t next_ip_id_ = 1;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint32_t next_iss_ = 1000;
  StackStats stats_;
};

}  // namespace ncache::proto
