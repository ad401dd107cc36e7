#include "proto/stack.h"

#include <array>
#include <stdexcept>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::proto {

NetworkStack::NetworkStack(sim::EventLoop& loop, sim::CpuModel& cpu,
                           netbuf::CopyEngine& copier,
                           const sim::CostModel& costs, std::string host,
                           std::shared_ptr<AddressBook> book)
    : loop_(loop),
      cpu_(cpu),
      copier_(copier),
      costs_(costs),
      host_(std::move(host)),
      book_(std::move(book)),
      reassembler_(loop) {}

Nic& NetworkStack::add_nic(MacAddr mac, Ipv4Addr ip) {
  auto nic = std::make_unique<Nic>(
      loop_, cpu_, copier_, costs_,
      host_ + ".eth" + std::to_string(nics_.size()), mac, ip);
  Nic& ref = *nic;
  ref.set_rx_handler([this, &ref](Frame f) { on_frame(ref, std::move(f)); });
  book_->add(ip, mac);
  nics_.push_back(std::move(nic));
  return ref;
}

void NetworkStack::set_egress_filter(Nic::FrameFilter f) {
  for (auto& n : nics_) n->set_egress_filter(f);
}

void NetworkStack::set_ingress_filter(Nic::FrameFilter f) {
  for (auto& n : nics_) n->set_ingress_filter(f);
}

Nic* NetworkStack::nic_for_ip(Ipv4Addr ip) {
  for (auto& n : nics_) {
    if (n->ip() == ip) return n.get();
  }
  return nullptr;
}

bool NetworkStack::is_local_ip(Ipv4Addr ip) const {
  for (const auto& n : nics_) {
    if (n->ip() == ip) return true;
  }
  return false;
}

std::uint16_t NetworkStack::l4_checksum(Ipv4Addr src, Ipv4Addr dst,
                                        IpProto proto,
                                        std::span<const std::byte> l4_header,
                                        const netbuf::MsgBuffer& payload) const {
  std::uint32_t acc = pseudo_header_sum(
      src, dst, proto,
      static_cast<std::uint16_t>(l4_header.size() + payload.size()));
  acc = checksum_accumulate(l4_header, acc);
  // Gather across physical segments. Odd-length segment boundaries are rare
  // in our traffic (block-aligned payloads); fold conservatively by
  // flattening when an odd-length interior segment shows up.
  std::size_t pos = 0;
  bool odd_boundary = false;
  const auto& segs = payload.segments();
  for (std::size_t i = 0; i < segs.size(); ++i) {
    std::uint32_t len = netbuf::seg_len(segs[i]);
    if ((len & 1) && i + 1 != segs.size()) odd_boundary = true;
    pos += len;
  }
  (void)pos;
  if (odd_boundary) {
    auto flat = payload.to_bytes();
    acc = checksum_accumulate(flat, acc);
  } else {
    for (const auto& s : segs) {
      if (const auto* b = std::get_if<netbuf::ByteSeg>(&s)) {
        acc = checksum_accumulate(b->view(), acc);
      }
    }
  }
  return checksum_finish(acc);
}

std::uint16_t NetworkStack::udp_checksum(
    Ipv4Addr src, Ipv4Addr dst, const UdpHeader& h,
    const netbuf::MsgBuffer& payload) const {
  std::array<std::byte, kUdpHeaderBytes> hdr;
  ByteWriter w(hdr);
  UdpHeader tmp = h;
  tmp.checksum = 0;
  tmp.serialize(w);
  return l4_checksum(src, dst, IpProto::Udp, hdr, payload);
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void NetworkStack::send_ip(Nic& out, MacAddr dst_mac, Ipv4Header ip_template,
                           std::optional<UdpHeader> udp,
                           std::optional<TcpHeader> tcp,
                           netbuf::MsgBuffer payload) {
  const bool logical = !payload.fully_physical();
  std::size_t l4_header_bytes =
      (udp ? kUdpHeaderBytes : 0) + (tcp ? kTcpHeaderBytes : 0);
  // Unfragmented fast path: anything that fits the MTU goes as one frame
  // (a full 1460-byte TCP segment fills the MTU exactly).
  std::size_t room = kMtu - kIpv4HeaderBytes - l4_header_bytes;
  // When fragmentation *is* needed, per-fragment data sizes must be
  // 8-byte aligned so offsets are representable.
  std::size_t max_first = room & ~std::size_t(7);
  std::size_t max_rest = (kMtu - kIpv4HeaderBytes) & ~std::size_t(7);

  if (payload.size() <= room) {
    Frame f;
    f.eth = EthHeader{dst_mac, out.mac(), kEtherTypeIpv4};
    f.ip = ip_template;
    f.ip.total_length = static_cast<std::uint16_t>(
        kIpv4HeaderBytes + l4_header_bytes + payload.size());
    f.udp = udp;
    f.tcp = tcp;
    f.l4_checksum_inherited = logical;
    f.payload = std::move(payload);
    out.send(std::move(f));
    return;
  }

  // Fragment. The L4 header travels (typed) with the first fragment.
  // Offsets here count L4 *data* bytes (see ip_reassembly.h); data chunk
  // sizes stay 8-byte aligned so offsets are representable.
  ++stats_.udp_fragments_sent;  // at least one split happened
  std::size_t total = payload.size();
  std::size_t off = 0;
  bool first = true;
  while (off < total) {
    std::size_t budget = first ? max_first : max_rest;
    std::size_t take = std::min(budget, total - off);
    bool last = off + take == total;
    Frame f;
    f.eth = EthHeader{dst_mac, out.mac(), kEtherTypeIpv4};
    f.ip = ip_template;
    f.ip.more_fragments = !last;
    f.ip.fragment_offset = static_cast<std::uint16_t>(off / 8);
    f.ip.total_length = static_cast<std::uint16_t>(
        kIpv4HeaderBytes + (first ? l4_header_bytes : 0) + take);
    if (first) {
      f.udp = udp;
      f.tcp = tcp;
    }
    f.l4_checksum_inherited = logical;
    f.payload = payload.slice(off, take);
    out.send(std::move(f));
    off += take;
    first = false;
  }
}

void NetworkStack::udp_send(Ipv4Addr src_ip, std::uint16_t src_port,
                            Ipv4Addr dst_ip, std::uint16_t dst_port,
                            netbuf::MsgBuffer payload) {
  Nic* out = nic_for_ip(src_ip);
  if (!out) throw std::invalid_argument("udp_send: no NIC owns source IP");
  auto mac = book_->lookup(dst_ip);
  if (!mac) throw std::invalid_argument("udp_send: unresolvable destination");
  if (payload.size() > 65507) {
    throw std::length_error("udp_send: datagram too large");
  }

  UdpHeader uh;
  uh.src_port = src_port;
  uh.dst_port = dst_port;
  uh.length = static_cast<std::uint16_t>(kUdpHeaderBytes + payload.size());

  if (payload.fully_physical()) {
    uh.checksum = udp_checksum(src_ip, dst_ip, uh, payload);
  } else {
    uh.checksum = 0;  // inherited / filled by NCache substitution path
  }

  Ipv4Header ip;
  ip.id = next_ip_id_++;
  ip.protocol = IpProto::Udp;
  ip.src = src_ip;
  ip.dst = dst_ip;

  ++stats_.udp_datagrams_sent;
  send_ip(*out, *mac, ip, uh, std::nullopt, std::move(payload));
}

void NetworkStack::emit_tcp_segment(TcpConnection& conn, TcpHeader h,
                                    netbuf::MsgBuffer payload) {
  Nic* out = nic_for_ip(conn.local_ip());
  if (!out) return;
  auto mac = book_->lookup(conn.remote_ip());
  if (!mac) return;

  if (payload.fully_physical()) {
    std::array<std::byte, kTcpHeaderBytes> hdr;
    ByteWriter w(hdr);
    TcpHeader tmp = h;
    tmp.checksum = 0;
    tmp.serialize(w);
    h.checksum =
        l4_checksum(conn.local_ip(), conn.remote_ip(), IpProto::Tcp, hdr,
                    payload);
  } else {
    h.checksum = 0;
  }

  Ipv4Header ip;
  ip.id = next_ip_id_++;
  ip.protocol = IpProto::Tcp;
  ip.src = conn.local_ip();
  ip.dst = conn.remote_ip();
  ip.dont_fragment = true;  // TCP segments are MSS-sized

  send_ip(*out, *mac, ip, std::nullopt, h, std::move(payload));
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

void NetworkStack::on_frame(Nic& nic, Frame frame) {
  (void)nic;
  if (frame.eth.ethertype != kEtherTypeIpv4) return;
  if (!is_local_ip(frame.ip.dst)) {
    ++stats_.not_mine_drops;
    return;
  }
  auto done = reassembler_.feed(std::move(frame));
  if (!done) return;
  switch (done->ip.protocol) {
    case IpProto::Udp:
      dispatch_udp(std::move(*done));
      break;
    case IpProto::Tcp:
      dispatch_tcp(std::move(*done));
      break;
  }
}

void NetworkStack::dispatch_udp(IpReassembler::Datagram d) {
  if (!d.udp) {
    ++stats_.no_handler_drops;
    return;
  }
  // Validate the UDP checksum when it is real and the payload is physical.
  if (!d.l4_checksum_inherited && d.udp->checksum != 0 &&
      d.payload.fully_physical()) {
    std::uint16_t expect = udp_checksum(d.ip.src, d.ip.dst, *d.udp, d.payload);
    if (expect != d.udp->checksum) {
      ++stats_.bad_checksum_drops;
      return;
    }
  }
  auto it = udp_handlers_.find(d.udp->dst_port);
  if (it == udp_handlers_.end()) {
    ++stats_.no_handler_drops;
    return;
  }
  ++stats_.udp_datagrams_received;
  it->second(d.ip.src, d.udp->src_port, d.ip.dst, d.udp->dst_port,
             std::move(d.payload));
}

TcpConnectionPtr NetworkStack::make_connection(Ipv4Addr lip,
                                               std::uint16_t lport,
                                               Ipv4Addr rip,
                                               std::uint16_t rport) {
  std::uint32_t iss = next_iss_;
  next_iss_ += 64000;
  auto conn = std::make_shared<TcpConnection>(
      loop_, lip, lport, rip, rport, iss,
      [this](TcpConnection& c, TcpHeader h, netbuf::MsgBuffer p) {
        emit_tcp_segment(c, std::move(h), std::move(p));
      });
  connections_[ConnKey{lip, lport, rip, rport}] = conn;
  return conn;
}

void NetworkStack::dispatch_tcp(IpReassembler::Datagram d) {
  if (!d.tcp) return;
  const TcpHeader& h = *d.tcp;
  ConnKey key{d.ip.dst, h.dst_port, d.ip.src, h.src_port};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    it->second->on_segment(h, std::move(d.payload));
    // Reap fully-closed connections.
    if (it->second->state() == TcpConnection::State::Closed) {
      connections_.erase(it);
    }
    return;
  }

  if (h.syn() && !h.ack_flag()) {
    auto lit = tcp_listeners_.find(h.dst_port);
    if (lit != tcp_listeners_.end()) {
      auto conn = make_connection(d.ip.dst, h.dst_port, d.ip.src, h.src_port);
      AcceptHandler accept = lit->second;  // copy: survives unbind
      // Weak: the handler lives on the connection itself, so a strong
      // capture would be a self-cycle. connections_ keeps it alive.
      std::weak_ptr<TcpConnection> wp = conn;
      conn->set_on_established([accept, wp] {
        if (auto cp = wp.lock()) accept(cp);
      });
      conn->open_passive(h.seq);
      return;
    }
  }

  if (!h.rst()) {
    // No socket: answer with RST (once, unsynchronized).
    ++stats_.tcp_resets_sent;
  }
}

void NetworkStack::udp_bind(std::uint16_t port, UdpHandler handler) {
  if (!udp_handlers_.emplace(port, std::move(handler)).second) {
    throw std::invalid_argument("udp_bind: port in use");
  }
}

void NetworkStack::udp_unbind(std::uint16_t port) { udp_handlers_.erase(port); }

void NetworkStack::tcp_listen(std::uint16_t port, AcceptHandler on_accept) {
  if (!tcp_listeners_.emplace(port, std::move(on_accept)).second) {
    throw std::invalid_argument("tcp_listen: port in use");
  }
}

Task<TcpConnectionPtr> NetworkStack::tcp_connect(Ipv4Addr src_ip,
                                                 Ipv4Addr dst_ip,
                                                 std::uint16_t dst_port) {
  if (!nic_for_ip(src_ip)) {
    throw std::invalid_argument("tcp_connect: no NIC owns source IP");
  }
  std::uint16_t lport = next_ephemeral_++;
  auto conn = make_connection(src_ip, lport, dst_ip, dst_port);
  AwaitCallback<TcpConnectionPtr> established(
      [conn](AwaitCallback<TcpConnectionPtr>::Resolve resolve) {
        auto r = std::make_shared<AwaitCallback<TcpConnectionPtr>::Resolve>(
            std::move(resolve));
        // Weak capture: the handler is stored on the connection, so a
        // strong capture would be a self-cycle. connections_ (and the
        // awaiting coroutine frame) keep it alive.
        std::weak_ptr<TcpConnection> wp = conn;
        conn->set_on_established([wp, r] {
          if (auto c = wp.lock()) (*r)(c);
        });
        conn->open_active();
      });
  co_return co_await established;
}

void NetworkStack::register_metrics(MetricRegistry& registry,
                                    const std::string& node) {
  registry.counter(node, "udp.datagrams_sent",
                   [this] { return stats_.udp_datagrams_sent; });
  registry.counter(node, "udp.datagrams_received",
                   [this] { return stats_.udp_datagrams_received; });
  registry.counter(node, "udp.fragments_sent",
                   [this] { return stats_.udp_fragments_sent; });
  registry.counter(node, "stack.no_handler_drops",
                   [this] { return stats_.no_handler_drops; });
  registry.counter(node, "stack.bad_checksum_drops",
                   [this] { return stats_.bad_checksum_drops; });
  registry.counter(node, "stack.not_mine_drops",
                   [this] { return stats_.not_mine_drops; });
  registry.counter(node, "tcp.resets_sent",
                   [this] { return stats_.tcp_resets_sent; });
  registry.counter(node, "ip.reassembly_timeouts",
                   [this] { return reassembler_.timeouts(); });
  registry.gauge(node, "ip.reassembly_pending",
                 [this] { return double(reassembler_.pending()); });
  for (std::size_t i = 0; i < nics_.size(); ++i) {
    nics_[i]->register_metrics(registry, node, "nic" + std::to_string(i));
  }
}

}  // namespace ncache::proto
