#include "proto/switch.h"

#include <stdexcept>

#include "common/logging.h"

namespace ncache::proto {

void EthernetSwitch::connect(Nic& nic) {
  connect(nic, costs_.link_bandwidth_bps, costs_.link_latency_ns);
}

void EthernetSwitch::connect(Nic& nic, std::uint64_t bandwidth_bps,
                             sim::Duration latency_ns) {
  auto cable = std::make_unique<sim::DuplexLink>(
      loop_, name_ + ".port" + std::to_string(ports_.size()), bandwidth_bps,
      latency_ns, costs_.frame_overhead_bytes);
  std::size_t index = ports_.size();

  // NIC -> switch direction: frames serialize on cable.a_to_b, then land at
  // this switch's ingress for the port.
  nic.attach_tx(&cable->a_to_b,
                [this, index](FrameBox f) { on_ingress(index, std::move(f)); });

  Port port;
  port.nic = &nic;
  port.tx = &cable->b_to_a;
  port.wire = cable.get();
  port.cable = std::move(cable);
  ports_.push_back(std::move(port));
  mac_table_[nic.mac()] = index;
  // Peers across trunks learn the newcomer too (static topology).
  for (Port& p : ports_) {
    if (p.peer) p.peer->learn_remote(nic.mac(), p.peer_port);
  }
}

sim::DuplexLink& EthernetSwitch::connect_switch(EthernetSwitch& peer,
                                                std::uint64_t bandwidth_bps,
                                                sim::Duration latency_ns) {
  if (&peer == this) {
    throw std::invalid_argument("connect_switch: self-loop on " + name_);
  }
  // Each trunk direction serializes on its transmitting switch's loop, so
  // the cable works unchanged when the two switches live in different
  // event-loop domains (same loop in a classic single-loop world).
  auto cable = std::make_unique<sim::DuplexLink>(
      loop_, peer.loop_, name_ + "-" + peer.name_ + ".trunk", bandwidth_bps,
      latency_ns, costs_.frame_overhead_bytes);
  sim::DuplexLink* wire = cable.get();
  std::size_t my_index = ports_.size();
  std::size_t peer_index = peer.ports_.size();

  Port mine;
  mine.peer = &peer;
  mine.peer_port = peer_index;
  mine.tx = &wire->a_to_b;
  mine.wire = wire;
  mine.cable = std::move(cable);
  ports_.push_back(std::move(mine));

  Port theirs;
  theirs.peer = this;
  theirs.peer_port = my_index;
  theirs.tx = &wire->b_to_a;
  theirs.wire = wire;
  peer.ports_.push_back(std::move(theirs));

  // Exchange everything each fabric already knows so cross-trunk unicast
  // never needs to flood (propagates further over other trunks).
  for (const auto& [mac, port] : mac_table_) {
    (void)port;
    peer.learn_remote(mac, peer_index);
  }
  for (const auto& [mac, port] : peer.mac_table_) {
    if (mac_table_.count(mac)) continue;  // skip what we just announced
    (void)port;
    learn_remote(mac, my_index);
  }
  return *wire;
}

void EthernetSwitch::learn_remote(MacAddr mac, std::size_t via_port) {
  auto [it, inserted] = mac_table_.emplace(mac, via_port);
  if (!inserted) {
    if (it->second == via_port) return;  // already known here — stop
    it->second = via_port;
  }
  for (Port& p : ports_) {
    if (p.peer && &ports_[via_port] != &p) {
      p.peer->learn_remote(mac, p.peer_port);
    }
  }
}

sim::DuplexLink& EthernetSwitch::cable_of(const Nic& nic) {
  for (Port& p : ports_) {
    if (p.nic == &nic) return *p.wire;
  }
  throw std::invalid_argument("EthernetSwitch::cable_of: NIC not connected");
}

sim::DuplexLink& EthernetSwitch::trunk_of(const EthernetSwitch& peer) {
  for (Port& p : ports_) {
    if (p.peer == &peer) return *p.wire;
  }
  throw std::invalid_argument("EthernetSwitch::trunk_of: no trunk " + name_ +
                              " <-> " + peer.name_);
}

void EthernetSwitch::on_ingress(std::size_t port_index, FrameBox frame) {
  mac_table_[frame->eth.src] = port_index;  // learn (idempotent here)

  if (frame->eth.dst != kBroadcastMac) {
    auto it = mac_table_.find(frame->eth.dst);
    if (it != mac_table_.end()) {
      ++forwarded_;
      forward(it->second, std::move(frame));
      return;
    }
  }
  // Flood to every port except ingress.
  ++flooded_;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (i == port_index) continue;
    forward(i, box_frame(Frame(*frame)));  // copy per egress port
  }
}

void EthernetSwitch::forward(std::size_t out_port, FrameBox frame) {
  Port& p = ports_[out_port];
  std::size_t wire = frame->wire_bytes();
  if (p.nic) {
    Nic* nic = p.nic;
    p.tx->transmit(wire, [nic, f = std::move(frame)]() mutable {
      nic->deliver(std::move(f));
    });
  } else {
    EthernetSwitch* peer = p.peer;
    std::size_t in = p.peer_port;
    p.tx->transmit(wire, [peer, in, f = std::move(frame)]() mutable {
      peer->on_ingress(in, std::move(f));
    });
  }
}

}  // namespace ncache::proto
