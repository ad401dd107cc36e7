// Store-and-forward Ethernet switch (the testbed's NetGear gigabit
// switch). Non-blocking fabric: each port has its own full-duplex link, so
// only per-port line rate and store-and-forward latency constrain
// forwarding. MAC learning on source addresses; unknown/broadcast frames
// flood.
//
// Switches also interconnect: `connect_switch` adds a trunk port pair with
// its own bandwidth/latency profile (a rack uplink or WAN hop). The
// switch-to-switch graph must stay loop-free (the topology layer validates
// this); MACs learned on either side propagate across trunks at connect
// time, so steady-state cross-rack unicast never floods.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/nic.h"
#include "sim/link.h"

namespace ncache::proto {

class EthernetSwitch {
 public:
  EthernetSwitch(sim::EventLoop& loop, std::string name,
                 const sim::CostModel& costs)
      : loop_(loop), name_(std::move(name)), costs_(costs) {}

  /// Connects a NIC with a dedicated full-duplex cable; learns its MAC
  /// immediately (static topology — the testbed does not churn). The
  /// cable runs at the cost model's line rate unless overridden.
  void connect(Nic& nic);
  void connect(Nic& nic, std::uint64_t bandwidth_bps,
               sim::Duration latency_ns);

  /// Connects this switch to `peer` with a trunk cable of the given
  /// profile (e.g. a 200 Mb/s, 5 ms WAN link between racks). Both ends
  /// gain a port; the cable is owned by this (initiating) side. Every MAC
  /// known to either fabric is announced across so unicast forwarding
  /// works immediately; later host connects keep propagating. The trunk
  /// graph must be acyclic — loops livelock the flood path.
  sim::DuplexLink& connect_switch(EthernetSwitch& peer,
                                  std::uint64_t bandwidth_bps,
                                  sim::Duration latency_ns);

  std::size_t ports() const noexcept { return ports_.size(); }
  std::uint64_t forwarded() const noexcept { return forwarded_; }
  std::uint64_t flooded() const noexcept { return flooded_; }

  /// The full-duplex cable behind a connected NIC's port — fault injection
  /// flaps or degrades either direction through it. Throws if `nic` was
  /// never connected.
  sim::DuplexLink& cable_of(const Nic& nic);
  sim::DuplexLink& cable(std::size_t port) { return *ports_.at(port).wire; }
  /// The trunk cable to `peer`; throws if no trunk connects the two.
  sim::DuplexLink& trunk_of(const EthernetSwitch& peer);

  const std::string& name() const noexcept { return name_; }

 private:
  struct Port {
    Nic* nic = nullptr;              ///< host port (null on trunk ports)
    EthernetSwitch* peer = nullptr;  ///< trunk port: the far switch
    std::size_t peer_port = 0;       ///< our index in peer->ports_
    sim::Link* tx = nullptr;         ///< direction leaving this switch
    std::unique_ptr<sim::DuplexLink> cable;  ///< owned end (host/initiator)
    sim::DuplexLink* wire = nullptr;         ///< view of the cable, both ends
  };

  void on_ingress(std::size_t port_index, FrameBox frame);
  void forward(std::size_t out_port, FrameBox frame);
  /// Installs mac→via_port and propagates the announcement over every
  /// other trunk (split horizon; terminates because trunks are loop-free).
  void learn_remote(MacAddr mac, std::size_t via_port);

  sim::EventLoop& loop_;
  std::string name_;
  const sim::CostModel& costs_;
  std::vector<Port> ports_;
  std::unordered_map<MacAddr, std::size_t> mac_table_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t flooded_ = 0;
};

}  // namespace ncache::proto
