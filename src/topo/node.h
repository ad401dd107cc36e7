// Node construction and cabling shared by every materialized topology.
//
// The topology Instantiator is the one place that builds simulated hosts
// and cables them into switches. A Node is one simulated host — CPU + copy
// engine + network stack — and the helpers keep the cables-first crash
// discipline in one place instead of duplicated per topology.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netbuf/copy_engine.h"
#include "proto/stack.h"
#include "proto/switch.h"
#include "sim/cpu_model.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::topo {

/// One simulated host: CPU + copy engine + network stack.
struct Node {
  Node(sim::EventLoop& loop, const sim::CostModel& costs,
       std::shared_ptr<proto::AddressBook> book, std::string name)
      : cpu(loop, name + ".cpu"),
        copier(cpu, costs),
        stack(loop, cpu, copier, costs, name, std::move(book)) {}

  sim::CpuModel cpu;
  netbuf::CopyEngine copier;
  proto::NetworkStack stack;

  /// Registers this host's CPU, copy engine and stack/NIC metrics under
  /// one node label.
  void register_metrics(MetricRegistry& registry, const std::string& node) {
    cpu.register_metrics(registry, node);
    copier.register_metrics(registry, node);
    stack.register_metrics(registry, node);
  }
};

/// One NIC of a node under construction. Unset bandwidth/latency inherit
/// the cost model's line rate (the classic in-rack cable).
struct NicSpec {
  proto::MacAddr mac = 0;
  proto::Ipv4Addr ip = 0;
  std::uint64_t bandwidth_bps = 0;          ///< 0: costs.link_bandwidth_bps
  /// Unset: costs.link_latency_ns.
  std::optional<sim::Duration> latency_ns = std::nullopt;
  proto::EthernetSwitch* ether = nullptr;   ///< nullptr: caller's default
};

/// Builds a Node, adds its NICs and cables each into `ether` (or into the
/// per-NIC switch override — multi-rack nodes cable into different
/// fabrics).
std::unique_ptr<Node> make_wired_node(sim::EventLoop& loop,
                                      const sim::CostModel& costs,
                                      std::shared_ptr<proto::AddressBook> book,
                                      proto::EthernetSwitch& ether,
                                      std::string name,
                                      const std::vector<NicSpec>& nics);

/// Admin-up/-down both directions of every cable behind `stack`'s NICs.
/// Crash paths drop cables before tearing the node down so frames already
/// queued by dying daemons vanish on the wire instead of racing the
/// restarted instance.
void set_cables(proto::EthernetSwitch& ether, proto::NetworkStack& stack,
                bool up);

}  // namespace ncache::topo
