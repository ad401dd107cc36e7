#include "proto/nic.h"

#include <stdexcept>

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::proto {

Nic::Nic(sim::EventLoop& loop, sim::CpuModel& cpu, netbuf::CopyEngine& copier,
         const sim::CostModel& costs, std::string name, MacAddr mac,
         Ipv4Addr ip)
    : loop_(loop),
      cpu_(cpu),
      copier_(copier),
      costs_(costs),
      name_(std::move(name)),
      mac_(mac),
      ip_(ip) {}

void Nic::send(Frame frame) {
  if (!tx_) throw std::logic_error("Nic::send: not attached to a link");

  if (egress_filter_ && !egress_filter_(frame)) {
    ++dropped_;
    return;
  }

  // L4 checksum: when the NIC offloads (testbed default), the host CPU pays
  // nothing. In software mode the CPU walks every physical payload byte
  // plus the headers — unless NCache inherited the originator's checksum.
  if (!costs_.checksum_offload && !frame.l4_checksum_inherited) {
    copier_.charge_checksum(frame.payload.size() + frame.l3l4_header_bytes());
  }

  std::size_t wire = frame.wire_bytes();
  tx_meter_.add(wire);
  tx_frames_.add();

  // Driver/stack per-frame transmit work serializes on the host CPU, then
  // the frame serializes on the link. TCP frames carry a higher per-packet
  // protocol cost than UDP frames.
  sim::Duration cost = frame.tcp
                           ? sim::Duration(double(costs_.packet_tx_ns) *
                                           costs_.tcp_packet_factor)
                           : costs_.packet_tx_ns;
  cpu_.submit(cost, [this, f = box_frame(std::move(frame)), wire]() mutable {
    tx_->transmit(wire, [this, f = std::move(f)]() mutable {
      tx_peer_(std::move(f));
    });
  });
}

void Nic::deliver(FrameBox f) {
  rx_meter_.add(f->wire_bytes());
  rx_frames_.add();

  if (!costs_.checksum_offload && !f->l4_checksum_inherited) {
    copier_.charge_checksum(f->payload.size() + f->l3l4_header_bytes());
  }

  sim::Duration cost = f->tcp
                           ? sim::Duration(double(costs_.packet_rx_ns) *
                                           costs_.tcp_packet_factor)
                           : costs_.packet_rx_ns;
  cpu_.submit(cost, [this, f = std::move(f)] {
    if (ingress_filter_ && !ingress_filter_(*f)) {
      ++dropped_;
      return;
    }
    if (rx_) rx_(std::move(*f));
  });
}

void Nic::register_metrics(MetricRegistry& registry, const std::string& node,
                           const std::string& prefix) {
  registry.bytes(node, prefix + ".tx.bytes",
                 [this] { return tx_meter_.bytes(); });
  registry.bytes(node, prefix + ".rx.bytes",
                 [this] { return rx_meter_.bytes(); });
  registry.counter(node, prefix + ".tx.frames",
                   [this] { return tx_frames_.value(); });
  registry.counter(node, prefix + ".rx.frames",
                   [this] { return rx_frames_.value(); });
  registry.counter(node, prefix + ".dropped", [this] { return dropped_; });
  // The tx link attaches when the switch connects; sample through the
  // pointer so registration order doesn't matter.
  registry.gauge(node, prefix + ".tx.utilization",
                 [this] { return tx_ ? tx_->utilization() : 0.0; });
  registry.on_reset([this] {
    tx_meter_.reset();
    rx_meter_.reset();
    tx_frames_.reset();
    rx_frames_.reset();
    if (tx_) tx_->reset_stats();
  });
}

}  // namespace ncache::proto
