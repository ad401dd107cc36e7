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
    ++stats_.dropped;
    return;
  }

  // L4 checksum: when the NIC offloads (testbed default), the host CPU pays
  // nothing. In software mode the CPU walks every physical payload byte
  // plus the headers — unless NCache inherited the originator's checksum.
  if (!costs_.checksum_offload && !frame.l4_checksum_inherited) {
    copier_.charge_checksum(frame.payload.size() + frame.l3l4_header_bytes());
  }

  std::size_t wire = frame.wire_bytes();
  stats_.tx_bytes += wire;
  ++stats_.tx_frames;

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
  stats_.rx_bytes += f->wire_bytes();
  ++stats_.rx_frames;

  if (!costs_.checksum_offload && !f->l4_checksum_inherited) {
    copier_.charge_checksum(f->payload.size() + f->l3l4_header_bytes());
  }

  sim::Duration cost = f->tcp
                           ? sim::Duration(double(costs_.packet_rx_ns) *
                                           costs_.tcp_packet_factor)
                           : costs_.packet_rx_ns;
  cpu_.submit(cost, [this, f = std::move(f)] {
    if (ingress_filter_ && !ingress_filter_(*f)) {
      ++stats_.dropped;
      return;
    }
    if (rx_) rx_(std::move(*f));
  });
}

void Nic::register_metrics(MetricRegistry& registry, const std::string& node,
                           const std::string& prefix) {
  if (!tx_) {
    throw std::logic_error("Nic::register_metrics: not attached to a link");
  }
  registry.bytes(node, prefix + ".tx.bytes", &stats_.tx_bytes);
  registry.bytes(node, prefix + ".rx.bytes", &stats_.rx_bytes);
  registry.counter(node, prefix + ".tx.frames", &stats_.tx_frames);
  registry.counter(node, prefix + ".rx.frames", &stats_.rx_frames);
  registry.counter(node, prefix + ".dropped", &stats_.dropped);
  tx_->register_utilization(registry, node, prefix + ".tx.utilization");
}

}  // namespace ncache::proto
