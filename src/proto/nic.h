// NIC model: the boundary between the host (CPU-charged work) and the
// wire (link-serialized frames).
//
// This is also where the NCache module attaches: the paper inserts NCache
// "into the layer between the network stack and the Ethernet device
// driver" (§4.1), so the NIC exposes egress/ingress filter hooks that see
// every frame just before transmit / just after receive.
#pragma once

#include <functional>
#include <string>

#include "netbuf/copy_engine.h"
#include "proto/frame.h"
#include "sim/cost_model.h"
#include "sim/cpu_model.h"
#include "sim/link.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::proto {

struct NicStats {
  std::uint64_t tx_bytes = 0;  ///< wire bytes handed to the driver
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t dropped = 0;  ///< frames an egress/ingress filter refused
};

class Nic {
 public:
  /// Called with each frame at the driver boundary. May rewrite the frame
  /// (NCache substitution). Returning false drops the frame.
  using FrameFilter = std::function<bool(Frame&)>;
  /// Delivery of a received frame into the network stack.
  using RxHandler = std::function<void(Frame)>;

  Nic(sim::EventLoop& loop, sim::CpuModel& cpu, netbuf::CopyEngine& copier,
      const sim::CostModel& costs, std::string name, MacAddr mac,
      Ipv4Addr ip);

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  MacAddr mac() const noexcept { return mac_; }
  Ipv4Addr ip() const noexcept { return ip_; }
  const std::string& name() const noexcept { return name_; }

  /// Wires the transmit side (called by the switch when connecting):
  /// frames serialize on `tx` and are then handed to `deliver_at_peer`.
  void attach_tx(sim::Link* tx,
                 std::function<void(FrameBox)> deliver_at_peer) {
    tx_ = tx;
    tx_peer_ = std::move(deliver_at_peer);
  }
  bool attached() const noexcept { return tx_ != nullptr; }

  /// Transmit path: egress filter -> checksum -> CPU (driver/tx work) ->
  /// link serialization. The frame is boxed here for its whole trip.
  void send(Frame frame);

  /// Receive path, invoked by the switch-side link delivery: CPU
  /// (interrupt/driver work) -> ingress filter -> stack handler.
  void deliver(FrameBox frame);

  void set_rx_handler(RxHandler h) { rx_ = std::move(h); }
  void set_egress_filter(FrameFilter f) { egress_filter_ = std::move(f); }
  void set_ingress_filter(FrameFilter f) { ingress_filter_ = std::move(f); }

  const NicStats& stats() const noexcept { return stats_; }

  sim::Link* tx_link() noexcept { return tx_; }

  /// Publishes <prefix>.tx/.rx byte and frame counters and the drop count
  /// under `node`, plus the tx link's utilization (the NIC must be
  /// attached).
  void register_metrics(MetricRegistry& registry, const std::string& node,
                        const std::string& prefix);

 private:
  sim::EventLoop& loop_;
  sim::CpuModel& cpu_;
  netbuf::CopyEngine& copier_;
  const sim::CostModel& costs_;
  std::string name_;
  MacAddr mac_;
  Ipv4Addr ip_;
  sim::Link* tx_ = nullptr;
  std::function<void(FrameBox)> tx_peer_;

  RxHandler rx_;
  FrameFilter egress_filter_;
  FrameFilter ingress_filter_;

  NicStats stats_;
};

}  // namespace ncache::proto
