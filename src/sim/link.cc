#include "sim/link.h"

#include "common/metrics.h"

namespace ncache::sim {

Duration Link::tx_time(std::size_t bytes) const noexcept {
  std::uint64_t wire_bytes = bytes + overhead_bytes_;
  // ns = bytes * 8 bits * 1e9 / bps
  return static_cast<Duration>(double(wire_bytes) * 8e9 /
                               double(bandwidth_bps_));
}

void Link::transmit(std::size_t bytes, InlineCallback delivered) {
  // Fault gate: a downed or lossy link eats the frame before it touches
  // the serializer, so drops cost no line time and skew no utilization.
  if (!admin_up_) {
    ++dropped_down_;
    return;
  }
  if (drop_hook_ && drop_hook_(bytes)) {
    ++dropped_faults_;
    return;
  }

  Time done_tx = window_.book(loop_.now(), tx_time(bytes));
  ++frames_;
  payload_bytes_ += bytes;

  Time deliver_at = done_tx + latency_ns_;
  if (remote_) {
    // Receive side lives in another domain: stage the delivery with the
    // engine instead of the local loop. Fire-and-forget frames (null
    // callback) have nothing to do remotely.
    if (delivered) remote_(deliver_at, std::move(delivered));
    return;
  }
  loop_.schedule_at(deliver_at, std::move(delivered));
}

void Link::register_utilization(MetricRegistry& registry,
                                const std::string& node,
                                const std::string& name) {
  registry.gauge(node, name, [this] { return utilization(); });
  registry.on_reset([this] { restart_window(); });
}

}  // namespace ncache::sim
