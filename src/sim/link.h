// Serializing point-to-point link model.
//
// A Link is unidirectional: frames queue behind each other at the line
// rate, then arrive after the propagation delay. Its busy time is a
// sim::BusyWindow, like a CPU core's, so benches can identify which
// resource saturates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/busy_window.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::sim {

class Link {
 public:
  Link(EventLoop& loop, std::string name, std::uint64_t bandwidth_bps,
       Duration latency_ns, std::uint32_t per_frame_overhead_bytes)
      : loop_(loop),
        name_(std::move(name)),
        bandwidth_bps_(bandwidth_bps),
        latency_ns_(latency_ns),
        overhead_bytes_(per_frame_overhead_bytes) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Fault-injection drop decision, consulted once per offered frame with
  /// the payload size. Returning true discards the frame (the `delivered`
  /// callback never fires — exactly a frame lost on the wire).
  using DropHook = std::function<bool(std::size_t)>;

  /// Cross-domain delivery: when set, the receive side of this link lives
  /// in a different event-loop domain, and `delivered` is handed to the
  /// hook (with its absolute arrival time) instead of the local loop. The
  /// parallel engine installs these on trunk directions and merges the
  /// staged deliveries deterministically at its window barrier.
  using RemoteHook = std::function<void(Time deliver_at, InlineCallback fn)>;

  /// Transmits a frame of `bytes` payload (wire overhead added internally);
  /// `delivered` fires at the receiver once the last bit arrives (pass
  /// nullptr to model fire-and-forget traffic). Frames offered while the
  /// link is administratively down, or vetoed by the drop hook, vanish
  /// without consuming serialization time.
  void transmit(std::size_t bytes, InlineCallback delivered);

  /// Administrative (carrier) state: while down every offered frame is
  /// silently discarded, as if the cable were unplugged.
  void set_admin_up(bool up) noexcept { admin_up_ = up; }
  bool admin_up() const noexcept { return admin_up_; }

  /// Installs (or clears, with nullptr) the fault-injection drop hook.
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Installs (or clears) the cross-domain delivery hook.
  void set_remote_hook(RemoteHook hook) { remote_ = std::move(hook); }

  std::uint64_t dropped_down() const noexcept { return dropped_down_; }
  std::uint64_t dropped_faults() const noexcept { return dropped_faults_; }

  /// Busy fraction of the current window.
  double utilization() const noexcept {
    return window_.utilization(loop_.now());
  }
  /// Frames and payload bytes serialized since construction.
  std::uint64_t frames() const noexcept { return frames_; }
  std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
  /// Starts a fresh busy window now; frames still serializing carry into it.
  void restart_window() noexcept { window_.restart(loop_.now()); }

  /// Serialization time for a frame of `bytes` payload.
  Duration tx_time(std::size_t bytes) const noexcept;

  /// Publishes utilization() as the gauge `name` under `node` and hooks
  /// restart_window() into the registry reset.
  void register_utilization(MetricRegistry& registry, const std::string& node,
                            const std::string& name);

  const std::string& name() const noexcept { return name_; }

 private:
  EventLoop& loop_;
  std::string name_;
  std::uint64_t bandwidth_bps_;
  Duration latency_ns_;
  std::uint32_t overhead_bytes_;

  BusyWindow window_;
  std::uint64_t frames_ = 0;
  std::uint64_t payload_bytes_ = 0;

  bool admin_up_ = true;
  DropHook drop_hook_;
  RemoteHook remote_;
  std::uint64_t dropped_down_ = 0;
  std::uint64_t dropped_faults_ = 0;
};

/// A full-duplex cable: two independent directions. Each direction is
/// driven by the loop of its *transmitting* side, so a cable spanning two
/// event-loop domains (a partitioned world's trunk) serializes each
/// direction on the correct clock; the single-loop constructor covers the
/// common same-domain case.
struct DuplexLink {
  DuplexLink(EventLoop& loop, const std::string& name,
             std::uint64_t bandwidth_bps, Duration latency_ns,
             std::uint32_t overhead_bytes)
      : DuplexLink(loop, loop, name, bandwidth_bps, latency_ns,
                   overhead_bytes) {}

  DuplexLink(EventLoop& loop_a, EventLoop& loop_b, const std::string& name,
             std::uint64_t bandwidth_bps, Duration latency_ns,
             std::uint32_t overhead_bytes)
      : a_to_b(loop_a, name + ".fwd", bandwidth_bps, latency_ns,
               overhead_bytes),
        b_to_a(loop_b, name + ".rev", bandwidth_bps, latency_ns,
               overhead_bytes) {}

  Link a_to_b;
  Link b_to_a;
};

}  // namespace ncache::sim
