// Deterministic, seeded fault injection scheduled on the event loop.
//
// FaultInjector owns the clock-driven mechanics: arm a link-down window,
// attach a Gilbert–Elliott loss process to a hop, or fire an arbitrary
// fault action (node crash, disk fault) at a scripted instant. Every
// random decision derives from the injector seed plus a per-stream
// counter, so the same plan on the same seed replays bit-for-bit.
//
// FaultPlan is the declarative layer: a scenario script built up from
// windows and actions, applied to an injector in one shot. Benches and
// tests describe *what* goes wrong and when; the injector decides nothing
// on its own.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/gilbert_elliott.h"
#include "sim/event_loop.h"
#include "sim/link.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::fault {

struct FaultStats {
  std::uint64_t events_fired = 0;  ///< scripted actions executed
  std::uint64_t link_downs = 0;    ///< admin-down transitions applied
  std::uint64_t link_ups = 0;      ///< admin-up (recovery) transitions
  std::uint64_t burst_windows = 0; ///< GE windows armed
  std::uint64_t partitions_armed = 0;  ///< Partition windows scheduled
  std::uint64_t partition_cuts = 0;    ///< link directions those windows cut
  std::uint64_t frames_dropped = 0;    ///< frames every GE stream ate
};

/// A network partition: the set of unidirectional link cuts that isolates
/// one side of a topology. Built by hand or — the usual path — resolved
/// from topology node/rack ids by `topo::World::make_partition`, which
/// knows which trunks and host cables cross the boundary. A symmetric
/// partition lists both directions of every crossing link; an asymmetric
/// (one-way) partition lists only the directions delivering *into* the
/// losing side, modelling a link that still carries traffic out but
/// delivers nothing back.
struct Partition {
  struct Cut {
    sim::Link* link = nullptr;
    /// The event loop that owns the link's transmitting side. In a
    /// partitioned (multi-domain) world admin toggles must execute on
    /// that loop, ordered with the link's own traffic — a toggle fired
    /// from another domain would land wherever that domain's window had
    /// got to. Null = the injector's own loop (single-loop worlds).
    sim::EventLoop* loop = nullptr;
  };
  std::string name;  ///< for logs ("rack1", "server2+server3 one-way", ...)
  std::vector<Cut> cuts;
};

class FaultInjector {
 public:
  FaultInjector(sim::EventLoop& loop, std::uint64_t seed)
      : loop_(loop), seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Fires `action` at absolute sim time `when` (clamped to now if past).
  void at(sim::Time when, std::function<void()> action);

  /// Admin-down on one direction for [at, at+duration).
  void link_down(sim::Link& link, sim::Time at, sim::Duration duration);
  /// Both directions of a cable — the usual "cable pulled" flap.
  void duplex_down(sim::DuplexLink& cable, sim::Time at,
                   sim::Duration duration);

  /// Cuts every link direction in `p` for [at, at+duration); duration 0
  /// cuts without healing (the plan must heal explicitly). Each toggle is
  /// scheduled on the cut's owning loop, so partitions compose with the
  /// ParallelEngine: at fire time each domain flips only its own links.
  /// Stats are counted at arm time, so the fired toggles touch nothing
  /// but their link.
  void partition(const Partition& p, sim::Time at, sim::Duration duration);

  /// Gilbert–Elliott burst loss on `link` during [at, at+duration). The
  /// stream's RNG seeds from (injector seed, stream ordinal), so adding a
  /// window never perturbs the draws of earlier windows.
  void burst_loss(sim::Link& link, sim::Time at, sim::Duration duration,
                  GilbertElliott::Params params);
  void duplex_burst_loss(sim::DuplexLink& cable, sim::Time at,
                         sim::Duration duration,
                         GilbertElliott::Params params);

  const FaultStats& stats() const noexcept { return stats_; }

  /// Publishes fault.* counters under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

  sim::EventLoop& loop() noexcept { return loop_; }

 private:
  sim::EventLoop& loop_;
  std::uint64_t seed_;
  std::uint64_t next_stream_ = 0;
  std::vector<std::unique_ptr<GilbertElliott>> streams_;
  FaultStats stats_;
};

/// A scripted fault scenario: built declaratively, applied in one shot.
class FaultPlan {
 public:
  FaultPlan& link_down(sim::Link& link, sim::Time at, sim::Duration duration);
  FaultPlan& duplex_down(sim::DuplexLink& cable, sim::Time at,
                         sim::Duration duration);
  FaultPlan& burst_loss(sim::Link& link, sim::Time at, sim::Duration duration,
                        GilbertElliott::Params params);
  FaultPlan& duplex_burst_loss(sim::DuplexLink& cable, sim::Time at,
                               sim::Duration duration,
                               GilbertElliott::Params params);
  /// Cut-then-heal window over a resolved Partition (copied into the
  /// plan, so the Partition value may be a temporary).
  FaultPlan& partition(Partition p, sim::Time at, sim::Duration duration);
  /// Arbitrary scripted action (node crash, disk fault, ...).
  FaultPlan& action(sim::Time at, std::function<void()> fn);

  std::size_t size() const noexcept { return entries_.size(); }
  void apply(FaultInjector& injector) const;

 private:
  std::vector<std::function<void(FaultInjector&)>> entries_;
};

}  // namespace ncache::fault
