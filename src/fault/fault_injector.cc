#include "fault/fault_injector.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::fault {

void FaultInjector::at(sim::Time when, std::function<void()> action) {
  sim::Time t = std::max(when, loop_.now());
  loop_.schedule_at(t, [this, fn = std::move(action)] {
    ++stats_.events_fired;
    fn();
  });
}

void FaultInjector::link_down(sim::Link& link, sim::Time at,
                              sim::Duration duration) {
  sim::Link* l = &link;
  this->at(at, [this, l] {
    l->set_admin_up(false);
    ++stats_.link_downs;
  });
  this->at(at + duration, [this, l] {
    l->set_admin_up(true);
    ++stats_.link_ups;
  });
}

void FaultInjector::duplex_down(sim::DuplexLink& cable, sim::Time at,
                                sim::Duration duration) {
  link_down(cable.a_to_b, at, duration);
  link_down(cable.b_to_a, at, duration);
}

void FaultInjector::partition(const Partition& p, sim::Time at,
                              sim::Duration duration) {
  ++stats_.partitions_armed;
  NC_WARN("fault", "partition '%s': %zu cuts at %llu ns for %llu ns",
          p.name.c_str(), p.cuts.size(), (unsigned long long)at,
          (unsigned long long)duration);
  for (const Partition::Cut& c : p.cuts) {
    if (!c.link) continue;
    ++stats_.partition_cuts;
    sim::EventLoop& lp = c.loop ? *c.loop : loop_;
    sim::Link* l = c.link;
    // The fired lambdas only flip the admin flag; in a multi-domain world
    // they run in the owning domain's window (stats are arm-time, above).
    lp.schedule_at(std::max(at, lp.now()), [l] { l->set_admin_up(false); });
    if (duration > 0) {
      lp.schedule_at(std::max(at + duration, lp.now()),
                     [l] { l->set_admin_up(true); });
    }
  }
}

void FaultInjector::burst_loss(sim::Link& link, sim::Time at,
                               sim::Duration duration,
                               GilbertElliott::Params params) {
  // Stream seed mixes the injector seed with the stream ordinal so every
  // window draws from its own independent, reproducible sequence.
  std::uint64_t stream_seed =
      seed_ ^ (0x9e3779b97f4a7c15ULL * (next_stream_ + 1));
  ++next_stream_;
  streams_.push_back(std::make_unique<GilbertElliott>(params, stream_seed));
  GilbertElliott* ge = streams_.back().get();

  sim::Link* l = &link;
  this->at(at, [this, l, ge] {
    l->set_drop_hook([this, ge](std::size_t) {
      if (!ge->drop()) return false;
      ++stats_.frames_dropped;
      return true;
    });
    ++stats_.burst_windows;
  });
  this->at(at + duration, [l] { l->set_drop_hook(nullptr); });
}

void FaultInjector::duplex_burst_loss(sim::DuplexLink& cable, sim::Time at,
                                      sim::Duration duration,
                                      GilbertElliott::Params params) {
  burst_loss(cable.a_to_b, at, duration, params);
  burst_loss(cable.b_to_a, at, duration, params);
}

void FaultInjector::register_metrics(MetricRegistry& registry,
                                     const std::string& node) {
  registry.counter(node, "fault.events_fired", &stats_.events_fired);
  registry.counter(node, "fault.link_downs", &stats_.link_downs);
  registry.counter(node, "fault.link_ups", &stats_.link_ups);
  registry.counter(node, "fault.burst_windows", &stats_.burst_windows);
  registry.counter(node, "fault.partitions_armed", &stats_.partitions_armed);
  registry.counter(node, "fault.partition_cuts", &stats_.partition_cuts);
  registry.counter(node, "fault.frames_dropped", &stats_.frames_dropped);
}

FaultPlan& FaultPlan::link_down(sim::Link& link, sim::Time at,
                                sim::Duration duration) {
  entries_.push_back([&link, at, duration](FaultInjector& inj) {
    inj.link_down(link, at, duration);
  });
  return *this;
}

FaultPlan& FaultPlan::duplex_down(sim::DuplexLink& cable, sim::Time at,
                                  sim::Duration duration) {
  entries_.push_back([&cable, at, duration](FaultInjector& inj) {
    inj.duplex_down(cable, at, duration);
  });
  return *this;
}

FaultPlan& FaultPlan::burst_loss(sim::Link& link, sim::Time at,
                                 sim::Duration duration,
                                 GilbertElliott::Params params) {
  entries_.push_back([&link, at, duration, params](FaultInjector& inj) {
    inj.burst_loss(link, at, duration, params);
  });
  return *this;
}

FaultPlan& FaultPlan::duplex_burst_loss(sim::DuplexLink& cable, sim::Time at,
                                        sim::Duration duration,
                                        GilbertElliott::Params params) {
  entries_.push_back([&cable, at, duration, params](FaultInjector& inj) {
    inj.duplex_burst_loss(cable, at, duration, params);
  });
  return *this;
}

FaultPlan& FaultPlan::partition(Partition p, sim::Time at,
                                sim::Duration duration) {
  entries_.push_back([p = std::move(p), at, duration](FaultInjector& inj) {
    inj.partition(p, at, duration);
  });
  return *this;
}

FaultPlan& FaultPlan::action(sim::Time at, std::function<void()> fn) {
  entries_.push_back([at, fn = std::move(fn)](FaultInjector& inj) {
    inj.at(at, fn);
  });
  return *this;
}

void FaultPlan::apply(FaultInjector& injector) const {
  for (const auto& e : entries_) e(injector);
}

}  // namespace ncache::fault
