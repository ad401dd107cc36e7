// Shared accounting for workload generators.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/stats.h"
#include "sim/event_loop.h"
#include "sim/parallel.h"

namespace ncache::workload {

struct Counters {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;
  LatencyHistogram latency;

  void record(std::uint64_t op_bytes, sim::Duration lat_ns, bool ok) {
    if (ok) {
      ++ops;
      bytes += op_bytes;
      latency.record(lat_ns);
    } else {
      ++errors;
    }
  }

  double ops_per_sec(sim::Duration elapsed_ns) const {
    return elapsed_ns ? double(ops) * 1e9 / double(elapsed_ns) : 0.0;
  }
  double mb_per_sec(sim::Duration elapsed_ns) const {
    return elapsed_ns ? double(bytes) / 1e6 * 1e9 / double(elapsed_ns) : 0.0;
  }
};

/// Cooperative stop flag shared between a measurement loop and its
/// workers. The simulation runs on one thread; the fields stay
/// std::atomic because perfbench's harness calls live_workers.load().
struct StopFlag {
  std::atomic<bool> stopped = false;
  std::atomic<int> live_workers = 0;
};

/// Standard measurement driver: runs the event loop for `duration` of
/// simulated time, raises the stop flag, then drains in-flight work.
/// Returns the measurement window (== duration; the small tail of ops
/// completing during the drain is counted, as in any fixed-interval
/// benchmark).
inline sim::Duration run_measurement(sim::EventLoop& loop, StopFlag& stop,
                                     sim::Duration duration) {
  sim::Time start = loop.now();
  loop.run_until(start + duration);
  stop.stopped = true;
  while (stop.live_workers > 0 && loop.step()) {
  }
  return duration;
}

/// Partitioned-world variant: drives every domain to the deadline through
/// the engine, raises the flag, then keeps running rounds until the
/// workers drain (or the world goes quiet).
inline sim::Duration run_measurement(sim::ParallelEngine& engine,
                                     StopFlag& stop, sim::Duration duration) {
  sim::Time start = engine.now();
  engine.run_until(start + duration);
  stop.stopped = true;
  engine.run([&] { return stop.live_workers.load() <= 0; });
  return duration;
}

}  // namespace ncache::workload
