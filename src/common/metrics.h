// MetricRegistry — the repo-wide observability surface.
//
// Every subsystem (CPU models, links, copy engines, caches, servers)
// registers its counters/gauges here under a (node, name) label, e.g.
// ("server", "copy.data_ops"). The registry samples live values through
// callbacks, so registration is cheap and subsystems keep their own
// storage; `reset_all()` fans out to per-subsystem reset hooks so a
// measurement window can be restarted from one place (this is what
// Testbed::reset_stats() is built on).
//
// Metric names are dotted paths; the JSON exporter groups by node and
// preserves registration order, which — together with the deterministic
// simulation — makes two same-seed runs dump byte-identical snapshots.
// Host-side metrics (registered with host_counter: allocator recycling,
// whose counts depend on what earlier worlds in the process left in the
// slab) are sampled like any other but kept out of that snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/stats.h"

namespace ncache {

enum class MetricKind : std::uint8_t {
  Counter,    ///< monotonically increasing count (ops, requests, frames)
  Gauge,      ///< instantaneous double (utilization, ratios, sizes)
  Bytes,      ///< byte total (exported raw; rates derive from elapsed time)
  Histogram,  ///< latency histogram (exported as count/quantile summary)
};

class MetricRegistry {
 public:
  using U64Fn = std::function<std::uint64_t()>;
  using F64Fn = std::function<double()>;

  struct Metric {
    std::string node;   ///< owner label: "server", "storage", "client0", …
    std::string name;   ///< dotted metric path: "cpu.utilization", …
    MetricKind kind = MetricKind::Counter;
    U64Fn u64;                              ///< Counter / Bytes
    F64Fn f64;                              ///< Gauge
    const LatencyHistogram* hist = nullptr; ///< Histogram
    bool host = false;  ///< host-side: excluded from to_json()
  };

  /// A sampled scalar (histograms flatten into summary scalars on export).
  struct Sample {
    std::string node;
    std::string name;
    MetricKind kind;
    std::uint64_t u64 = 0;
    double f64 = 0.0;
  };

  void counter(std::string node, std::string name, U64Fn fn);
  void gauge(std::string node, std::string name, F64Fn fn);
  void bytes(std::string node, std::string name, U64Fn fn);
  void histogram(std::string node, std::string name, const LatencyHistogram* h);
  /// A counter of host behaviour rather than simulated behaviour.
  void host_counter(std::string node, std::string name, U64Fn fn);

  /// Registers a hook run by reset_all(); subsystems use this to clear
  /// their window counters when a new measurement interval starts.
  void on_reset(std::function<void()> fn);

  /// Starts a fresh measurement window across every registered subsystem.
  void reset_all();

  /// Samples every metric now (in registration order), host-side ones
  /// included.
  std::vector<Sample> sample() const;

  // Point lookups for typed views (Testbed::Snapshot) — zero if absent.
  std::uint64_t counter_value(std::string_view node, std::string_view name) const;
  double gauge_value(std::string_view node, std::string_view name) const;
  bool has(std::string_view node, std::string_view name) const;

  /// Snapshot of the simulation metrics as {"node": {"metric.name": value,
  /// ...}, ...} grouped by node in first-registration order; with
  /// `host_side`, of the host-side metrics instead. Histograms expand to
  /// an object {count, p50_ns, p99_ns, max_ns}.
  json::Value to_json(bool host_side = false) const;

  std::size_t size() const noexcept { return metrics_.size(); }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

 private:
  const Metric* find(std::string_view node, std::string_view name) const;

  std::vector<Metric> metrics_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace ncache
