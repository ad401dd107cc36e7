// MetricRegistry — the repo-wide observability surface, and the one owner
// of the measurement window.
//
// Every subsystem (CPU models, links, copy engines, caches, servers)
// registers its metrics here under a (node, name) label, e.g.
// ("server0", "copy.data_ops"). A simulation counter is registered as a
// pointer to the subsystem's own std::uint64_t cell: the subsystem keeps
// incrementing its Stats struct, and the registry reads the cell when
// sampling. reset_all() (what World::reset_stats() calls) starts a new
// measurement window in two steps:
//
//   1. it zeroes every registered cell (Counter, Bytes and the window
//      high-water gauges of window_max) and resets every Histogram;
//   2. then it runs the on_reset hooks, in registration order.
//
// So no counter can miss the window: registering it is what windows it. A
// hook is left only for state the registry cannot zero by itself. A busy
// window (sim::BusyWindow: CPU cores, link directions, disk spindles)
// restarts at the current time and carries the work still in flight into
// the fresh window, which is why hooks run after the cells are zeroed. A
// counter its owner computes from time (computed_counter: CPU busy time
// summed over cores, ncache.degraded_ns with its open stretch) is
// restarted by its owner's hook. DESIGN.md §5 lists every hook.
//
// Metric names are dotted paths; the JSON exporter groups by node and
// preserves registration order, which — together with the deterministic
// simulation — makes two same-seed runs dump byte-identical snapshots.
// Host-side metrics (registered with host_counter: allocator recycling,
// whose counts depend on what earlier worlds in the process left in the
// slab) are sampled like any other but kept out of that snapshot, and are
// never reset.
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
    std::string node{};  ///< owner label: "server0", "storage0", …
    std::string name{};  ///< dotted metric path: "cpu.utilization", …
    MetricKind kind = MetricKind::Counter;
    std::uint64_t* cell = nullptr;     ///< windowed value (reset_all zeroes)
    U64Fn u64{};                       ///< computed or host-side Counter
    F64Fn f64{};                       ///< Gauge
    LatencyHistogram* hist = nullptr;  ///< Histogram (reset_all resets)
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

  /// A count of simulated events, read from `*cell`.
  void counter(std::string node, std::string name, std::uint64_t* cell);
  /// A simulated byte total, read from `*cell`.
  void bytes(std::string node, std::string name, std::uint64_t* cell);
  /// A simulated counter its owner computes from time instead of counting
  /// into a cell. The owner must restart it from an on_reset hook.
  void computed_counter(std::string node, std::string name, U64Fn fn);
  /// An instantaneous value (utilization, occupancy, ...).
  void gauge(std::string node, std::string name, F64Fn fn);
  /// The largest value seen in the window: a Gauge read from `*cell`.
  void window_max(std::string node, std::string name, std::uint64_t* cell);
  void histogram(std::string node, std::string name, LatencyHistogram* h);
  /// A counter of host behaviour rather than simulated behaviour.
  void host_counter(std::string node, std::string name, U64Fn fn);

  /// Registers a hook run by reset_all() after every cell is zeroed.
  void on_reset(std::function<void()> fn);

  /// Starts a fresh measurement window: zeroes every cell and histogram,
  /// then runs the hooks.
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
  /// Counter / Bytes value, or a Histogram's count; 0 for a Gauge.
  static std::uint64_t count_of(const Metric& m);
  /// A Gauge's value.
  static double value_of(const Metric& m);

  std::vector<Metric> metrics_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace ncache
