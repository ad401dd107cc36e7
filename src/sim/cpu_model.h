// SMP CPU model: K FIFO cores with RSS-style flow steering and
// utilization accounting.
//
// Work is submitted with a cost in simulated nanoseconds; each core
// executes its items in order and invokes the completion callback when the
// item finishes. Utilization over a measurement window is busy-time /
// (elapsed * cores), which for K=1 is exactly how the paper reports "CPU
// utilization ratio"; a K=1 model is byte-identical to the historical
// single-core implementation (same event times, same accounting).
//
// Core selection mirrors how a pass-through server actually spreads load:
//
//   * steer(flow_hash) — receive-side-scaling: the hash of a flow's
//     4-tuple (or an FHO key) picks the core, so one flow's requests stay
//     on one core. Returns core 0 when RSS is disabled or K == 1.
//   * submit_on(core, ...) — explicit placement (per-core daemon shards).
//   * submit(...)/charge(...) with no core run on the *current* core: while
//     a completion callback (or the coroutine it resumes) executes, the
//     model remembers which core it is running on, so fire-and-forget
//     charge() costs from nested code (copy engines, checksum offload
//     paths) are attributed to the core actually doing the work rather
//     than defaulting to core 0. Outside any completion context, core 0.
//   * A deterministic steal rule models the scheduler pulling work off a
//     backlogged core: when the steered core's backlog exceeds
//     steal_threshold and another core is idle, the item runs there
//     instead (counted in steals(), surfaced as "cpu.steal").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ring_queue.h"
#include "common/task.h"
#include "sim/event_loop.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::sim {

class CpuModel {
 public:
  static constexpr unsigned kMaxCores = 64;
  /// current_core() outside any completion context.
  static constexpr unsigned kNoCore = ~0u;

  CpuModel(EventLoop& loop, std::string name, unsigned cores = 1)
      : loop_(loop), name_(std::move(name)) {
    set_cores(cores);
  }

  CpuModel(const CpuModel&) = delete;
  CpuModel& operator=(const CpuModel&) = delete;

  /// Reshapes the model to `k` cores. Only valid while the CPU is cold
  /// (no items submitted yet) — topologies fix the core count at build.
  void set_cores(unsigned k);
  unsigned cores() const noexcept { return unsigned(cores_.size()); }

  /// RSS: maps a flow hash to a core. Identity-stable for the lifetime of
  /// the run; returns 0 when K == 1 or RSS steering is disabled.
  unsigned steer(std::uint64_t flow_hash) const noexcept;

  /// Disabling RSS forces steer() to core 0 (the "everything on one core"
  /// ablation; K>1 with RSS off is byte-identical to K=1).
  void set_rss(bool enabled) noexcept { rss_ = enabled; }
  bool rss() const noexcept { return rss_; }

  /// Backlog (in ns) beyond which a submission may be stolen by an idle
  /// core; 0 disables stealing.
  void set_steal_threshold(Duration ns) noexcept { steal_threshold_ = ns; }

  /// Enqueues `cost` ns of work on the current-context core (core 0 when
  /// outside a completion); `done` fires when the core completes it.
  void submit(Duration cost, InlineCallback done) {
    submit_on(context_core(), cost, std::move(done));
  }

  /// Enqueues on a specific core (subject to the steal rule).
  void submit_on(unsigned core, Duration cost, InlineCallback done);

  /// Charges work with no completion callback (cost still serializes on
  /// the core and counts toward utilization; used for bookkeeping-style
  /// costs whose completion nobody waits on). Attributed to the
  /// current-context core — the core whose completion callback is running
  /// — not unconditionally to core 0.
  void charge(Duration cost) { submit_on(context_core(), cost, nullptr); }
  void charge_on(unsigned core, Duration cost) {
    submit_on(core, cost, nullptr);
  }

  /// Awaitable variant for coroutine code:
  ///   co_await cpu.run(cost);          // current-context core
  ///   co_await cpu.run_on(core, cost); // explicit core
  /// The coroutine resumes *inside* that core's completion context, so
  /// synchronous work after the co_await (up to the next suspension)
  /// attributes its charges to the same core.
  auto run_on(unsigned core, Duration cost) {
    struct Awaiter {
      CpuModel& cpu;
      unsigned core;
      Duration cost;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cpu.submit_on(core, cost, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, core, cost};
  }
  auto run(Duration cost) { return run_on(context_core(), cost); }

  /// The core whose completion callback is currently executing, or
  /// kNoCore outside any completion context.
  unsigned current_core() const noexcept { return current_core_; }

  /// RAII core-context override for synchronous stretches that charge CPU
  /// outside a completion callback (e.g. a daemon doing copy work for a
  /// steered request after resuming from a disk await).
  class CoreGuard {
   public:
    CoreGuard(CpuModel& cpu, unsigned core) noexcept
        : cpu_(cpu), prev_(cpu.current_core_) {
      cpu_.current_core_ = core;
    }
    ~CoreGuard() { cpu_.current_core_ = prev_; }
    CoreGuard(const CoreGuard&) = delete;
    CoreGuard& operator=(const CoreGuard&) = delete;

   private:
    CpuModel& cpu_;
    unsigned prev_;
  };

  /// Busy fraction since the last reset_stats() across all cores, in
  /// [0,1] (busy time past `now`, summed over cores, over K * elapsed).
  double utilization() const noexcept;
  /// Same for one core.
  double core_utilization(unsigned core) const noexcept;

  Duration busy_ns() const noexcept;          ///< summed over cores
  std::uint64_t items() const noexcept;       ///< summed over cores
  Duration core_busy_ns(unsigned c) const noexcept { return cores_[c].busy_ns; }
  std::uint64_t core_items(unsigned c) const noexcept { return cores_[c].items; }
  std::uint64_t steals() const noexcept { return steals_; }
  const std::string& name() const noexcept { return name_; }

  /// Time at which all currently-queued work (on every core) completes.
  Time free_at() const noexcept;
  Time core_free_at(unsigned c) const noexcept { return cores_[c].free_at; }

  /// Starts a fresh measurement window at the current simulated time.
  void reset_stats() noexcept;

  /// Publishes cpu.utilization / cpu.busy_ns / cpu.items under `node` and
  /// hooks reset_stats() into the registry's measurement-window reset.
  /// SMP models (K > 1) additionally publish cpu.coreN.busy_ns /
  /// cpu.coreN.items per core and the cpu.steal counter.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct Core {
    Time free_at = 0;
    Duration busy_ns = 0;
    std::uint64_t items = 0;
    /// Completion callbacks in finish order (per-core finish times are
    /// monotone, so a FIFO matches the schedule order exactly).
    RingQueue<InlineCallback> done_q;
  };

  unsigned context_core() const noexcept {
    return current_core_ == kNoCore ? 0 : current_core_;
  }
  void dispatch_done(unsigned core);

  EventLoop& loop_;
  std::string name_;
  std::vector<Core> cores_;
  Time window_start_ = 0;
  unsigned current_core_ = kNoCore;
  bool rss_ = true;
  Duration steal_threshold_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t submitted_ = 0;  ///< total ever; guards set_cores()
};

}  // namespace ncache::sim
