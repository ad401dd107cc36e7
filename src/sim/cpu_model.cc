#include "sim/cpu_model.h"

#include <algorithm>
#include <stdexcept>

#include "common/metrics.h"

namespace ncache::sim {

void CpuModel::set_cores(unsigned k) {
  if (k == 0 || k > kMaxCores) {
    throw std::invalid_argument("CpuModel: cores must be in [1, 64]");
  }
  if (submitted_ != 0 || registered_) {
    throw std::logic_error(
        "CpuModel: set_cores() after work was submitted or metrics were "
        "registered");
  }
  // Fresh vector rather than resize: Core is move-only (the completion
  // FIFO holds InlineCallbacks) and the CPU is cold, so nothing carries
  // over.
  cores_ = std::vector<Core>(k);
}

unsigned CpuModel::steer(std::uint64_t flow_hash) const noexcept {
  if (!rss_ || cores_.size() == 1) return 0;
  // mix64 (splitmix finalizer): the low bits of raw tuples are far from
  // uniform, exactly the reason real RSS hashes before indirection.
  flow_hash ^= flow_hash >> 33;
  flow_hash *= 0xff51afd7ed558ccdull;
  flow_hash ^= flow_hash >> 33;
  flow_hash *= 0xc4ceb9fe1a85ec53ull;
  flow_hash ^= flow_hash >> 33;
  return unsigned(flow_hash % cores_.size());
}

void CpuModel::submit_on(unsigned core, Duration cost, InlineCallback done) {
  if (core >= cores_.size()) core = 0;
  Time now = loop_.now();
  // Deterministic steal: if the steered core is backlogged past the
  // threshold and some other core is idle, the lowest-numbered idle core
  // takes the item (what a work-stealing scheduler or kernel softirq
  // spreading would do, collapsed to a deterministic rule).
  if (steal_threshold_ != 0 && cores_.size() > 1 &&
      cores_[core].window.free_at() > now + steal_threshold_) {
    for (unsigned c = 0; c < cores_.size(); ++c) {
      if (c != core && cores_[c].window.free_at() <= now) {
        core = c;
        ++steals_;
        break;
      }
    }
  }

  Core& cpu = cores_[core];
  Time finish = cpu.window.book(now, cost);
  ++cpu.items;
  ++items_;
  ++submitted_;
  if (done) {
    // Completions pop from a per-core FIFO so the dispatch runs inside
    // this core's context (current_core() == core): nested charge() calls
    // attribute to the core doing the work. Per-core finish times are
    // monotone, so FIFO order is finish order.
    cpu.done_q.push_back(std::move(done));
    loop_.schedule_at(finish, [this, core] { dispatch_done(core); });
  }
}

void CpuModel::dispatch_done(unsigned core) {
  InlineCallback done = std::move(cores_[core].done_q.front());
  cores_[core].done_q.pop_front();
  CoreGuard ctx(*this, core);
  done();
}

Duration CpuModel::busy_ns() const noexcept {
  Duration total = 0;
  for (const Core& c : cores_) total += c.window.busy_ns();
  return total;
}

Time CpuModel::free_at() const noexcept {
  Time latest = 0;
  for (const Core& c : cores_) latest = std::max(latest, c.window.free_at());
  return latest;
}

double CpuModel::core_utilization(unsigned core) const noexcept {
  return cores_[core].window.utilization(loop_.now());
}

double CpuModel::utilization() const noexcept {
  Time now = loop_.now();
  // Every core's window restarts together.
  Time window_start = cores_.front().window.window_start();
  if (now <= window_start) return 0.0;
  Duration elapsed = now - window_start;
  Duration busy = 0;
  for (const Core& c : cores_) {
    busy += std::min(elapsed, c.window.elapsed_busy(now));
  }
  return std::min(1.0, double(busy) / double(elapsed * cores_.size()));
}

void CpuModel::restart_window() noexcept {
  for (Core& c : cores_) c.window.restart(loop_.now());
}

void CpuModel::register_metrics(MetricRegistry& registry,
                                const std::string& node) {
  registered_ = true;
  registry.gauge(node, "cpu.utilization", [this] { return utilization(); });
  // Each core's busy time carries its in-flight work across a reset, so
  // the sum is computed and restarted by this model's hook below.
  registry.computed_counter(node, "cpu.busy_ns",
                            [this] { return std::uint64_t(busy_ns()); });
  registry.counter(node, "cpu.items", &items_);
  if (cores_.size() > 1) {
    for (unsigned c = 0; c < cores_.size(); ++c) {
      std::string prefix = "cpu.core" + std::to_string(c);
      registry.counter(node, prefix + ".busy_ns",
                       cores_[c].window.busy_cell());
      registry.counter(node, prefix + ".items", &cores_[c].items);
    }
    registry.counter(node, "cpu.steal", &steals_);
  }
  registry.on_reset([this] { restart_window(); });
}

}  // namespace ncache::sim
