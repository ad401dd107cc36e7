// Deterministic discrete-event loop: the heart of the simulation.
//
// Time is a 64-bit nanosecond counter. Events scheduled for the same
// instant fire in scheduling order (a monotone sequence number breaks
// ties), which makes every run bit-for-bit reproducible.
//
// The pending set lives in a hierarchical timer wheel (sim/timer_wheel.h)
// and callbacks in 48-byte small-buffer InlineCallback slots
// (sim/inline_callback.h), so a steady-state schedule/dispatch cycle
// performs zero heap allocations — the property bench/perf_core.cc
// measures and tools/perf_compare.py tracks across PRs.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/task.h"
#include "sim/inline_callback.h"
#include "sim/timer_wheel.h"

namespace ncache::sim {

constexpr Duration kMicrosecond = 1'000;
constexpr Duration kMillisecond = 1'000'000;
constexpr Duration kSecond = 1'000'000'000;

/// Names one scheduled event for EventLoop::cancel(). The sequence number
/// is unique per loop, so a handle goes stale (and cancelling it does
/// nothing) once its event has fired or been cancelled, even after the
/// wheel node is reused. A default handle names nothing.
struct TimerHandle {
  TimerWheel::Node* node = nullptr;
  std::uint64_t seq = 0;
};

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  /// From here on cancel() is a no-op: objects destroyed with the pending
  /// events or the reaped frames may cancel their timers on the way out.
  ~EventLoop() { closing_ = true; }

  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now if in the past;
  /// clamps are counted in clamped_events()). The handle may be ignored.
  TimerHandle schedule_at(Time at, InlineCallback fn) {
    if (at < now_) {
      at = now_;
      ++clamped_;
    }
    std::uint64_t seq = next_seq_++;
    return {wheel_.push(at, seq, std::move(fn)), seq};
  }

  /// Schedules `fn` after `delay` ns.
  TimerHandle schedule_in(Duration delay, InlineCallback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Removes a pending event and destroys its callback now. The event is
  /// never dispatched, leaves pending()/idle() at once and never moves
  /// the clock; run() and dispatched() never count it. A stale or default
  /// handle is a no-op, including from inside the event's own dispatch.
  void cancel(TimerHandle h) noexcept {
    if (!h.node || closing_ || h.node->e.seq != h.seq) return;
    wheel_.cancel(h.node);
  }

  /// Runs until no events remain. Returns number of events processed.
  std::size_t run();

  /// Runs until the clock would pass `deadline` or no events remain.
  /// Events at exactly `deadline` are processed.
  std::size_t run_until(Time deadline);

  /// Runs every event strictly before `horizon` (events at exactly
  /// `horizon` stay pending) and leaves the clock at the last event
  /// processed. The conservative-window primitive of the parallel engine:
  /// a domain may safely run to its neighbors' floor + lookahead.
  std::size_t run_before(Time horizon);

  /// Processes a single event; returns false if none is pending.
  bool step();

  /// Earliest pending event time, or kNoEvent when the loop is idle.
  /// Leaves the wheel cursor where it is.
  static constexpr Time kNoEvent = TimerWheel::kNoLimit;
  Time next_event_time() const noexcept { return wheel_.next_time(); }

  /// Moves the clock forward to `t` without dispatching anything (no-op if
  /// `t` is in the past). The parallel engine aligns domain clocks at a
  /// deadline with this, exactly like run_until()'s trailing advance.
  void advance_to(Time t) noexcept {
    if (t > now_) now_ = t;
  }

  bool idle() const noexcept { return wheel_.empty(); }
  std::size_t pending() const noexcept { return wheel_.size(); }

  /// Total events ever dispatched (for sanity checks in tests).
  std::uint64_t dispatched() const noexcept { return dispatched_; }

  /// Schedules whose target time was already in the past and got clamped
  /// to now. A burst of these means some model is emitting events faster
  /// than it advances time; surfaced as the "sim.clamped_events" metric.
  std::uint64_t clamped_events() const noexcept { return clamped_; }
  /// clamped_events()'s storage, for a metric registry to read and reset.
  std::uint64_t* clamped_events_cell() noexcept { return &clamped_; }

  /// Pre-grows the timer wheel's node pool to `events` concurrently
  /// pending events (see TimerWheel::reserve), so scheduling never
  /// allocates while the pending set stays under that high-water mark.
  /// Optional; benches call it before the measured phase.
  void reserve_pending(std::size_t events) { wheel_.reserve(events); }

  /// Events dispatched by every loop in this process (wall-clock telemetry:
  /// the BENCH_*.json "wall" block divides by elapsed real time).
  static std::uint64_t process_dispatched() noexcept;

  /// Registry for detached root coroutines driven by this loop. Declared
  /// before the wheel so it is destroyed after it: pending events (which
  /// may hold raw frame handles) are dropped first, then any frames still
  /// suspended at teardown are destroyed instead of leaking.
  TaskReaper& reaper() noexcept { return reaper_; }

 private:
  /// Runs a node popped from the wheel; false for nullptr.
  bool dispatch(TimerWheel::Node* n);

  /// Set once destruction starts; read by cancel() while members die.
  bool closing_ = false;
  TaskReaper reaper_;
  TimerWheel wheel_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t clamped_ = 0;
};

/// Awaitable pause: `co_await sleep_for(loop, 10 * kMicrosecond);`
inline auto sleep_for(EventLoop& loop, Duration d) {
  struct Awaiter {
    EventLoop& loop;
    Duration d;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      loop.schedule_in(d, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{loop, d};
}

/// Runs a Task<T> to completion by pumping the loop; for tests/examples.
/// Throws if the loop drains before the task finishes (deadlock in the
/// modelled system).
namespace detail {
// Free functions, not capturing lambdas: a coroutine created from a
// temporary closure dangles once the closure dies (the frame stores only a
// pointer to it), so all internal wrappers take everything as parameters.
template <typename T>
Task<void> sync_wrapper(Task<T> task, std::optional<T>* out, bool* failed,
                        std::exception_ptr* error) {
  try {
    out->emplace(co_await std::move(task));
  } catch (...) {
    *error = std::current_exception();
    *failed = true;
  }
}

inline Task<void> sync_wrapper_void(Task<void> task, bool* done,
                                    std::exception_ptr* error) {
  try {
    co_await std::move(task);
  } catch (...) {
    *error = std::current_exception();
  }
  *done = true;
}
}  // namespace detail

template <typename T>
T sync_wait(EventLoop& loop, Task<T> task) {
  std::optional<T> out;
  bool failed = false;
  std::exception_ptr error;
  detail::sync_wrapper(std::move(task), &out, &failed, &error)
      .detach(loop.reaper());
  while (!out && !failed && loop.step()) {
  }
  if (failed) std::rethrow_exception(error);
  if (!out) throw std::runtime_error("sync_wait: event loop drained before task completed");
  return std::move(*out);
}

inline void sync_wait(EventLoop& loop, Task<void> task) {
  bool done = false;
  std::exception_ptr error;
  detail::sync_wrapper_void(std::move(task), &done, &error)
      .detach(loop.reaper());
  while (!done && loop.step()) {
  }
  if (error) std::rethrow_exception(error);
  if (!done) throw std::runtime_error("sync_wait: event loop drained before task completed");
}

}  // namespace ncache::sim
