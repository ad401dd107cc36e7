// BusyWindow — busy-time accounting of one FIFO server (a CPU core, a link
// direction, a disk spindle) over a measurement window.
//
// Work is booked back to back: an item starts when both `now` and the
// previous item allow, and only the part of it inside the window counts as
// busy. A restart moves the window start to `now` and carries the booked
// work still in flight into the new window, so the busy time of work that
// spans a reset is split between the two windows exactly. utilization()
// leaves out booked time that lies in the future.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/timer_wheel.h"

namespace ncache::sim {

class BusyWindow {
 public:
  /// Queues `cost` ns of work behind everything booked so far, starting no
  /// earlier than `now`; returns the time it finishes.
  Time book(Time now, Duration cost) noexcept {
    Time start = std::max(now, free_at_);
    Time finish = start + cost;
    free_at_ = finish;
    Time acct_start = std::max(start, window_start_);
    if (finish > acct_start) busy_ns_ += finish - acct_start;
    return finish;
  }

  /// Busy time of the window that has elapsed by `now`.
  Duration elapsed_busy(Time now) const noexcept {
    Duration busy = busy_ns_;
    if (free_at_ > now) {
      Duration future = free_at_ - now;
      busy = busy > future ? busy - future : 0;
    }
    return busy;
  }

  /// Busy fraction of the window up to `now`, in [0,1].
  double utilization(Time now) const noexcept {
    if (now <= window_start_) return 0.0;
    return std::min(1.0, double(elapsed_busy(now)) /
                             double(now - window_start_));
  }

  /// Starts a new window at `now`; booked work still in flight counts in it.
  void restart(Time now) noexcept {
    window_start_ = now;
    busy_ns_ = free_at_ > now ? free_at_ - now : 0;
  }

  /// When all booked work finishes.
  Time free_at() const noexcept { return free_at_; }
  Time window_start() const noexcept { return window_start_; }
  /// Busy time booked in the window, in-flight work included.
  Duration busy_ns() const noexcept { return busy_ns_; }
  /// busy_ns's storage, for a registry counter.
  Duration* busy_cell() noexcept { return &busy_ns_; }

 private:
  Time free_at_ = 0;
  Duration busy_ns_ = 0;
  Time window_start_ = 0;
};

}  // namespace ncache::sim
