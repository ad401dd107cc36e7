#include "sim/event_loop.h"

namespace ncache::sim {

namespace {
std::uint64_t g_process_dispatched = 0;
}  // namespace

std::uint64_t EventLoop::process_dispatched() noexcept {
  return g_process_dispatched;
}

bool EventLoop::step() {
  // Dispatch in place: the unlinked node is stable storage, so the
  // callback runs without being moved out first. Schedules issued from
  // inside it relink other nodes only; recycle() then destroys the
  // callback and returns the node to the pool.
  TimerWheel::Node* n = wheel_.pop_node();
  if (!n) return false;
  now_ = n->e.at;
  ++dispatched_;
  ++g_process_dispatched;
  if (n->e.fn) n->e.fn();  // null fn = pure time marker
  wheel_.recycle(n);
  return true;
}

std::size_t EventLoop::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t EventLoop::run_until(Time deadline) {
  std::size_t n = 0;
  // peek() may advance the wheel cursor past `deadline`; the wheel's ready
  // batch stays valid for schedules landing in (now, batch time), so this
  // is safe even when we stop short of the next event.
  while (const TimerWheel::Entry* next = wheel_.peek()) {
    if (next->at > deadline) break;
    step();
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t EventLoop::run_before(Time horizon) {
  std::size_t n = 0;
  while (const TimerWheel::Entry* next = wheel_.peek()) {
    if (next->at >= horizon) break;
    step();
    ++n;
  }
  return n;
}

}  // namespace ncache::sim
