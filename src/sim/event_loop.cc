#include "sim/event_loop.h"

namespace ncache::sim {

namespace {
std::uint64_t g_process_dispatched = 0;
}  // namespace

std::uint64_t EventLoop::process_dispatched() noexcept {
  return g_process_dispatched;
}

bool EventLoop::step() {
  return dispatch(wheel_.pop_node());
}

bool EventLoop::dispatch(TimerWheel::Node* n) {
  // Dispatch in place: the unlinked node is stable storage, so the
  // callback runs without being moved out first. Schedules issued from
  // inside it relink other nodes only; recycle() then destroys the
  // callback and returns the node to the pool.
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
  // The wheel's cursor stops at `deadline` at the latest, so schedules
  // made after this returns land in the wheel, not in a ready batch that
  // ran ahead of the clock.
  while (dispatch(wheel_.pop_node(deadline))) ++n;
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t EventLoop::run_before(Time horizon) {
  if (horizon == 0) return 0;
  std::size_t n = 0;
  while (dispatch(wheel_.pop_node(horizon - 1))) ++n;
  return n;
}

}  // namespace ncache::sim
