// ParallelEngine — conservative-window executor for a partitioned
// simulation.
//
// The world is split into *domains*, each owning one EventLoop (the topo
// instantiator uses one domain per switch, i.e. per rack). The engine
// advances all domains in rounds:
//
//   1. floor   = min over domains of their next pending event time.
//   2. horizon = floor + lookahead, where lookahead is the minimum
//      latency of any link crossing a domain boundary. No event executed
//      in this window can cause an effect in another domain before
//      `horizon`, so every domain may run all events strictly below it
//      without further coordination (classic YAWNS-style conservative
//      synchronization).
//   3. Each domain runs its window on the calling thread, in domain-id
//      order. Cross-domain deliveries produced during the window (trunk
//      Link directions carry a remote hook that calls post()) are staged
//      in per-(src,dst) outboxes, not delivered.
//   4. Barrier: the staged deliveries are merged into their destination
//      loops in (time, src_domain, send_seq) order.
//
// Determinism: a domain's window execution depends only on its own loop
// contents, and the merge order is a pure function of the staged
// messages, so a partitioned world's schedule is fixed by its seed. The
// windows of a round are independent of one another, but they are not
// spread over threads: a round holds tens of microseconds of work, too
// little to pay for a cross-thread handshake (DESIGN.md §11).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"

namespace ncache::sim {

class ParallelEngine {
 public:
  ParallelEngine() = default;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Registers a domain; returns its id (dense, in registration order).
  /// All domains must be registered before the first run.
  unsigned add_domain(EventLoop& loop, std::string name);
  unsigned domain_count() const noexcept { return unsigned(domains_.size()); }
  EventLoop& domain_loop(unsigned d) { return *domains_.at(d)->loop; }
  const std::string& domain_name(unsigned d) const {
    return domains_.at(d)->name;
  }

  /// The conservative window width: the minimum latency of any
  /// cross-domain link. Must be > 0 when more than one domain exists.
  void set_lookahead(Duration ns) noexcept { lookahead_ = ns; }
  Duration lookahead() const noexcept { return lookahead_; }

  /// Stages a delivery into `dst` at absolute time `at`. May only be
  /// called from code executing inside domain `src`'s window. Trunk links
  /// call this via their remote hook.
  void post(unsigned src, unsigned dst, Time at, InlineCallback fn);

  /// Convenience: a remote hook for a link whose transmit side runs in
  /// `src` and whose receive side lives in `dst`.
  std::function<void(Time, InlineCallback)> remote_hook(unsigned src,
                                                        unsigned dst) {
    return [this, src, dst](Time at, InlineCallback fn) {
      post(src, dst, at, std::move(fn));
    };
  }

  /// Runs rounds until every domain is idle (or `stop` returns true at a
  /// round boundary). Returns events processed. An exception thrown by
  /// an event propagates out of the round that ran it.
  std::size_t run(const std::function<bool()>& stop = {});

  /// Runs every event with time <= deadline, then aligns all domain
  /// clocks to exactly `deadline` (like EventLoop::run_until).
  std::size_t run_until(Time deadline);

  /// Latest domain clock (after run_until, every domain reads the same).
  Time now() const noexcept;
  /// Conservative windows executed so far (telemetry: events/round is the
  /// parallelism the topology actually exposes).
  std::uint64_t rounds() const noexcept { return rounds_; }

 private:
  struct Msg {
    Time at;
    std::uint64_t seq;
    InlineCallback fn;
  };
  struct Domain {
    EventLoop* loop;
    std::string name;
    std::vector<std::vector<Msg>> outbox;  ///< staged sends, per dst
    std::uint64_t out_seq = 0;
  };

  Time next_floor();
  std::size_t round(Time limit);
  void merge_outboxes();

  std::vector<std::unique_ptr<Domain>> domains_;
  Duration lookahead_ = 0;
  std::uint64_t rounds_ = 0;
  bool running_ = false;
};

}  // namespace ncache::sim
