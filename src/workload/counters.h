// Shared accounting for workload generators: the Stream sink every worker
// reports to, the stop flag and the measurement driver.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "sim/event_loop.h"
#include "sim/parallel.h"

namespace ncache::netbuf {
class MsgBuffer;
}

namespace ncache::workload {

/// Client op classes, timed separately.
enum class OpClass : std::uint8_t { Read = 0, Write = 1, Meta = 2 };

/// True when `data` is exactly the content of file `ino` at `offset`: every
/// segment physical and every byte the image pattern (fs::verify_content),
/// walked segment by segment without flattening. Host-side only; it charges
/// no simulated CPU. Baseline payloads (junk segments) fail by design.
bool verify_payload(std::uint32_t ino, std::uint64_t offset,
                    const netbuf::MsgBuffer& data);

/// The sink a workload's finished ops report to. ops, bytes and errors are
/// counted by status (an op that did not complete OK counts only as an
/// error); every OK read's payload is checked against its file's content;
/// each OK op is timed into its class's histogram and its key (class, ino,
/// offset, length) folded into an order-sensitive FNV-1a digest. A verified
/// payload is a pure function of its key, so equal digests plus zero
/// verify_failures mean equal client-visible byte streams.
class Stream {
 public:
  static constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;

  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t verify_failures = 0;  ///< OK reads with a wrong payload
  std::uint64_t digest = kDigestBasis;

  /// A READ or GET of `ino` at `offset` finished after `latency`.
  void read(std::uint32_t ino, std::uint64_t offset,
            const netbuf::MsgBuffer& data, sim::Duration latency, bool ok);
  /// A WRITE of `length` bytes of `ino` at `offset` finished.
  void write(std::uint32_t ino, std::uint64_t offset, std::uint64_t length,
             sim::Duration latency, bool ok) {
    record(OpClass::Write, ino, offset, length, latency, ok);
  }
  /// A metadata op (GETATTR, LOOKUP) on, or resolving to, `ino` finished.
  void meta(std::uint64_t ino, sim::Duration latency, bool ok) {
    record(OpClass::Meta, ino, 0, 0, latency, ok);
  }

  const LatencyHistogram& latency(OpClass c) const {
    return latency_[int(c)];
  }

  double ops_per_sec(sim::Duration elapsed_ns) const {
    return elapsed_ns ? double(ops) * 1e9 / double(elapsed_ns) : 0.0;
  }
  double mb_per_sec(sim::Duration elapsed_ns) const {
    return elapsed_ns ? double(bytes) / 1e6 * 1e9 / double(elapsed_ns) : 0.0;
  }

 private:
  void record(OpClass c, std::uint64_t ino, std::uint64_t offset,
              std::uint64_t length, sim::Duration latency, bool ok);

  LatencyHistogram latency_[3];
};

/// One digest for a run of per-client streams: FNV-1a over each stream's
/// digest, in order.
std::uint64_t fold_digests(const std::vector<Stream>& streams);

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
