// Measurement harness shared by the benchmark workloads.
//
// One Harness runs one workload in one process. It owns:
//   * host-time phases and, when tracing, in-memory spans around each call
//     into a layer's public function (written out at exit);
//   * one Stream per closed-loop client worker: the worker's op log, its
//     per-class simulated latencies and an order-sensitive hash of every
//     verified op (the model digest is built from these);
//   * registry snapshots at the phase boundaries, from which every modeled
//     per-layer number is a delta over the measured window.
//
// Counters are per Stream because a partitioned world runs clients of
// different racks on different engine threads; each Stream is touched only
// by the domain its client lives on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "netbuf/msg_buffer.h"
#include "topo/instantiator.h"
#include "workload/counters.h"

namespace perfbench {

using namespace ncache;

using Clock = std::chrono::steady_clock;

/// Client op classes, timed separately.
enum class OpClass : std::uint8_t { Read = 0, Write = 1, Meta = 2 };
constexpr int kOpClasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;            ///< self-check sizes
  std::string trace_path;       ///< non-empty: record spans, write here
  std::int64_t flip_read = -1;  ///< flip a byte of this window read (stream 0)
  bool inject_read_fault = false;
};

/// Simulated-time record of one client op (traced runs only).
struct OpSpan {
  std::uint64_t id;
  OpClass cls;
  sim::Time start;
  sim::Time end;
  bool ok;
};

struct Stream {
  int id = 0;
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t ops = 0;  ///< every finished op, warm-up included
  // Measured window (ops issued after the window opened). An attempted op
  // that did not complete verified, including one still open after the
  // drain, failed.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t window_reads = 0;
  std::vector<sim::Duration> latency[kOpClasses];
  // Any op, warm-up included.
  std::uint64_t verify_failures = 0;
  double verify_s = 0;  ///< host time in the verifier (traced runs)
  std::vector<OpSpan> spans;
};

/// An op in flight: when it was issued and whether it counts.
struct Ticket {
  sim::Time start = 0;
  bool in_window = false;
};

class Harness {
 public:
  explicit Harness(Options opts);

  const Options& options() const noexcept { return opts_; }
  bool traced() const noexcept { return !opts_.trace_path.empty(); }

  // ---- host-time spans -------------------------------------------------
  /// Opens a span named `name` under the current innermost open span.
  int open(std::string name);
  void close(int span);
  /// RAII span.
  class Scope {
   public:
    Scope(Harness& h, std::string name) : h_(h), id_(h.open(std::move(name))) {}
    ~Scope() { h_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Harness& h_;
    int id_;
  };
  /// Host seconds summed over every closed span called `name`.
  double phase_s(const std::string& name) const;

  // ---- client streams ----------------------------------------------------
  /// Creates the streams up front (their addresses must stay stable).
  void make_streams(int n);
  Stream& stream(int i) { return streams_.at(std::size_t(i)); }

  Ticket begin_op(Stream& s, sim::Time now) const;
  /// Finishes an op: window accounting, latency, digest fold. `key`
  /// identifies what was read or written (ino, offset, length): a verified
  /// payload is a pure function of it, so hashing the key hashes the bytes.
  void end_op(Stream& s, const Ticket& t, sim::Time now, OpClass cls, bool ok,
              std::uint64_t ino, std::uint64_t offset, std::uint64_t length);

  /// Checks `data` byte for byte against the file pattern of `ino` at
  /// `offset`; it must be exactly `length` physical bytes.
  bool verify(Stream& s, std::uint32_t ino, std::uint64_t offset,
              std::uint64_t length, const netbuf::MsgBuffer& data);

  // ---- driving the world -------------------------------------------------
  /// Runs the world for `d` of simulated time (warm-up; not measured).
  void warm(topo::World& w, sim::Duration d);
  /// Opens the measured window: resets the registry windows, snapshots it,
  /// and stamps the end of set-up.
  void begin_window(topo::World& w);
  /// Runs the window, raises `stop`, drains in-flight ops (bounded), then
  /// snapshots the registry.
  void run_window(topo::World& w, sim::Duration window,
                  workload::StopFlag& stop);

  /// Traced runs: records the registry counter deltas since the previous
  /// boundary under the name of this one.
  void mark(const topo::World& w, std::string boundary);

  /// The complete result (metrics, digest, stamps) as one JSON object.
  json::Value result() const;
  /// Writes spans, per-op simulated spans, the registry deltas between
  /// phases and the registry at the window's end.
  bool write_trace() const;

 private:
  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  using Snapshot = std::map<std::string, MetricRegistry::Sample>;
  Snapshot snapshot(const topo::World& w) const;
  json::Value layers() const;

  Options opts_;
  std::string run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<Stream> streams_;

  std::atomic<bool> measuring_{false};
  sim::Time t0_ = 0;
  sim::Time t_end_ = 0;
  sim::Duration window_ = 0;
  double setup_s_ = 0;
  double run_s_ = 0;
  std::uint64_t events0_ = 0, events1_ = 0;
  std::uint64_t rounds0_ = 0, rounds1_ = 0;
  Snapshot at_open_, at_close_;
  /// Registry counter deltas between phase boundaries (trace file).
  std::vector<json::Value> marks_;
  Snapshot last_mark_;
  std::string last_mark_name_ = "process.start";
};

}  // namespace perfbench
