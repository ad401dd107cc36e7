// ATP-style NFS trace player (§5.3 drives its microbenchmarks with
// "synthetic traces and an Active Trace Player" [20]).
//
// A trace is a list of timestamped NFS operations. The player replays it
// either closed-loop (each op waits for the previous; think-time = the
// timestamp gaps) or open-loop (ops fire at their timestamps regardless of
// completion, like ATP's accelerated replay). Traces round-trip through a
// simple text format:
//
//   <time_us> read    <fh> <offset> <len>
//   <time_us> write   <fh> <offset> <len>
//   <time_us> getattr <fh>
//   <time_us> lookup  <name>
#pragma once

#include <string>
#include <vector>

#include "nfs/client.h"
#include "workload/counters.h"

namespace ncache::workload {

enum class TraceOpType { Read, Write, Getattr, Lookup };

struct TraceOp {
  sim::Duration at = 0;  ///< offset from trace start, ns
  TraceOpType type = TraceOpType::Read;
  std::uint64_t fh = 0;
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::string name;  ///< Lookup only

  friend bool operator==(const TraceOp&, const TraceOp&) = default;
};

class TracePlayer {
 public:
  TracePlayer(sim::EventLoop& loop, nfs::NfsClient& client,
              std::vector<TraceOp> ops)
      : loop_(loop), client_(client), ops_(std::move(ops)) {}

  /// Replays honouring inter-op gaps; each op completes before the next
  /// is issued. WRITEs store the file's own content pattern.
  Task<void> play_closed(Stream* stream);

  /// Issues each op at its timestamp (divided by `speedup`), not waiting
  /// for completions. Returns once every op has completed.
  Task<void> play_open(Stream* stream, double speedup = 1.0);

  std::size_t size() const noexcept { return ops_.size(); }

  // --- text format -----------------------------------------------------------
  static std::vector<TraceOp> parse(std::string_view text);
  static std::string format(const std::vector<TraceOp>& ops);

  // --- synthetic generators ---------------------------------------------------
  /// Sequential whole-file read split into `request` chunks with a fixed
  /// inter-arrival gap.
  static std::vector<TraceOp> synth_sequential_read(std::uint64_t fh,
                                                    std::uint64_t file_size,
                                                    std::uint32_t request,
                                                    sim::Duration gap);

 private:
  Task<void> issue(const TraceOp& op, Stream* stream);

  sim::EventLoop& loop_;
  nfs::NfsClient& client_;
  std::vector<TraceOp> ops_;
};

}  // namespace ncache::workload
