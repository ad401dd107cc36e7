// Shared helpers for the figure/table reproduction binaries: table
// printing with paper-expectation annotations, common testbed warm-up /
// measurement drivers, and the structured BENCH_<name>.json telemetry
// every binary emits alongside its text output.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_testbed.h"
#include "common/json.h"
#include "common/logging.h"
#include "http/client.h"
#include "http/khttpd.h"
#include "testbed/testbed.h"
#include "workload/counters.h"
#include "workload/nfs_workloads.h"

namespace ncache::bench {

inline void print_header(const std::string& title,
                         const std::string& paper_expectation) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper expectation: %s\n", paper_expectation.c_str());
  std::printf("=============================================================\n");
}

inline void print_row_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%14s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

inline void quiet_logs() { log::set_level(log::Level::Error); }

// ---- node-setup presets -----------------------------------------------------
//
// Every figure/table binary materializes one of two shapes, both thin
// facades over topo::presets (src/topo). The presets below hold the knobs
// the benches agree on so each binary states only what it sweeps.

/// The paper's 4-node single-server shape: `client_count` clients and a
/// `server_nics`-homed app server on one switch, plus the iSCSI target.
testbed::TestbedConfig single_server_config(core::PassMode mode,
                                            int server_nics = 1,
                                            int client_count = 2);

/// Memory-equal configurations (§3.4 / §4.1): the NCache server splits
/// `total_bytes` of server memory between a reduced first-level fs cache
/// and the pinned network-centric pool of `ncache_pool_bytes`; every
/// other mode keeps the whole budget as page cache. Used by the macro
/// benches (fig6a working-set sweep, fig7 SPECsfs mix).
void split_server_memory(testbed::TestbedConfig& cfg,
                         std::uint64_t total_bytes,
                         std::uint64_t ncache_pool_bytes);

/// Scale-out shape: `client_count` clients x consistent-hash balancer x
/// `server_count` pass-through replicas x one iSCSI target.
cluster::ClusterConfig cluster_config(core::PassMode mode, int server_count,
                                      int client_count,
                                      cluster::Routing routing);

/// A kHTTPd-serving testbed plus a pool of HTTP clients, shared by the
/// web benches (fig6, table2). `start()` brings up the base stack and
/// attaches the in-kernel web server under the unified "server0" node
/// label; `connect_clients` opens `conns_per_client` connections from
/// every client node (SPECweb99-era non-persistent connections when
/// `connection_per_request`).
struct WebBench {
  std::unique_ptr<testbed::Testbed> tb;
  std::unique_ptr<http::KHttpd> server;
  std::vector<std::unique_ptr<http::HttpClient>> clients;

  explicit WebBench(const testbed::TestbedConfig& cfg);
  void start();
  Task<void> connect_clients(int conns_per_client,
                             bool connection_per_request = false);
};

/// Command-line options shared by every bench binary.
///
///   --smoke     tiny volumes and short windows: exercises every code
///               path in a ctest-friendly runtime (shapes are NOT
///               meaningful at smoke scale, only plumbing/determinism)
///   --out=DIR   directory for BENCH_<name>.json (default ".")
struct BenchOptions {
  bool smoke = false;
  std::string out_dir = ".";

  /// Parses and REMOVES the recognized flags from argv (argc adjusted),
  /// so leftover args can go to other parsers (google-benchmark).
  static BenchOptions parse(int& argc, char** argv);
};

/// Builder for the structured telemetry file. Layout:
///
///   { "bench": <name>, "expectation": <paper shape, prose>,
///     "smoke": bool, "rows": [...], "shape": {...}, "wall": {...} }
///
/// Rows carry per-configuration results (each mode's `measured_json`
/// block plus bench-specific fields); `shape` holds the paper-vs-measured
/// summary numbers the figure is judged by. Everything except "wall" is
/// derived from simulated time only, so two same-seed runs dump files
/// that are byte-identical once "wall" blocks are stripped (which is what
/// tools/smoke_bench.sh compares).
///
/// "wall" is the one deliberately non-deterministic block: real elapsed
/// time between BenchReport construction and write(), the simulator
/// events dispatched per wall-clock second — the perf trajectory every
/// bench contributes to (tools/perf_compare.py diffs these) — peak RSS,
/// the host's CPU count, the process slab's hit/miss counts, and the heap
/// allocations made over the same span (heap_allocs, allocs_per_event;
/// bench/heap_counter.h). Each
/// row's measured block carries its own "wall" with the registry's
/// host-side counters (MetricRegistry::host_counter).
class BenchReport {
 public:
  BenchReport(const BenchOptions& opts, std::string name,
              std::string expectation);

  void add_row(json::Value row);
  json::Value& shape();
  json::Value& root() noexcept { return root_; }

  /// Writes BENCH_<name>.json into out_dir (stamping the "wall" block);
  /// prints the path. Returns false if the file cannot be written.
  bool write();

 private:
  std::string name_;
  std::string out_dir_;
  json::Value root_;
  std::chrono::steady_clock::time_point wall_start_;
  std::uint64_t dispatched_start_ = 0;
  std::uint64_t allocs_start_ = 0;
};

/// The standard measured block every bench row embeds: throughput,
/// per-node CPU utilization, link utilization, physical/logical copy
/// counts, and the full metric-registry snapshot.
json::Value measured_json(const testbed::Testbed& tb,
                          const testbed::Testbed::Snapshot& snap,
                          double throughput_mb_s);

/// Runs `streams_per_client` sequential readers (all-miss shape) or hot
/// random readers (all-hit shape) for `duration`, returning their stream.
struct NfsRunConfig {
  std::uint32_t request_size = 32768;
  int streams_per_client = 6;
  sim::Duration duration = 800 * sim::kMillisecond;
  bool hot = false;  ///< true: random hot-set reads; false: sequential
  /// >0: record this many evenly-spaced utilization samples inside the
  /// window (exported as the row's "timeline" array).
  int timeline_samples = 0;
};

struct NfsRunResult {
  workload::Stream stream;
  testbed::Testbed::Snapshot snapshot;
  double throughput_mb_s = 0;
  double server_cpu = 0;
  double storage_cpu = 0;
  double link_util = 0;
  json::Value timeline = json::Value::array();
};

NfsRunResult run_nfs_read_workload(testbed::Testbed& tb, std::uint32_t ino,
                                   std::uint64_t file_size,
                                   const NfsRunConfig& config);

/// The measured window the NFS figures share: 600 ms with 6 timeline
/// samples (60 ms / 2 under --smoke).
NfsRunConfig standard_nfs_run(const BenchOptions& opts, std::uint32_t request,
                              int streams_per_client, bool hot);

inline const char* mode_name(core::PassMode m) { return core::to_string(m); }

// ---- chaos traces ---------------------------------------------------------

/// Completion trace of verified kChunk-sized reads (the chaos benches):
/// when each verified chunk completed, and how many chunks failed.
struct Trace {
  static constexpr std::uint32_t kChunk = 32768;
  std::vector<sim::Time> done_at;
  std::uint64_t errors = 0;  ///< non-Ok status or content mismatch

  std::uint64_t bytes() const { return done_at.size() * kChunk; }
};

/// Reads [begin, end) of `ino` in Trace::kChunk pieces, in order; a chunk
/// that comes back OK and verifies (workload::verify_payload) records its
/// completion instant, any other counts an error.
Task<void> traced_read(nfs::NfsClient& client, std::uint32_t ino,
                       std::uint64_t begin, std::uint64_t end, Trace& trace);

/// Buckets the trace into a goodput timeline over [0, last completion].
json::Value goodput_timeline(const Trace& t, sim::Duration bucket);

}  // namespace ncache::bench
