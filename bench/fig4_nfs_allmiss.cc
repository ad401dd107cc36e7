// Figure 4 — NFS all-miss microbenchmark (§5.4).
//
// Sequential read of a file much larger than every cache on the app
// server, so each NFS request travels to the iSCSI storage server (the
// paper uses a 2 GB file; we scale to 96 MB against deliberately small
// caches, which preserves the all-miss property).
//
// Shapes to check (paper):
//   * NFS-original's server CPU is pinned at ~100 % for every size;
//   * NCache/baseline CPU *decreases* as request size grows;
//   * at >=16 KB the NCache/baseline throughput gain over original
//     plateaus at ~29-36 % because the *storage server's* CPU saturates
//     and caps everyone;
//   * below 16 KB per-packet costs dominate and the gain shrinks.
#include "bench/bench_util.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

struct Point {
  double mb_s = 0;
  double server_cpu = 0;
  double storage_cpu = 0;
  json::Value measured;
};

Point run_one(PassMode mode, std::uint32_t request, const BenchOptions& opts) {
  // Scaled 2 GB file; smoke keeps the all-miss property against
  // proportionally smaller caches.
  const std::uint64_t file_bytes = opts.smoke ? 24ull << 20 : 96ull << 20;
  TestbedConfig cfg = single_server_config(mode);
  cfg.volume_blocks = 32 * 1024 + (file_bytes >> 12);  // file + slack
  cfg.inode_count = 4096;
  // Caches far smaller than the file: every request misses.
  cfg.fs_cache_blocks = opts.smoke ? 512 : 2048;
  cfg.ncache_budget_bytes = opts.smoke ? 6u << 20 : 24u << 20;
  cfg.nfs_daemons = 16;
  // §5.4: "the file system read ahead window was tuned so that the
  // average disk request size matches the NFS request size" — no extra
  // read-ahead beyond the request itself.
  cfg.fs_readahead_blocks = 0;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("big.bin", file_bytes);
  tb.start_nfs();

  // Staggered sequential streams (hot=false) over the standard window.
  NfsRunConfig rc = standard_nfs_run(opts, request, /*streams=*/6,
                                     /*hot=*/false);

  // Short untimed ramp so queues and disk heads settle.
  {
    workload::StopFlag ramp_stop;
    workload::Stream ramp_stream;
    workload::sequential_reader(tb.nfs_client(0), ino, file_bytes, request,
                                std::make_shared<std::uint64_t>(0),
                                &ramp_stop, &ramp_stream)
        .detach();
    workload::run_measurement(tb.loop(), ramp_stop,
                              (opts.smoke ? 10 : 50) * sim::kMillisecond);
  }

  NfsRunResult r = run_nfs_read_workload(tb, ino, file_bytes, rc);
  Point p{r.throughput_mb_s, r.server_cpu, r.storage_cpu,
          measured_json(tb, r.snapshot, r.throughput_mb_s)};
  p.measured.set("timeline", std::move(r.timeline));
  return p;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::core::PassMode;
  using ncache::json::Value;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  print_header(
      "Figure 4: NFS server all-miss workload (sequential big-file read)",
      "original CPU pinned ~100%; NCache CPU falls with request size; "
      "NCache/baseline gain ~29-36% at >=16KB, capped by storage-server "
      "CPU saturation");
  print_row_header({"req_KB", "orig_MB/s", "nc_MB/s", "base_MB/s",
                    "orig_cpu%", "nc_cpu%", "stor_cpu%", "nc_gain%",
                    "base_gain%"});

  BenchReport report(opts, "fig4_nfs_allmiss",
                     "original CPU pinned ~100%; NCache CPU falls with "
                     "request size; NCache/baseline gain ~29-36% at >=16KB");
  std::vector<std::uint32_t> requests =
      opts.smoke ? std::vector<std::uint32_t>{16384u}
                 : std::vector<std::uint32_t>{4096u, 8192u, 16384u, 32768u};
  double orig_cpu_min = 1.0;
  double nc_gain_at_max = 0.0;
  for (std::uint32_t req : requests) {
    Point orig = run_one(PassMode::Original, req, opts);
    Point nc = run_one(PassMode::NCache, req, opts);
    Point base = run_one(PassMode::Baseline, req, opts);
    double nc_gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    double base_gain = (base.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14u%14.1f%14.1f%14.1f%14.0f%14.0f%14.0f%14.0f%14.0f\n",
                req / 1024, orig.mb_s, nc.mb_s, base.mb_s,
                orig.server_cpu * 100, nc.server_cpu * 100,
                nc.storage_cpu * 100, nc_gain, base_gain);

    orig_cpu_min = std::min(orig_cpu_min, orig.server_cpu);
    if (req == requests.back()) nc_gain_at_max = nc_gain;

    auto row = Value::object();
    row.set("request_bytes", req);
    auto modes = Value::object();
    modes.set("original", std::move(orig.measured));
    modes.set("ncache", std::move(nc.measured));
    modes.set("baseline", std::move(base.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", nc_gain);
    row.set("baseline_gain_pct", base_gain);
    report.add_row(std::move(row));
  }
  auto& shape = report.shape();
  shape.set("original_server_cpu_min", orig_cpu_min);
  shape.set("ncache_gain_at_largest_request_pct", nc_gain_at_max);
  auto paper = Value::object();
  paper.set("ncache_gain_low_pct", 29.0);
  paper.set("ncache_gain_high_pct", 36.0);
  paper.set("original_server_cpu", 1.0);
  shape.set("paper", std::move(paper));
  return report.write() ? 0 : 1;
}
