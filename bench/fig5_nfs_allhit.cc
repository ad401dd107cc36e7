// Figure 5 — NFS all-hit microbenchmark (§5.4).
//
// A 5 MB file is read repeatedly so every request hits the server's
// caches; no storage traffic occurs during measurement. Two sub-
// experiments, as in the paper:
//
//   (a) one NIC: the network link saturates for every configuration, so
//       the interesting number is the *server CPU utilization* — original
//       pegs at 100 %, NCache/baseline fall with request size (paper: up
//       to 42 % / 49 % CPU savings below 32 KB);
//   (b) two NICs: the CPU becomes the bottleneck and CPU savings convert
//       into throughput — paper: original flattens near 89 MB/s after
//       8 KB while NCache reaches +92 % and baseline +143 % at 32 KB.
//
// Shapes to check: ordering baseline > NCache > original; original CPU
// pinned; NCache CPU falling with size; gains growing with request size.
#include "bench/bench_util.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

constexpr std::uint64_t kHotFileBytes = 5 << 20;  // §5.3: 5 MB all-hit set

struct Point {
  double mb_s = 0;
  double server_cpu = 0;
  double link = 0;
  json::Value measured;
};

Point run_one(PassMode mode, int nics, std::uint32_t request,
              const BenchOptions& opts) {
  TestbedConfig cfg = single_server_config(mode, nics);
  cfg.volume_blocks = 16 * 1024;  // 64 MB volume is plenty
  cfg.fs_cache_blocks = 4096;     // 16 MB: hot set resident
  cfg.ncache_budget_bytes = 64u << 20;
  cfg.nfs_daemons = 16;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("hot.bin", kHotFileBytes);
  tb.start_nfs();

  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                kHotFileBytes, request,
                                                nullptr));

  NfsRunConfig rc = standard_nfs_run(opts, request, /*streams=*/10,
                                     /*hot=*/true);
  NfsRunResult r = run_nfs_read_workload(tb, ino, kHotFileBytes, rc);

  Point p{r.throughput_mb_s, r.server_cpu, r.link_util,
          measured_json(tb, r.snapshot, r.throughput_mb_s)};
  p.measured.set("timeline", std::move(r.timeline));
  return p;
}

struct PanelShape {
  double orig_cpu_max = 0;
  double nc_gain_at_max = 0;
  double base_gain_at_max = 0;
};

PanelShape run_panel(int nics, const char* label, const BenchOptions& opts,
                     BenchReport& report) {
  std::printf("\n--- Fig 5(%s): %d NIC(s) ---\n", label, nics);
  print_row_header({"req_KB", "orig_MB/s", "nc_MB/s", "base_MB/s",
                    "orig_cpu%", "nc_cpu%", "base_cpu%", "nc_gain%",
                    "base_gain%"});
  std::vector<std::uint32_t> requests =
      opts.smoke ? std::vector<std::uint32_t>{32768u}
                 : std::vector<std::uint32_t>{4096u, 8192u, 16384u, 32768u};
  PanelShape shape;
  for (std::uint32_t req : requests) {
    Point orig = run_one(PassMode::Original, nics, req, opts);
    Point nc = run_one(PassMode::NCache, nics, req, opts);
    Point base = run_one(PassMode::Baseline, nics, req, opts);
    double nc_gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    double base_gain = (base.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14u%14.1f%14.1f%14.1f%14.0f%14.0f%14.0f%14.0f%14.0f\n",
                req / 1024, orig.mb_s, nc.mb_s, base.mb_s,
                orig.server_cpu * 100, nc.server_cpu * 100,
                base.server_cpu * 100, nc_gain, base_gain);

    shape.orig_cpu_max = std::max(shape.orig_cpu_max, orig.server_cpu);
    if (req == requests.back()) {
      shape.nc_gain_at_max = nc_gain;
      shape.base_gain_at_max = base_gain;
    }

    auto row = json::Value::object();
    row.set("panel", std::string(label));
    row.set("server_nics", nics);
    row.set("request_bytes", req);
    auto modes = json::Value::object();
    modes.set("original", std::move(orig.measured));
    modes.set("ncache", std::move(nc.measured));
    modes.set("baseline", std::move(base.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", nc_gain);
    row.set("baseline_gain_pct", base_gain);
    report.add_row(std::move(row));
  }
  return shape;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::json::Value;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  print_header(
      "Figure 5: NFS server all-hit workload (5 MB hot set)",
      "(a) 1 NIC: link saturated, original CPU ~100%, NCache saves up to "
      "~42% CPU; (b) 2 NICs: original flat ~89 MB/s after 8 KB, NCache "
      "+92% at 32 KB, baseline +143%");
  BenchReport report(opts, "fig5_nfs_allhit",
                     "1 NIC: original CPU ~100%, NCache saves CPU; 2 NICs: "
                     "NCache +92% at 32 KB, baseline +143%");
  PanelShape a = run_panel(1, "a", opts, report);
  PanelShape b = run_panel(2, "b", opts, report);
  auto& shape = report.shape();
  shape.set("panel_a_original_cpu_max", a.orig_cpu_max);
  shape.set("panel_b_ncache_gain_at_32k_pct", b.nc_gain_at_max);
  shape.set("panel_b_baseline_gain_at_32k_pct", b.base_gain_at_max);
  auto paper = Value::object();
  paper.set("panel_b_ncache_gain_at_32k_pct", 92.0);
  paper.set("panel_b_baseline_gain_at_32k_pct", 143.0);
  shape.set("paper", std::move(paper));
  return report.write() ? 0 : 1;
}
