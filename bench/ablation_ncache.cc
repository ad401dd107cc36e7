// Design-choice ablations (DESIGN.md §5) — not in the paper, but probing
// the mechanisms behind its results:
//
//   A. Checksum offload off: with software checksums the CPU walks every
//      payload byte — except NCache inherits the originator's checksum
//      (§1), so its advantage over the original *grows*.
//   B. Double buffering: shrink the fs buffer cache under a fixed working
//      set. The original server degrades (misses reach the disks); the
//      NCache server stays flat because the network-centric cache absorbs
//      the misses as a second level (§3.4).
//   C. Substitution-cost sensitivity: sweep the per-frame substitution
//      cost to show how much of NCache's win survives a sloppier
//      implementation (the gap the paper reports between NCache and the
//      ideal baseline).
//   D. Wire-format data on the storage server (§6 future work).
#include "bench/bench_util.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

constexpr std::uint64_t kHot = 5 << 20;

struct Point {
  double mb_s = 0;
  json::Value measured;
};

Point allhit_run(TestbedConfig cfg, const BenchOptions& opts,
                 std::uint32_t request = 32768) {
  cfg.client_count = 2;
  cfg.server_nics = 2;
  cfg.nfs_daemons = 16;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("hot.bin", kHot);
  tb.start_nfs();
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                kHot, request, nullptr));
  NfsRunConfig rc;
  rc.request_size = request;
  rc.streams_per_client = 10;
  rc.hot = true;
  rc.duration = (opts.smoke ? 50 : 400) * sim::kMillisecond;
  NfsRunResult r = run_nfs_read_workload(tb, ino, kHot, rc);
  return Point{r.throughput_mb_s,
               measured_json(tb, r.snapshot, r.throughput_mb_s)};
}

void ablation_checksum(const BenchOptions& opts, BenchReport& report,
                       json::Value& shape) {
  print_header("Ablation A: software checksums (offload disabled)",
               "NCache inherits checksums from cached originators, so its "
               "gain over original grows when checksums hit the CPU");
  print_row_header({"offload", "orig_MB/s", "nc_MB/s", "nc_gain%"});
  double gain_on = 0, gain_off = 0;
  for (bool offload : {true, false}) {
    TestbedConfig base;
    base.costs.checksum_offload = offload;
    base.mode = PassMode::Original;
    Point orig = allhit_run(base, opts);
    base.mode = PassMode::NCache;
    Point nc = allhit_run(base, opts);
    double gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14s%14.1f%14.1f%14.0f\n", offload ? "on" : "off",
                orig.mb_s, nc.mb_s, gain);
    (offload ? gain_on : gain_off) = gain;

    auto row = json::Value::object();
    row.set("ablation", "checksum");
    row.set("checksum_offload", offload);
    auto modes = json::Value::object();
    modes.set("original", std::move(orig.measured));
    modes.set("ncache", std::move(nc.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", gain);
    report.add_row(std::move(row));
  }
  shape.set("checksum_gain_grows_without_offload", gain_off > gain_on);
}

Point miss_run(PassMode mode, std::size_t fs_cache_blocks,
               const BenchOptions& opts) {
  TestbedConfig cfg;
  cfg.mode = mode;
  cfg.client_count = 2;
  cfg.nfs_daemons = 16;
  cfg.volume_blocks = opts.smoke ? 8 * 1024 : 48 * 1024;
  cfg.fs_cache_blocks = fs_cache_blocks;
  // Pool holds the whole working set.
  cfg.ncache_budget_bytes = opts.smoke ? 16u << 20 : 96u << 20;
  Testbed tb(cfg);
  const std::uint64_t set_bytes = opts.smoke ? 8ull << 20 : 48ull << 20;
  std::uint32_t ino = tb.image().add_file("set.bin", set_bytes);
  tb.start_nfs();
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                set_bytes, 32768, nullptr));
  NfsRunConfig rc;
  rc.request_size = 32768;
  rc.streams_per_client = 8;
  rc.hot = true;  // random reads over the working set
  rc.duration = (opts.smoke ? 50 : 400) * sim::kMillisecond;
  NfsRunResult r = run_nfs_read_workload(tb, ino, set_bytes, rc);
  return Point{r.throughput_mb_s,
               measured_json(tb, r.snapshot, r.throughput_mb_s)};
}

void ablation_double_buffering(const BenchOptions& opts, BenchReport& report,
                               json::Value& shape) {
  print_header(
      "Ablation B: fs buffer cache size under a fixed working set",
      "original collapses once the page cache is smaller than the set "
      "(disk-bound misses); NCache stays flat — the network-centric cache "
      "absorbs fs-cache misses as a second level");
  print_row_header({"fscache_MB", "orig_MB/s", "nc_MB/s", "nc_gain%"});
  std::vector<std::size_t> sizes =
      opts.smoke ? std::vector<std::size_t>{512u}
                 : std::vector<std::size_t>{16384u, 4096u, 1024u};
  double gain_smallest = 0;
  for (std::size_t blocks : sizes) {
    Point orig = miss_run(PassMode::Original, blocks, opts);
    Point nc = miss_run(PassMode::NCache, blocks, opts);
    double gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14zu%14.1f%14.1f%14.0f\n", blocks * 4096 / (1 << 20),
                orig.mb_s, nc.mb_s, gain);
    if (blocks == sizes.back()) gain_smallest = gain;

    auto row = json::Value::object();
    row.set("ablation", "double_buffering");
    row.set("fs_cache_blocks", std::uint64_t(blocks));
    auto modes = json::Value::object();
    modes.set("original", std::move(orig.measured));
    modes.set("ncache", std::move(nc.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", gain);
    report.add_row(std::move(row));
  }
  shape.set("double_buffering_gain_smallest_cache_pct", gain_smallest);
}

void ablation_substitution_cost(const BenchOptions& opts, BenchReport& report,
                                json::Value& shape) {
  print_header("Ablation C: per-frame substitution cost sensitivity",
               "NCache's gain decays as substitution gets sloppier; the "
               "paper's gap to the ideal baseline is this overhead");
  print_row_header({"subst_us", "nc_MB/s", "vs_orig%"});
  TestbedConfig base;
  base.mode = PassMode::Original;
  Point orig = allhit_run(base, opts);
  std::vector<sim::Duration> costs =
      opts.smoke ? std::vector<sim::Duration>{1'200u}
                 : std::vector<sim::Duration>{0u, 1'200u, 3'000u, 6'000u};
  double gain_last = 0;
  for (sim::Duration subst : costs) {
    TestbedConfig cfg;
    cfg.mode = PassMode::NCache;
    cfg.costs.ncache_substitute_ns = subst;
    Point nc = allhit_run(cfg, opts);
    double gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14.1f%14.1f%14.0f\n", double(subst) / 1000.0, nc.mb_s,
                gain);
    if (subst == costs.back()) gain_last = gain;

    auto row = json::Value::object();
    row.set("ablation", "substitution_cost");
    row.set("substitute_ns", std::uint64_t(subst));
    auto modes = json::Value::object();
    modes.set("ncache", std::move(nc.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", gain);
    report.add_row(std::move(row));
  }
  shape.set("substitution_gain_at_highest_cost_pct", gain_last);
}

Point wire_target_run(PassMode mode, bool wire_target,
                      const BenchOptions& opts) {
  TestbedConfig cfg;
  cfg.mode = mode;
  cfg.client_count = 2;
  cfg.nfs_daemons = 16;
  cfg.volume_blocks = opts.smoke ? 8 * 1024 : 48 * 1024;
  // Tiny app-side caches: rereads reach storage.
  cfg.fs_cache_blocks = opts.smoke ? 256 : 1024;
  cfg.ncache_budget_bytes = opts.smoke ? 2u << 20 : 8u << 20;
  cfg.wire_format_target = wire_target;
  // The target-side pool holds the set.
  cfg.wire_target_budget_bytes = opts.smoke ? 16u << 20 : 96u << 20;
  Testbed tb(cfg);
  const std::uint64_t set_bytes = opts.smoke ? 8ull << 20 : 48ull << 20;
  std::uint32_t ino = tb.image().add_file("set.bin", set_bytes);
  tb.start_nfs();
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                set_bytes, 32768, nullptr));
  NfsRunConfig rc;
  rc.request_size = 32768;
  rc.streams_per_client = 8;
  rc.hot = true;
  rc.duration = (opts.smoke ? 50 : 400) * sim::kMillisecond;
  NfsRunResult r = run_nfs_read_workload(tb, ino, set_bytes, rc);
  return Point{r.throughput_mb_s,
               measured_json(tb, r.snapshot, r.throughput_mb_s)};
}

void ablation_wire_target(const BenchOptions& opts, BenchReport& report,
                          json::Value& shape) {
  print_header(
      "Ablation D: wire-format data on the storage server (the paper's "
      "Section 6 future work)",
      "keeping disk-resident blocks in network-ready form on the *target* "
      "removes its two copies and its disk reads for warm data; combined "
      "with an NCache app server, each byte moves once end to end");
  print_row_header({"app_mode", "stock_MB/s", "wiretgt_MB/s", "delta%"});
  double delta_ncache = 0;
  for (PassMode mode : {PassMode::Original, PassMode::NCache}) {
    Point stock = wire_target_run(mode, false, opts);
    Point wired = wire_target_run(mode, true, opts);
    double delta = (wired.mb_s / stock.mb_s - 1.0) * 100;
    std::printf("%14s%14.1f%14.1f%14.0f\n", core::to_string(mode),
                stock.mb_s, wired.mb_s, delta);
    if (mode == PassMode::NCache) delta_ncache = delta;

    auto row = json::Value::object();
    row.set("ablation", "wire_target");
    row.set("app_mode", core::to_string(mode));
    auto modes = json::Value::object();
    modes.set("stock", std::move(stock.measured));
    modes.set("wire_target", std::move(wired.measured));
    row.set("modes", std::move(modes));
    row.set("wire_target_delta_pct", delta);
    report.add_row(std::move(row));
  }
  shape.set("wire_target_delta_ncache_pct", delta_ncache);
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  BenchReport report(opts, "ablation_ncache",
                     "mechanism probes: checksum inheritance, second-level "
                     "cache absorption, substitution-cost sensitivity, "
                     "wire-format storage target");
  auto& shape = report.shape();
  ablation_checksum(opts, report, shape);
  ablation_double_buffering(opts, report, shape);
  ablation_substitution_cost(opts, report, shape);
  ablation_wire_target(opts, report, shape);
  return report.write() ? 0 : 1;
}
