// Figure 7 — SPECsfs-flavoured NFS macrobenchmark (§5.4).
//
// Op mix over a file set sized to 10 % of the volume, request sizes
// dominated by <16 KB, read:write 5:1 among data ops, sweeping the
// fraction of operations that touch regular data (the paper varies "the
// percentage of NFS requests that access regular data").
//
// Shapes to check (paper): NCache consistently above original; the gain
// grows with the regular-data fraction (+16.3 % at 30 %, +18.6 % at 75 %);
// absolute ops/s gains are modest because metadata and small requests
// dominate the mix.
#include "bench/bench_util.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

Task<void> background_flusher(testbed::Testbed* tb,
                              workload::StopFlag* stop) {
  // bdflush stand-in: periodically write dirty buffers back so the write
  // stream reaches the storage server in every configuration. Not counted
  // as a live worker: its final (possibly long) sync drains on its own.
  while (!stop->stopped) {
    co_await sim::sleep_for(tb->loop(), 200 * sim::kMillisecond);
    if (stop->stopped) break;
    co_await tb->fs().sync();
  }
}

struct Point {
  double ops_s = 0;
  json::Value measured;
};

Point run_one(PassMode mode, double data_fraction, const BenchOptions& opts) {
  TestbedConfig cfg = single_server_config(mode);
  // 2 GB fs scaled 1:4 -> 512 MB volume, 10% (51 MB) active set. The
  // server's memory scales like the paper's 896 MB box: the active set
  // fits in memory, so warmed reads are cache hits and the CPU binds.
  // Smoke shrinks set and volume proportionally.
  cfg.volume_blocks = opts.smoke ? 32 * 1024 : 144 * 1024;
  cfg.inode_count = 8192;
  // Memory-equal configurations: 128 MB of server memory, NCache keeping
  // 64 MB as the pinned second level.
  split_server_memory(cfg, 128ull << 20, 64ull << 20);
  cfg.nfs_daemons = 24;
  cfg.fs_readahead_blocks = 2;
  Testbed tb(cfg);

  auto files = std::make_shared<workload::FileSet>();
  const std::uint64_t active_bytes = opts.smoke ? 6ull << 20 : 51ull << 20;
  const int file_count = opts.smoke ? 24 : 200;
  files->add(tb.image(), "sfs", file_count,
             active_bytes / std::uint64_t(file_count));
  tb.start_nfs();

  workload::SpecSfsConfig sc;
  sc.data_op_fraction = data_fraction;
  sc.seed = 7;

  const int workers_per_client = opts.smoke ? 8 : 32;
  // Warm round: touch the whole active set sequentially, then mix.
  {
    auto warm_fn = [&]() -> Task<void> {
      for (const auto& f : files->entries) {
        co_await workload::read_file(tb.nfs_client(0), f.ino, 0, f.size,
                                     32768, nullptr);
      }
    };
    sim::sync_wait(tb.loop(), warm_fn());
    workload::StopFlag warm;
    workload::Stream ws;
    for (int ci = 0; ci < tb.client_count(); ++ci) {
      for (int w = 0; w < workers_per_client; ++w) {
        workload::specsfs_worker(tb.nfs_client(ci), files, sc,
                                 std::uint32_t(ci * 100 + w), &warm, &ws)
            .detach();
      }
    }
    background_flusher(&tb, &warm).detach();
    workload::run_measurement(tb.loop(), warm,
                              (opts.smoke ? 60 : 500) * sim::kMillisecond);
  }

  workload::StopFlag stop;
  workload::Stream stream;
  for (int ci = 0; ci < tb.client_count(); ++ci) {
    for (int w = 0; w < workers_per_client; ++w) {
      workload::specsfs_worker(tb.nfs_client(ci), files, sc,
                               std::uint32_t(1000 + ci * 100 + w), &stop,
                               &stream)
          .detach();
    }
  }
  background_flusher(&tb, &stop).detach();
  tb.reset_stats();
  sim::Time window_start = tb.loop().now();
  auto window = workload::run_measurement(
      tb.loop(), stop, (opts.smoke ? 100 : 1000) * sim::kMillisecond);
  Point p;
  p.ops_s = stream.ops_per_sec(window);
  p.measured = measured_json(tb, tb.snapshot(window_start),
                             stream.mb_per_sec(window));
  p.measured.set("ops_per_sec", p.ops_s);
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
      "Figure 7: NFS server, SPECsfs-like op mix vs % regular-data ops",
      "NCache consistently above original; gain grows with the data-op "
      "fraction: +16.3% at 30%, +18.6% at 75% in the paper");
  print_row_header({"data_ops%", "orig_ops/s", "nc_ops/s", "base_ops/s",
                    "nc_gain%", "base_gain%"});
  BenchReport report(opts, "fig7_nfs_specsfs",
                     "NCache above original; gain grows with the data-op "
                     "fraction: +16.3% at 30%, +18.6% at 75%");
  std::vector<double> fracs = opts.smoke ? std::vector<double>{0.50}
                                         : std::vector<double>{0.30, 0.50, 0.75};
  double nc_gain_first = 0, nc_gain_last = 0;
  for (double frac : fracs) {
    Point orig = run_one(PassMode::Original, frac, opts);
    Point nc = run_one(PassMode::NCache, frac, opts);
    Point base = run_one(PassMode::Baseline, frac, opts);
    double nc_gain = (nc.ops_s / orig.ops_s - 1.0) * 100;
    double base_gain = (base.ops_s / orig.ops_s - 1.0) * 100;
    std::printf("%14.0f%14.0f%14.0f%14.0f%14.1f%14.1f\n", frac * 100,
                orig.ops_s, nc.ops_s, base.ops_s, nc_gain, base_gain);
    if (frac == fracs.front()) nc_gain_first = nc_gain;
    if (frac == fracs.back()) nc_gain_last = nc_gain;

    auto row = Value::object();
    row.set("data_op_fraction", frac);
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
  shape.set("ncache_gain_lowest_fraction_pct", nc_gain_first);
  shape.set("ncache_gain_highest_fraction_pct", nc_gain_last);
  auto paper = Value::object();
  paper.set("ncache_gain_at_30pct_data_pct", 16.3);
  paper.set("ncache_gain_at_75pct_data_pct", 18.6);
  shape.set("paper", std::move(paper));
  return report.write() ? 0 : 1;
}
