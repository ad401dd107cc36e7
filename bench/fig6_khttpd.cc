// Figure 6 — kHTTPd throughput (§5.5).
//
// (a) SPECweb99-style workload: Zipf page popularity, ~75 KB mean page,
//     sweeping the working-set size. Paper: NCache +10-20 % over
//     original; baseline ~+40 %; throughput falls with working-set size
//     for everyone, and NCache degrades fastest once its per-buffer
//     metadata overhead squeezes effective cache capacity.
// (b) all-hit fixed-size requests, 16-128 KB. Paper: NCache gain grows
//     from ~8 % at 16 KB to ~47 % at 128 KB.
//
// Working-set sizes are scaled 1:5 from the paper's 250 MB-1 GB sweep to
// keep bench runtime sane; the cache-capacity crossover is preserved by
// scaling the server memory budget identically.
#include "bench/bench_util.h"
#include "workload/web_workloads.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

struct Point {
  double mb_s = 0;
  json::Value measured;
};

// ---- panel (a): SPECweb99-like, working-set sweep ---------------------------

Point run_specweb(PassMode mode, std::uint64_t working_set_bytes,
                  const BenchOptions& opts) {
  // Server memory scales like the paper's 1:5-scaled testbed: the fs
  // cache + NCache pool together model ~160 MB of cacheable memory
  // (NCache: 16 MB first level + 144 MB pinned pool).
  TestbedConfig cfg = single_server_config(mode);
  cfg.volume_blocks = (working_set_bytes >> 12) + 32 * 1024;
  split_server_memory(cfg, 160ull << 20, 144ull << 20);

  WebBench b(cfg);
  auto files = std::make_shared<workload::FileSet>(
      workload::build_web_fileset(b.tb->image(), working_set_bytes));
  b.start();
  // SPECweb99-era access pattern: non-persistent connections.
  sim::sync_wait(b.tb->loop(),
                 b.connect_clients(8, /*connection_per_request=*/true));

  auto zipf = std::make_shared<ZipfSampler>(files->entries.size(), 1.0);

  // Warm-up round: let the popular pages populate the caches.
  {
    workload::StopFlag warm;
    workload::Stream ws;
    for (std::size_t i = 0; i < b.clients.size(); ++i) {
      workload::web_get_worker(*b.clients[i], b.tb->loop(), files, zipf,
                               std::uint32_t(i + 1), &warm, &ws)
          .detach();
    }
    workload::run_measurement(b.tb->loop(), warm,
                              (opts.smoke ? 100 : 1200) * sim::kMillisecond);
  }

  workload::StopFlag stop;
  workload::Stream stream;
  for (std::size_t i = 0; i < b.clients.size(); ++i) {
    workload::web_get_worker(*b.clients[i], b.tb->loop(), files, zipf,
                             std::uint32_t(100 + i), &stop, &stream)
        .detach();
  }
  b.tb->reset_stats();
  sim::Time window_start = b.tb->loop().now();
  auto window = workload::run_measurement(
      b.tb->loop(), stop, (opts.smoke ? 80 : 1000) * sim::kMillisecond);
  double mb_s = stream.mb_per_sec(window);
  return Point{mb_s,
               measured_json(*b.tb, b.tb->snapshot(window_start), mb_s)};
}

// ---- panel (b): all-hit request-size sweep ----------------------------------

Point run_allhit(PassMode mode, std::uint32_t page_bytes,
                 const BenchOptions& opts) {
  TestbedConfig cfg = single_server_config(mode);
  cfg.volume_blocks = 16 * 1024;
  cfg.fs_cache_blocks = 4 * 1024;
  cfg.ncache_budget_bytes = 64ull << 20;
  WebBench b(cfg);
  // A handful of pages of exactly the requested size (5 MB hot set).
  workload::FileSet pages;
  pages.add(b.tb->image(), "h", std::max(1, int((5u << 20) / page_bytes)),
            page_bytes);
  b.start();
  sim::sync_wait(b.tb->loop(),
                 b.connect_clients(8, /*connection_per_request=*/true));

  // Warm every page once.
  auto warm_fn = [&]() -> Task<void> {
    for (const auto& p : pages.entries) {
      (void)co_await b.clients[0]->get("/" + p.name);
    }
  };
  sim::sync_wait(b.tb->loop(), warm_fn());

  workload::StopFlag stop;
  workload::Stream stream;
  for (std::size_t i = 0; i < b.clients.size(); ++i) {
    workload::web_hot_worker(*b.clients[i], b.tb->loop(),
                             pages.entries[i % pages.entries.size()], &stop,
                             &stream)
        .detach();
  }
  b.tb->reset_stats();
  sim::Time window_start = b.tb->loop().now();
  auto window = workload::run_measurement(
      b.tb->loop(), stop, (opts.smoke ? 60 : 500) * sim::kMillisecond);
  double mb_s = stream.mb_per_sec(window);
  return Point{mb_s,
               measured_json(*b.tb, b.tb->snapshot(window_start), mb_s)};
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::core::PassMode;
  using ncache::json::Value;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();

  BenchReport report(opts, "fig6_khttpd",
                     "SPECweb99-like: NCache +10-20% over original, baseline "
                     "~+40%; all-hit: NCache gain grows ~8% at 16KB to ~47% "
                     "at 128KB");

  print_header(
      "Figure 6(a): kHTTPd, SPECweb99-like workload vs working-set size",
      "NCache +10-20% over original, baseline ~+40%; throughput falls "
      "with working set, NCache falling fastest past cache capacity "
      "(metadata overhead)");
  print_row_header({"ws_MB", "orig_MB/s", "nc_MB/s", "base_MB/s", "nc_gain%",
                    "base_gain%"});
  std::vector<std::uint64_t> ws_mbs =
      opts.smoke ? std::vector<std::uint64_t>{16ull}
                 : std::vector<std::uint64_t>{50ull, 100ull, 150ull, 200ull};
  double specweb_nc_gain_first = 0;
  for (std::uint64_t ws_mb : ws_mbs) {
    Point orig = run_specweb(PassMode::Original, ws_mb << 20, opts);
    Point nc = run_specweb(PassMode::NCache, ws_mb << 20, opts);
    Point base = run_specweb(PassMode::Baseline, ws_mb << 20, opts);
    double nc_gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    double base_gain = (base.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14llu%14.1f%14.1f%14.1f%14.0f%14.0f\n",
                (unsigned long long)ws_mb, orig.mb_s, nc.mb_s, base.mb_s,
                nc_gain, base_gain);
    if (ws_mb == ws_mbs.front()) specweb_nc_gain_first = nc_gain;

    auto row = Value::object();
    row.set("panel", "a");
    row.set("working_set_mb", ws_mb);
    auto modes = Value::object();
    modes.set("original", std::move(orig.measured));
    modes.set("ncache", std::move(nc.measured));
    modes.set("baseline", std::move(base.measured));
    row.set("modes", std::move(modes));
    row.set("ncache_gain_pct", nc_gain);
    row.set("baseline_gain_pct", base_gain);
    report.add_row(std::move(row));
  }

  print_header(
      "Figure 6(b): kHTTPd, all-hit workload vs request size",
      "NCache gain grows from ~8% at 16KB to ~47% at 128KB");
  print_row_header({"req_KB", "orig_MB/s", "nc_MB/s", "base_MB/s",
                    "nc_gain%", "base_gain%"});
  std::vector<std::uint32_t> reqs =
      opts.smoke ? std::vector<std::uint32_t>{32u}
                 : std::vector<std::uint32_t>{16u, 32u, 64u, 128u};
  double allhit_nc_gain_last = 0;
  for (std::uint32_t req : reqs) {
    Point orig = run_allhit(PassMode::Original, req * 1024, opts);
    Point nc = run_allhit(PassMode::NCache, req * 1024, opts);
    Point base = run_allhit(PassMode::Baseline, req * 1024, opts);
    double nc_gain = (nc.mb_s / orig.mb_s - 1.0) * 100;
    double base_gain = (base.mb_s / orig.mb_s - 1.0) * 100;
    std::printf("%14u%14.1f%14.1f%14.1f%14.0f%14.0f\n", req, orig.mb_s,
                nc.mb_s, base.mb_s, nc_gain, base_gain);
    if (req == reqs.back()) allhit_nc_gain_last = nc_gain;

    auto row = Value::object();
    row.set("panel", "b");
    row.set("request_bytes", req * 1024);
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
  shape.set("specweb_ncache_gain_smallest_ws_pct", specweb_nc_gain_first);
  shape.set("allhit_ncache_gain_largest_req_pct", allhit_nc_gain_last);
  auto paper = Value::object();
  paper.set("specweb_ncache_gain_low_pct", 10.0);
  paper.set("specweb_ncache_gain_high_pct", 20.0);
  paper.set("allhit_ncache_gain_at_128k_pct", 47.0);
  shape.set("paper", std::move(paper));
  return report.write() ? 0 : 1;
}
