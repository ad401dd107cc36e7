// Table 2 — number of regular-data copy operations per request (§5.1).
//
// Paper's counts for the ORIGINAL servers:
//                read hit   read miss   write overwritten   write flushed
//   NFS server       2          3              1                  2
//   kHTTPd           1          2             n/a                n/a
//
// This bench drives exactly one request down each path, counting the
// server's copies across it, prints the measured counts for all three
// configurations, and marks PASS/FAIL against the paper's numbers
// (original) and against zero (NCache, whose whole point is eliminating
// these copies; baseline likewise moves no payload bytes).
#include "bench/bench_util.h"
#include "http/client.h"
#include "http/khttpd.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

struct Counts {
  std::uint64_t read_hit = 0;
  std::uint64_t read_miss = 0;
  std::uint64_t write_overwrite = 0;
  std::uint64_t write_flush = 0;
};

struct Run {
  Counts counts;
  json::Value measured;
};

Run measure_nfs(PassMode mode) {
  Testbed tb(single_server_config(mode));
  std::uint32_t ino = tb.image().add_file("f.bin", 1 << 20);
  tb.start_nfs();

  Counts out;
  auto t_fn = [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    const auto& copies = tb.server_node().copier.stats().data_copy_ops;
    (void)co_await client.getattr(ino);  // warm metadata

    // Read miss.
    std::uint64_t before = copies;
    (void)co_await client.read(ino, 0, fs::kBlockSize);
    out.read_miss = copies - before;

    // Read hit (same block again).
    before = copies;
    (void)co_await client.read(ino, 0, fs::kBlockSize);
    out.read_hit = copies - before;

    // Write, overwritten in cache before any flush.
    auto wfh = co_await client.create(fs::kRootIno, "w.bin");
    std::vector<std::byte> block(fs::kBlockSize);
    before = copies;
    (void)co_await client.write(*wfh, 0, block);
    out.write_overwrite = copies - before;

    // ... now force the flush: total copies for the flushed path.
    co_await tb.fs().sync();
    out.write_flush = copies - before;
  };
  sim::sync_wait(tb.loop(), t_fn());

  auto snap = tb.snapshot(0);
  double mb_s =
      snap.elapsed_s > 0 ? double(snap.read_bytes_served) / 1e6 / snap.elapsed_s
                         : 0.0;
  return Run{out, measured_json(tb, snap, mb_s)};
}

Run measure_khttpd(PassMode mode) {
  WebBench b(single_server_config(mode));
  Testbed& tb = *b.tb;
  tb.image().add_file("page.html", 16 * 1024);
  b.start();
  http::HttpClient client(tb.client_node(0).stack, tb.client_ip(0),
                          tb.server_ip(0));

  Counts out;
  auto t_fn = [&]() -> Task<void> {
    (void)co_await client.connect();
    const auto& copies = tb.server_node().copier.stats().data_copy_ops;
    (void)co_await client.get("/nothing");  // warm metadata via 404

    std::uint64_t before = copies;
    (void)co_await client.get("/page.html");  // cold: miss
    out.read_miss = copies - before;

    before = copies;
    (void)co_await client.get("/page.html");  // warm: hit
    out.read_hit = copies - before;
  };
  sim::sync_wait(tb.loop(), t_fn());

  auto snap = tb.snapshot(0);
  double body_bytes =
      double(tb.metrics().counter_value("server0", "http.body_bytes"));
  double mb_s = snap.elapsed_s > 0 ? body_bytes / 1e6 / snap.elapsed_s : 0.0;
  return Run{out, measured_json(tb, snap, mb_s)};
}

json::Value counts_json(const Counts& c, bool with_writes) {
  auto v = json::Value::object();
  v.set("read_hit", c.read_hit);
  v.set("read_miss", c.read_miss);
  if (with_writes) {
    v.set("write_overwrite", c.write_overwrite);
    v.set("write_flush", c.write_flush);
  }
  return v;
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
      "Table 2: data copy operations per request",
      "original NFS: hit=2 miss=3 overwrite=1 flushed=2; original kHTTPd: "
      "hit=1 miss=2; NCache/baseline: 0 everywhere");
  BenchReport report(opts, "table2_copy_counts",
                     "original NFS: hit=2 miss=3 overwrite=1 flushed=2; "
                     "original kHTTPd: hit=1 miss=2; NCache/baseline: 0");

  bool all_pass = true;
  std::printf("%-22s%10s%10s%12s%10s%8s\n", "configuration", "read_hit",
              "read_miss", "overwrite", "flushed", "check");
  for (PassMode mode :
       {PassMode::Original, PassMode::NCache, PassMode::Baseline}) {
    Run nfs = measure_nfs(mode);
    bool is_orig = mode == PassMode::Original;
    Counts expect = is_orig ? Counts{2, 3, 1, 2} : Counts{0, 0, 0, 0};
    bool ok = nfs.counts.read_hit == expect.read_hit &&
              nfs.counts.read_miss == expect.read_miss &&
              nfs.counts.write_overwrite == expect.write_overwrite &&
              nfs.counts.write_flush == expect.write_flush;
    all_pass = all_pass && ok;
    std::printf("%-22s%10llu%10llu%12llu%10llu%8s\n",
                (std::string("NFS-") + ncache::core::to_string(mode)).c_str(),
                (unsigned long long)nfs.counts.read_hit,
                (unsigned long long)nfs.counts.read_miss,
                (unsigned long long)nfs.counts.write_overwrite,
                (unsigned long long)nfs.counts.write_flush,
                ok ? "PASS" : "FAIL");

    auto row = Value::object();
    row.set("server", "nfs");
    row.set("mode", ncache::core::to_string(mode));
    row.set("copies", counts_json(nfs.counts, true));
    row.set("expected", counts_json(expect, true));
    row.set("pass", ok);
    row.set("measured", std::move(nfs.measured));
    report.add_row(std::move(row));
  }
  for (PassMode mode :
       {PassMode::Original, PassMode::NCache, PassMode::Baseline}) {
    Run web = measure_khttpd(mode);
    bool is_orig = mode == PassMode::Original;
    Counts expect{is_orig ? 1ull : 0ull, is_orig ? 2ull : 0ull, 0, 0};
    bool ok = web.counts.read_hit == expect.read_hit &&
              web.counts.read_miss == expect.read_miss;
    all_pass = all_pass && ok;
    std::printf("%-22s%10llu%10llu%12s%10s%8s\n",
                (std::string("kHTTPd-") + ncache::core::to_string(mode)).c_str(),
                (unsigned long long)web.counts.read_hit,
                (unsigned long long)web.counts.read_miss, "n/a", "n/a",
                ok ? "PASS" : "FAIL");

    auto row = Value::object();
    row.set("server", "khttpd");
    row.set("mode", ncache::core::to_string(mode));
    row.set("copies", counts_json(web.counts, false));
    row.set("expected", counts_json(expect, false));
    row.set("pass", ok);
    row.set("measured", std::move(web.measured));
    report.add_row(std::move(row));
  }
  report.shape().set("all_rows_match_paper", all_pass);
  return report.write() && all_pass ? 0 : 1;
}
