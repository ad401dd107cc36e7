// The paper's motivating scenario (§1): an NFS server backed by iSCSI
// network storage is a *pass-through* server — it relays bits it never
// interprets, yet the stock implementation copies every byte several
// times. This example runs the same hot-file workload against all three
// server configurations and prints the resource picture side by side.
//
// Build & run:  ./build/examples/nfs_fileserver
#include <cstdio>

#include "common/logging.h"
#include "fs/image_builder.h"
#include "testbed/testbed.h"
#include "workload/nfs_workloads.h"

using namespace ncache;

namespace {

struct Result {
  double mb_s;
  double server_cpu;
  std::uint64_t data_copies;
  std::uint64_t logical_copies;
  std::uint64_t bad_reads;  ///< OK reads whose payload failed verification
};

Result run(core::PassMode mode) {
  testbed::TestbedConfig config;
  config.mode = mode;
  config.server_nics = 2;  // CPU-bound regime (Fig 5b)
  config.nfs_daemons = 16;
  testbed::Testbed tb(config);
  std::uint32_t ino = tb.image().add_file("hot.bin", 5 << 20);
  tb.start_nfs();

  // Warm the caches, then hammer the hot set from both clients.
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                5 << 20, 32768, nullptr));

  auto hot = std::make_shared<workload::FileSet>();
  hot->entries.push_back({ino, 5 << 20, "hot.bin"});
  workload::StopFlag stop;
  workload::Stream stream;
  for (int ci = 0; ci < tb.client_count(); ++ci) {
    for (int w = 0; w < 10; ++w) {
      workload::random_reader(tb.nfs_client(ci), hot, nullptr,
                              Pcg32(std::uint32_t(ci * 16 + w + 1)), 32768,
                              &stop, &stream)
          .detach();
    }
  }
  tb.reset_stats();
  sim::Time t0 = tb.loop().now();
  workload::run_measurement(tb.loop(), stop, 400 * sim::kMillisecond);
  auto snap = tb.snapshot(t0);

  return Result{stream.mb_per_sec(400 * sim::kMillisecond),
                snap.server_cpu,
                tb.server_node().copier.stats().data_copy_ops,
                tb.server_node().copier.stats().logical_copy_ops,
                stream.verify_failures};
}

}  // namespace

int main() {
  ncache::log::set_level(ncache::log::Level::Error);
  std::printf(
      "Pass-through NFS server, 5 MB hot set, 32 KB reads, 2 NICs\n"
      "%-12s %12s %12s %16s %16s %10s\n",
      "mode", "MB/s", "server CPU", "data copies", "logical copies",
      "bad reads");

  Result orig = run(core::PassMode::Original);
  Result nc = run(core::PassMode::NCache);
  Result base = run(core::PassMode::Baseline);

  auto row = [](const char* name, const Result& r) {
    std::printf("%-12s %12.1f %11.0f%% %16llu %16llu %10llu\n", name, r.mb_s,
                r.server_cpu * 100, (unsigned long long)r.data_copies,
                (unsigned long long)r.logical_copies,
                (unsigned long long)r.bad_reads);
  };
  row("original", orig);
  row("ncache", nc);
  row("baseline", base);

  std::printf(
      "\nNCache throughput gain over the stock server: +%.0f%% "
      "(paper reports up to +92%% for this configuration)\n"
      "Every read is verified; the baseline server ships junk by design.\n",
      (nc.mb_s / orig.mb_s - 1.0) * 100);
  return orig.bad_reads == 0 && nc.bad_reads == 0 ? 0 : 1;
}
