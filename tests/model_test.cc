// Cost-model sweep properties over the full testbed: the directional
// claims the reproduction rests on must hold across a range of model
// parameters, not just at the calibrated point.
//
//   * NCache's throughput gain is monotonically non-decreasing in the
//     copy cost (more expensive copies -> more to save);
//   * the gain grows with request size under an all-hit workload;
//   * disabling checksum offload never hurts NCache relative to original;
//   * CPU utilization + throughput are consistent (no free lunch):
//     observed throughput never exceeds what the busy CPU could produce.
#include <gtest/gtest.h>

#include "fs/image_builder.h"
#include "testbed/testbed.h"
#include "workload/nfs_workloads.h"
#include "test_util.h"

namespace ncache {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

struct HotResult {
  double mb_s;
  double server_cpu;
};

HotResult hot_run(PassMode mode, sim::CostModel costs,
                  std::uint32_t request = 32768) {
  TestbedConfig cfg;
  cfg.mode = mode;
  cfg.server_nics = 2;
  cfg.nfs_daemons = 12;
  cfg.costs = costs;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("hot.bin", 2 << 20);
  tb.start_nfs();

  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                2 << 20, request, nullptr));

  auto hot = std::make_shared<workload::FileSet>();
  hot->entries.push_back({ino, 2 << 20, "hot.bin"});
  workload::StopFlag stop;
  workload::Stream stream;
  for (int ci = 0; ci < tb.client_count(); ++ci) {
    for (int w = 0; w < 8; ++w) {
      workload::random_reader(tb.nfs_client(ci), hot, nullptr,
                              Pcg32(std::uint32_t(ci * 10 + w + 1)), request,
                              &stop, &stream)
          .detach();
    }
  }
  tb.reset_stats();
  sim::Time t0 = tb.loop().now();
  workload::run_measurement(tb.loop(), stop, 150 * sim::kMillisecond);
  auto snap = tb.snapshot(t0);
  if (mode != PassMode::Baseline) expect_clean(stream);
  return {stream.mb_per_sec(150 * sim::kMillisecond), snap.server_cpu};
}

TEST(ModelSweep, GainMonotoneInCopyCost) {
  double last_gain = -1.0;
  for (double copy_ns : {1.0, 2.0, 3.2, 5.0}) {
    sim::CostModel costs;
    costs.copy_ns_per_byte = copy_ns;
    double orig = hot_run(PassMode::Original, costs).mb_s;
    double nc = hot_run(PassMode::NCache, costs).mb_s;
    double gain = nc / orig;
    EXPECT_GE(gain, last_gain - 0.02) << "copy_ns=" << copy_ns;
    EXPECT_GT(gain, 1.0) << "copy_ns=" << copy_ns;
    last_gain = gain;
  }
}

TEST(ModelSweep, GainGrowsWithRequestSize) {
  sim::CostModel costs;
  double last_gain = 0.0;
  for (std::uint32_t req : {4096u, 8192u, 16384u, 32768u}) {
    double orig = hot_run(PassMode::Original, costs, req).mb_s;
    double nc = hot_run(PassMode::NCache, costs, req).mb_s;
    double gain = nc / orig;
    EXPECT_GE(gain, last_gain - 0.03) << "req=" << req;
    last_gain = gain;
  }
  EXPECT_GT(last_gain, 1.5);  // substantial at 32 KB
}

TEST(ModelSweep, SoftwareChecksumsFavorNCache) {
  sim::CostModel on;
  sim::CostModel off;
  off.checksum_offload = false;
  double gain_on = hot_run(PassMode::NCache, on).mb_s /
                   hot_run(PassMode::Original, on).mb_s;
  double gain_off = hot_run(PassMode::NCache, off).mb_s /
                    hot_run(PassMode::Original, off).mb_s;
  EXPECT_GE(gain_off, gain_on - 0.02);
}

TEST(ModelSweep, NoFreeLunch) {
  // Throughput * per-byte CPU floor <= CPU time available. The floor for
  // any mode includes at least the per-frame costs of sending the data.
  sim::CostModel costs;
  auto r = hot_run(PassMode::NCache, costs);
  double bytes_per_sec = r.mb_s * 1e6;
  double frames_per_sec = bytes_per_sec / 1448.0;
  double floor_busy =
      frames_per_sec * double(costs.packet_tx_ns) * 1e-9;  // tx only
  EXPECT_LE(floor_busy, 1.0 + 1e-6);
  // And the measured utilization is consistent with at least that floor.
  EXPECT_GE(r.server_cpu, floor_busy * 0.5);
}

TEST(ModelSweep, BaselineDominatesNCacheDominatesOriginal) {
  for (std::uint32_t req : {8192u, 32768u}) {
    sim::CostModel costs;
    double orig = hot_run(PassMode::Original, costs, req).mb_s;
    double nc = hot_run(PassMode::NCache, costs, req).mb_s;
    double base = hot_run(PassMode::Baseline, costs, req).mb_s;
    EXPECT_GT(nc, orig * 0.98) << req;
    EXPECT_GT(base, nc * 0.98) << req;
  }
}

TEST(ModelSweep, SlowerLinkShiftsBottleneck) {
  // On a 100 Mb/s link everyone is link-bound and the modes converge.
  sim::CostModel slow;
  slow.link_bandwidth_bps = 100'000'000;
  double orig = hot_run(PassMode::Original, slow).mb_s;
  double nc = hot_run(PassMode::NCache, slow).mb_s;
  EXPECT_NEAR(nc / orig, 1.0, 0.08);
  // Both near the (2-NIC) fast-ethernet payload cap (the drain tail of
  // in-flight ops inflates the short measurement window slightly).
  EXPECT_GT(orig, 15.0);
  EXPECT_LT(orig, 28.0);
}

}  // namespace
}  // namespace ncache
