// Scripted fault injection and recovery.
//
//  * Gilbert–Elliott burst loss on every hop, in both Original and NCache
//    modes: reads converge byte-identical to a fault-free run.
//  * Mid-transfer link flap: short flaps ride out on protocol
//    retransmission; a flap longer than the iSCSI command timeout kills
//    the session and recovery (re-login + replay) finishes the transfer.
//  * Server crash/restart: caches and sessions are lost, clients converge
//    through NFS retransmission once the server returns.
//  * Disk read faults (latent sector error, checksum mismatch): the
//    target reports CHECK CONDITION, the initiator rereads, data heals.
//  * IP reassembly expiry: a lost fragment's partial datagram is evicted
//    by the self-arming timer, nobody leaks, the loop still drains.
//  * NCache graceful degradation: pressure trips the physical-copy
//    fallback, dwell accumulates, quiet recovers.
#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "fs/image_builder.h"
#include "testbed/testbed.h"

namespace ncache {
namespace {

using core::PassMode;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::GilbertElliott;
using netbuf::MsgBuffer;
using nfs::Status;
using testbed::Testbed;
using testbed::TestbedConfig;

template <typename F>
void run_on(Testbed& tb, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(tb.loop(), t_fn());
}

/// Reads the whole file in 32 KB chunks and checks every byte against the
/// deterministic generator — i.e. against what a fault-free run returns.
Task<void> read_and_verify(Testbed& tb, std::uint32_t ino, std::size_t size) {
  auto& client = tb.nfs_client(0);
  for (std::uint64_t off = 0; off < size; off += 32768) {
    auto r = co_await client.read(ino, off, 32768);
    EXPECT_EQ(r.status, Status::Ok) << "offset " << off;
    EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()), std::size_t(-1))
        << "offset " << off;
  }
}

// ---------------------------------------------------------------------------
// Burst loss on every hop x both modes
// ---------------------------------------------------------------------------

// Param: (hop, mode). Hops: 0=client cable, 1=server cable, 2=storage cable.
class BurstLossHops
    : public ::testing::TestWithParam<std::tuple<int, PassMode>> {};

TEST_P(BurstLossHops, ReadsConvergeByteIdentical) {
  auto [hop, mode] = GetParam();
  TestbedConfig cfg;
  cfg.mode = mode;
  Testbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  testbed::Node* nodes[] = {&tb.client_node(0), &tb.server_node(),
                            &tb.storage_node()};
  auto& cable = tb.ether_switch().cable_of(nodes[hop]->stack.nic(0));

  FaultInjector inj(tb.loop(), /*seed=*/42);
  GilbertElliott::Params ge;  // defaults: 50% loss in Bad, mean burst 5
  // The server hop carries ~23-fragment UDP replies where one lost
  // fragment loses the datagram; keep bursts rarer there so the test
  // converges in bounded retransmission rounds.
  if (hop == 1) ge.p_good_bad = 0.002;
  FaultPlan plan;
  plan.duplex_burst_loss(cable, tb.loop().now() + sim::kMillisecond,
                         2 * sim::kSecond, ge);
  plan.apply(inj);

  run_on(tb, [&]() -> Task<void> { co_await read_and_verify(tb, ino, kSize); });

  EXPECT_GT(inj.stats().frames_dropped, 0u) << "fault window never bit";
  EXPECT_EQ(inj.stats().burst_windows, 2u);  // one GE stream per direction
}

std::string burst_name(
    const ::testing::TestParamInfo<std::tuple<int, PassMode>>& info) {
  const char* hops[] = {"client", "server", "storage"};
  return std::string(hops[std::get<0>(info.param)]) +
         (std::get<1>(info.param) == PassMode::Original ? "_original"
                                                        : "_ncache");
}
INSTANTIATE_TEST_SUITE_P(
    Hops, BurstLossHops,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(PassMode::Original, PassMode::NCache)),
    burst_name);

// ---------------------------------------------------------------------------
// Link flaps
// ---------------------------------------------------------------------------

TEST(Fault, ShortFlapRidesOnRetransmission) {
  // A 300 ms client-cable flap mid-transfer: shorter than any session
  // timeout, so pure NFS retransmission absorbs it.
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  auto& cable = tb.ether_switch().cable_of(tb.client_node(0).stack.nic(0));
  FaultInjector inj(tb.loop(), 7);
  FaultPlan plan;
  plan.duplex_down(cable, tb.loop().now() + sim::kMillisecond,
                   300 * sim::kMillisecond);
  plan.apply(inj);

  run_on(tb, [&]() -> Task<void> { co_await read_and_verify(tb, ino, kSize); });

  EXPECT_EQ(inj.stats().link_downs, 2u);  // both directions
  EXPECT_EQ(inj.stats().link_ups, 2u);
  EXPECT_GT(cable.a_to_b.dropped_down() + cable.b_to_a.dropped_down(), 0u);
  EXPECT_GT(tb.nfs_client(0).stats().retransmits, 0u);
}

TEST(Fault, LongStorageFlapTriggersSessionRecovery) {
  // Flap the server<->storage cable past the iSCSI command timeout: the
  // watchdog declares the session dead, the reconnect loop backs off until
  // the cable returns, then re-login replays the parked commands and the
  // transfer completes correctly.
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  Testbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();
  tb.initiator().recovery().command_timeout = 200 * sim::kMillisecond;

  auto& cable = tb.ether_switch().cable_of(tb.storage_node().stack.nic(0));
  FaultInjector inj(tb.loop(), 11);
  FaultPlan plan;
  plan.duplex_down(cable, tb.loop().now() + 10 * sim::kMillisecond,
                   600 * sim::kMillisecond);
  plan.apply(inj);

  run_on(tb, [&]() -> Task<void> { co_await read_and_verify(tb, ino, kSize); });

  const auto& st = tb.initiator().stats();
  EXPECT_GE(st.command_timeouts, 1u);
  EXPECT_GE(st.session_drops, 1u);
  EXPECT_GE(st.relogins, 1u);
  EXPECT_GE(st.replays, 1u);
}

// ---------------------------------------------------------------------------
// Server crash / restart
// ---------------------------------------------------------------------------

class CrashModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(CrashModes, CrashRestartConvergesByteIdentical) {
  TestbedConfig cfg;
  cfg.mode = GetParam();
  Testbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  FaultInjector inj(tb.loop(), 3);

  run_on(tb, [&]() -> Task<void> {
    // First half of the transfer, fault-free.
    co_await read_and_verify(tb, ino, kSize / 2);
    // Power-fail the server mid-transfer; script the restart for later.
    tb.crash_server();
    EXPECT_TRUE(tb.server_crashed());
    inj.at(tb.loop().now() + 300 * sim::kMillisecond,
           [&tb] { tb.restart_server(); });
    // The second half stalls against the dead server, retransmits, and
    // converges byte-identical once the restarted instance answers.
    auto& client = tb.nfs_client(0);
    for (std::uint64_t off = kSize / 2; off < kSize; off += 32768) {
      auto r = co_await client.read(ino, off, 32768);
      EXPECT_EQ(r.status, Status::Ok) << "offset " << off;
      EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()),
                std::size_t(-1))
          << "offset " << off;
    }
    // The server still accepts writes after its restart.
    auto fh = co_await client.create(fs::kRootIno, "post-crash");
    EXPECT_TRUE(fh);
    std::vector<std::byte> data(8192);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);
    co_await tb.fs().sync();
    auto r = co_await client.read(*fh, 0, 8192);
    EXPECT_EQ(r.data.to_bytes(), data);
  });

  EXPECT_EQ(inj.stats().events_fired, 1u);
  EXPECT_FALSE(tb.server_crashed());
  EXPECT_GE(tb.initiator().stats().session_drops, 1u);
  EXPECT_GT(tb.nfs_client(0).stats().retransmits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, CrashModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache),
                         [](const ::testing::TestParamInfo<PassMode>& i) {
                           return std::string(core::to_string(i.param));
                         });

// ---------------------------------------------------------------------------
// Disk faults
// ---------------------------------------------------------------------------

class DiskFaultModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(DiskFaultModes, LatentSectorErrorHealsViaRetry) {
  TestbedConfig cfg;
  cfg.mode = GetParam();
  Testbed tb(cfg);
  constexpr std::size_t kSize = 128 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  // Arm a one-shot medium error across the start of the data region: the
  // first overlapping read fails with CHECK CONDITION, the reread lands.
  tb.store().inject_read_fault(tb.fs().superblock().data_start, 64,
                               blockdev::DiskFaultKind::LatentSectorError);

  run_on(tb, [&]() -> Task<void> { co_await read_and_verify(tb, ino, kSize); });

  EXPECT_GE(tb.store().read_errors(), 1u);
  EXPECT_GE(tb.initiator().stats().io_retries, 1u);
  EXPECT_EQ(tb.initiator().stats().errors, 0u);
}

TEST_P(DiskFaultModes, ChecksumMismatchCaughtAndHealed) {
  TestbedConfig cfg;
  cfg.mode = GetParam();
  Testbed tb(cfg);
  constexpr std::size_t kSize = 128 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  tb.store().inject_read_fault(tb.fs().superblock().data_start, 64,
                               blockdev::DiskFaultKind::ChecksumMismatch);

  run_on(tb, [&]() -> Task<void> { co_await read_and_verify(tb, ino, kSize); });

  // The corruption never reached the client: the per-block CRC flagged it
  // and the initiator reread clean bytes.
  EXPECT_GE(tb.store().checksum_mismatches(), 1u);
  EXPECT_GE(tb.initiator().stats().io_retries, 1u);
}

INSTANTIATE_TEST_SUITE_P(Modes, DiskFaultModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache),
                         [](const ::testing::TestParamInfo<PassMode>& i) {
                           return std::string(core::to_string(i.param));
                         });

// ---------------------------------------------------------------------------
// IP reassembly expiry
// ---------------------------------------------------------------------------

TEST(Fault, ReassemblyExpiryEvictsStalePartials) {
  // Drop exactly one fragment of one server reply: the client holds a
  // partial datagram that can never complete (the retransmitted reply uses
  // a fresh IP id). The self-arming expiry timer must evict it without
  // anyone calling expire() — and the loop must still drain afterwards.
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 64 * 1024);
  tb.start_nfs();

  int fragments_seen = 0;
  tb.server_node().stack.nic(0).set_egress_filter(
      [&fragments_seen](proto::Frame& f) {
        if (f.ip.more_fragments && ++fragments_seen == 1) return false;
        return true;
      });

  run_on(tb, [&]() -> Task<void> {
    auto r = co_await tb.nfs_client(0).read(ino, 0, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(fs::verify_content(ino, 0, r.data.to_bytes()), std::size_t(-1));
    // Outlive the 2 s reassembly timeout; the timer fires on its own.
    co_await sim::sleep_for(tb.loop(), 2500 * sim::kMillisecond);
  });

  auto& reasm = tb.client_node(0).stack.reassembler();
  EXPECT_GE(reasm.timeouts(), 1u);
  EXPECT_EQ(reasm.pending(), 0u);
  // Satellite: the counter is visible through the registry.
  EXPECT_EQ(tb.metrics().counter_value("client0", "ip.reassembly_timeouts"),
            reasm.timeouts());
}

// ---------------------------------------------------------------------------
// NCache graceful degradation
// ---------------------------------------------------------------------------

TEST(Fault, DegradationEngagesAndRecovers) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  // Pool smaller than a single block: every ingest insert fails, so the
  // pressure source is exact and deterministic.
  cfg.ncache_budget_bytes = 2048;
  Testbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();
  auto& dc = tb.ncache()->ladder_config();
  dc.physical_copy_at = 4;

  run_on(tb, [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    // One 32 KB read ingests 8 blocks; the first `threshold` inserts fail
    // and trip degradation, the rest bypass the pool.
    auto first = co_await client.read(ino, 0, 32768);
    EXPECT_EQ(first.status, Status::Ok);
    EXPECT_TRUE(tb.ncache()->degraded());
    // Degraded reads bypass the pool and carry real bytes (Original-path
    // semantics) — never junk. Flush the fs cache first so the reread
    // re-ingests instead of serving the pre-trip junk markers.
    co_await tb.fs().cache().drop_all();
    auto r = co_await client.read(ino, 0, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_FALSE(r.junk);
    EXPECT_EQ(fs::verify_content(ino, 0, r.data.to_bytes()), std::size_t(-1));
    // Phase 2: quiet period beyond dwell + quiet thresholds, then one
    // fresh-offset touch to run the lazy recovery check.
    co_await sim::sleep_for(tb.loop(), dc.min_dwell + dc.quiet_period +
                                           50 * sim::kMillisecond);
    auto r2 = co_await client.read(ino, 65536, 32768);
    EXPECT_EQ(r2.status, Status::Ok);
  });

  const auto& st = tb.ncache()->stats();
  EXPECT_GE(st.degrade_entries, 1u);
  EXPECT_GE(st.degrade_exits, 1u);
  EXPECT_GT(st.degraded_ingest_bypass, 0u);
  EXPECT_GT(tb.ncache()->degraded_ns(), 0u);
}

}  // namespace
}  // namespace ncache
