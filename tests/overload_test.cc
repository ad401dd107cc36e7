// The overload-control spine (PR 9), bottom to top:
//
//  * Primitives: token-bucket refill/cap, retry-budget deposit/withdraw/
//    reserve accounting, the CoDel control law (arm, ramp, reset), and
//    AIMD clamping — all on caller-supplied nanoseconds.
//  * Cache freshness: insert_lbn/insert_fho stamp chunks with the loop
//    clock, so the ServeStale brownout tier can bound staleness by age.
//  * Degradation ladder: sustained pressure escalates Normal -> ServeStale
//    -> PhysicalCopy -> Shed (the window is not cleared between tiers, and
//    a big enough window skips tiers); recovery steps down one tier at a
//    time, gated by dwell + quiet hysteresis. degraded()/degraded_ns()
//    cover the PhysicalCopy-and-above stretch. The default ladder is the
//    physical-copy fallback alone: 8 events in 50 ms trip it, and one
//    recovery step returns it to Normal.
//  * NFS server: the hard queue bound drops (and meters) floods even with
//    every overload gate off; with the gate on, CoDel sheds standing
//    queues while metadata ops jump past the data backlog.
//  * kHTTPd: the connection cap refuses accepts; CoDel sheds pipelined
//    requests with a cheap 503.
//  * Cluster: VIP admission sheds a flood at ingress and the AIMD
//    controller backs off on replica queue-depth feedback piggybacked on
//    heartbeat acks (zero extra packets).
//  * Retry budget end-to-end: with an empty budget a dead server fails
//    fast (one RTO, no retransmit storm) instead of walking the full
//    six-attempt ladder; service resumes when the cable heals.
//  * Differential discipline: with every gate off, runs are byte-identical
//    across repeats and across inert queue-bound changes (streams and
//    metrics JSON both).
//  * ParallelEngine: a flash-crowd spike over cluster_racks is
//    byte-identical across two same-seed runs while shedding is active.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_testbed.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "core/ncache_module.h"
#include "fs/image_builder.h"
#include "http/client.h"
#include "http/khttpd.h"
#include "proto/switch.h"
#include "testbed/testbed.h"
#include "topo/instantiator.h"
#include "topo/presets.h"
#include "workload/counters.h"
#include "workload/load_curve.h"
#include "test_util.h"

namespace ncache {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterTestbed;
using core::BrownoutTier;
using core::NCacheModule;
using core::PassMode;
using http::HttpClient;
using http::KHttpd;
using netbuf::CacheKey;
using netbuf::LbnKey;
using netbuf::MsgBuffer;
using nfs::Status;
using sim::kMillisecond;
using sim::kSecond;
using testbed::Testbed;
using testbed::TestbedConfig;

MsgBuffer chain_of(std::size_t bytes, int seed) {
  MsgBuffer m;
  std::size_t left = bytes;
  while (left > 0) {
    std::size_t take = std::min<std::size_t>(1460, left);
    auto buf = netbuf::make_buffer(take);
    auto span = buf->put(take);
    for (std::size_t i = 0; i < take; ++i) {
      span[i] = std::byte((i * 17 + seed) & 0xff);
    }
    m.append(netbuf::ByteSeg{std::move(buf), 0, std::uint32_t(take)});
    left -= take;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(OverloadPrimitives, TokenBucketRefillAndCap) {
  overload::TokenBucket tb(100.0, 10.0);
  EXPECT_DOUBLE_EQ(tb.available(0), 10.0);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(tb.try_take(0));
  EXPECT_FALSE(tb.try_take(0));

  // 50 ms at 100/s refills 5 tokens.
  EXPECT_NEAR(tb.available(50'000'000), 5.0, 1e-9);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tb.try_take(50'000'000));
  EXPECT_FALSE(tb.try_take(50'000'000));

  // A long idle stretch caps at the burst, never beyond.
  EXPECT_DOUBLE_EQ(tb.available(100 * kSecond), 10.0);

  tb.set_rate(200.0);
  EXPECT_DOUBLE_EQ(tb.rate(), 200.0);
}

TEST(OverloadPrimitives, RetryBudgetDepositWithdrawReserve) {
  overload::RetryBudget::Config c;
  c.deposit_ratio = 0.5;
  c.capacity = 3.0;
  c.reserve_per_sec = 0.0;
  c.initial = 1.0;
  overload::RetryBudget b(c);

  EXPECT_TRUE(b.try_withdraw(0));
  EXPECT_FALSE(b.try_withdraw(0));  // drained; no reserve
  EXPECT_EQ(b.withdrawn(), 1u);
  EXPECT_EQ(b.denied(), 1u);

  // Two successes buy one retry at a 0.5 deposit ratio.
  b.deposit(0);
  EXPECT_FALSE(b.try_withdraw(0));
  b.deposit(0);
  EXPECT_TRUE(b.try_withdraw(0));

  // Deposits cap at `capacity`.
  for (int i = 0; i < 100; ++i) b.deposit(0);
  EXPECT_DOUBLE_EQ(b.balance(0), 3.0);

  // A registry reset zeroes both counters; the balance is not a counter.
  MetricRegistry registry;
  b.register_metrics(registry, "client0");
  registry.reset_all();
  EXPECT_EQ(b.withdrawn(), 0u);
  EXPECT_EQ(b.denied(), 0u);
  EXPECT_DOUBLE_EQ(b.balance(0), 3.0);

  // The time-based reserve keeps probes alive with zero successes.
  overload::RetryBudget::Config rc;
  rc.reserve_per_sec = 2.0;
  rc.initial = 0.0;
  overload::RetryBudget probe(rc);
  EXPECT_FALSE(probe.try_withdraw(0));
  EXPECT_NEAR(probe.balance(1 * kSecond), 2.0, 1e-9);
  EXPECT_TRUE(probe.try_withdraw(1 * kSecond));
}

TEST(OverloadPrimitives, CoDelArmsRampsAndResets) {
  overload::CoDelState::Config c;
  c.target_ns = 5'000'000;     // 5 ms
  c.interval_ns = 100'000'000; // 100 ms
  overload::CoDelState codel(c);

  // Below target: nothing happens.
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond, 1'000'000));
  EXPECT_FALSE(codel.dropping());

  // Above target arms the window; drops only after a full interval above.
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond, 10'000'000));
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond + 50 * kMillisecond, 10'000'000));
  EXPECT_TRUE(codel.on_dequeue(1 * kSecond + 100 * kMillisecond, 10'000'000));
  EXPECT_TRUE(codel.dropping());
  EXPECT_EQ(codel.drop_count(), 1u);

  // The ramp: next drop one interval later, then interval/sqrt(count).
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond + 150 * kMillisecond, 10'000'000));
  EXPECT_TRUE(codel.on_dequeue(1 * kSecond + 200 * kMillisecond, 10'000'000));
  EXPECT_EQ(codel.drop_count(), 2u);

  // A sojourn back under target ends the spell and restarts the window.
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond + 250 * kMillisecond, 1'000'000));
  EXPECT_FALSE(codel.dropping());
  EXPECT_FALSE(codel.on_dequeue(1 * kSecond + 260 * kMillisecond, 10'000'000));
  EXPECT_FALSE(codel.dropping());
}

TEST(OverloadPrimitives, AimdClampsAndCounts) {
  overload::AimdRate::Config c;
  c.min_rate = 50.0;
  c.max_rate = 200.0;
  c.initial = 100.0;
  c.increase_per_round = 30.0;
  c.decrease_factor = 0.5;
  overload::AimdRate aimd(c);

  EXPECT_DOUBLE_EQ(aimd.rate(), 100.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(false), 130.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(false), 160.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(false), 190.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(false), 200.0);  // clamped at max
  EXPECT_DOUBLE_EQ(aimd.on_round(true), 100.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(true), 50.0);
  EXPECT_DOUBLE_EQ(aimd.on_round(true), 50.0);  // clamped at min
  EXPECT_EQ(aimd.increases(), 4u);
  EXPECT_EQ(aimd.decreases(), 3u);
}

// ---------------------------------------------------------------------------
// Cache freshness + brownout ladder (standalone module)
// ---------------------------------------------------------------------------

class OverloadModuleTest : public ::testing::Test {
 protected:
  OverloadModuleTest()
      : book_(std::make_shared<proto::AddressBook>()),
        cpu_(loop_, "cpu"),
        copier_(cpu_, costs_),
        stack_(loop_, cpu_, copier_, costs_, "host", book_),
        module_(stack_, {1 << 20, 4096}) {
    stack_.add_nic(0xaa, proto::make_ipv4(10, 0, 0, 1));
  }

  /// One pressure event: an egress frame whose key was never cached.
  void press() {
    proto::Frame f;
    f.payload.append(MsgBuffer::from_key(CacheKey(LbnKey{0, 0xdead}), 0, 100));
    module_.egress_filter(f);
  }

  sim::EventLoop loop_;
  sim::CostModel costs_{};
  std::shared_ptr<proto::AddressBook> book_;
  sim::CpuModel cpu_;
  netbuf::CopyEngine copier_;
  proto::NetworkStack stack_;
  NCacheModule module_;
};

TEST_F(OverloadModuleTest, InsertTimestampsFollowTheClock) {
  loop_.advance_to(5 * kMillisecond);
  module_.ingest_lbn(0, 42, chain_of(4096, 1));
  auto at = module_.cache().lbn_inserted_at(42, 0);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, 5 * kMillisecond);

  // An overwrite refreshes the stamp.
  loop_.advance_to(9 * kMillisecond);
  module_.ingest_lbn(0, 42, chain_of(4096, 2));
  at = module_.cache().lbn_inserted_at(42, 0);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(*at, 9 * kMillisecond);

  EXPECT_FALSE(module_.cache().lbn_inserted_at(43, 0).has_value());
}

TEST_F(OverloadModuleTest, LadderEscalatesStepwiseAndRecoversWithHysteresis) {
  auto& bc = module_.ladder_config();
  bc.serve_stale_at = 2;
  bc.physical_copy_at = 4;
  bc.shed_at = 6;
  bc.min_dwell = 10 * kMillisecond;
  bc.quiet_period = 5 * kMillisecond;

  loop_.advance_to(1 * kMillisecond);
  press();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::Normal);
  press();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::ServeStale);
  EXPECT_FALSE(module_.degraded());

  // The window is NOT cleared on escalation: two more events (window now
  // at 4) cross tier2 — with a cleared window they could not.
  press();
  press();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::PhysicalCopy);
  EXPECT_TRUE(module_.degraded());
  EXPECT_EQ(module_.stats().degrade_entries, 1u);

  press();
  press();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::Shed);
  EXPECT_TRUE(module_.shed_active());
  EXPECT_TRUE(module_.shed_probe());
  EXPECT_EQ(module_.stats().brownout_escalations, 3u);

  // Recovery: one tier per qualifying probe, dwell restarting each step.
  loop_.advance_to(17 * kMillisecond);
  EXPECT_FALSE(module_.shed_probe());
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::PhysicalCopy);
  EXPECT_TRUE(module_.degraded());
  // A second probe at the same instant must not double-step.
  module_.shed_probe();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::PhysicalCopy);

  loop_.advance_to(28 * kMillisecond);
  module_.shed_probe();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::ServeStale);
  EXPECT_FALSE(module_.degraded());
  EXPECT_EQ(module_.stats().degrade_exits, 1u);
  EXPECT_GT(module_.degraded_ns(), 0u);

  loop_.advance_to(39 * kMillisecond);
  module_.shed_probe();
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::Normal);
  EXPECT_EQ(module_.stats().brownout_deescalations, 3u);
}

TEST_F(OverloadModuleTest, EscalationSkipsTiersUnderABurst) {
  auto& bc = module_.ladder_config();
  bc.serve_stale_at = 2;
  bc.physical_copy_at = 2;
  bc.shed_at = 2;

  loop_.advance_to(1 * kMillisecond);
  press();
  press();
  // One jump straight to the top tier, counted as a single escalation.
  EXPECT_EQ(module_.brownout_tier(), BrownoutTier::Shed);
  EXPECT_EQ(module_.stats().brownout_escalations, 1u);
  EXPECT_TRUE(module_.degraded());
  EXPECT_EQ(module_.stats().degrade_entries, 1u);
}

TEST_F(OverloadModuleTest, DefaultLadderIsThePhysicalCopyFallback) {
  MetricRegistry registry;
  module_.register_metrics(registry, "host");
  for (const auto& m : registry.metrics()) {
    EXPECT_FALSE(m.name.starts_with("ncache.brownout.")) << m.name;
  }

  // Seven events inside the 50 ms window stay below the threshold, and no
  // gentler tier engages either: ingests still go to the pool.
  for (int i = 1; i <= 7; ++i) {
    loop_.advance_to(sim::Time(i) * kMillisecond);
    press();
    EXPECT_FALSE(module_.shed_probe());
  }
  module_.ingest_lbn(0, 1, chain_of(4096, 1));
  EXPECT_FALSE(module_.degraded());
  EXPECT_EQ(module_.stats().degraded_ingest_bypass, 0u);

  // The eighth goes straight to the physical-copy path.
  loop_.advance_to(8 * kMillisecond);
  press();
  EXPECT_TRUE(module_.degraded());
  EXPECT_EQ(registry.counter_value("host", "ncache.degrade_entries"), 1u);
  EXPECT_FALSE(module_.shed_probe());

  // One probe after dwell + quiet (200 + 100 ms) recovers in a single step.
  const sim::Duration dwell = 300 * kMillisecond;
  loop_.advance_to(8 * kMillisecond + dwell);
  EXPECT_FALSE(module_.shed_probe());
  EXPECT_FALSE(module_.degraded());
  EXPECT_EQ(module_.stats().degrade_exits, 1u);
  EXPECT_EQ(registry.counter_value("host", "ncache.degraded_ns"), dwell);
  module_.ingest_lbn(0, 2, chain_of(4096, 2));
  EXPECT_EQ(module_.stats().degraded_ingest_bypass, 0u);

  // Events from before the recovery have left the window.
  for (int i = 0; i < 7; ++i) press();
  EXPECT_FALSE(module_.degraded());
  EXPECT_FALSE(module_.shed_probe());
  EXPECT_EQ(module_.stats().degrade_entries, 1u);
}

// ---------------------------------------------------------------------------
// Brownout through the testbed gate
// ---------------------------------------------------------------------------

TEST(Brownout, TestbedGateEngagesServeStaleAndRecovers) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  // Pool smaller than a block: every ingest insert fails deterministically.
  cfg.ncache_budget_bytes = 2048;
  cfg.overload.ncache_ladder.serve_stale_at = 2;
  cfg.overload.ncache_ladder.physical_copy_at = 100;
  cfg.overload.ncache_ladder.shed_at = 200;
  // Dwell/quiet well above the disk-paced ingest cadence, so the tier
  // cannot flap between the per-block pressure events of one read.
  cfg.overload.ncache_ladder.min_dwell = 200 * kMillisecond;
  cfg.overload.ncache_ladder.quiet_period = 100 * kMillisecond;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 256 * 1024);
  tb.start_nfs();
  NCacheModule* mod = tb.ncache();
  ASSERT_NE(mod, nullptr);

  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    // 8 ingests: the first two fail and trip ServeStale, the rest bypass
    // the pool (physical copies).
    auto first = co_await client.read(ino, 0, 32768);
    EXPECT_EQ(first.status, Status::Ok);
    EXPECT_EQ(mod->brownout_tier(), BrownoutTier::ServeStale);
    EXPECT_FALSE(mod->degraded());  // tier 1 is gentler than PhysicalCopy
    EXPECT_GT(mod->stats().degraded_ingest_bypass, 0u);
    // ServeStale still serves real bytes: flush the pre-trip junk markers
    // out of the fs cache, then reread through the bypass path.
    co_await tb.fs().cache().drop_all();
    auto r = co_await client.read(ino, 0, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_FALSE(r.junk);
    EXPECT_EQ(fs::verify_content(ino, 0, r.data.to_bytes()), std::size_t(-1));
  });

  EXPECT_EQ(mod->stats().brownout_escalations, 1u);
  // Brownout rows register only with a ServeStale or Shed tier.
  EXPECT_DOUBLE_EQ(tb.metrics().gauge_value("server0", "ncache.brownout.tier"),
                   1.0);
  EXPECT_EQ(tb.metrics().counter_value("server0", "ncache.brownout.escalations"),
            1u);

  run_on(tb.loop(), [&]() -> Task<void> {
    co_await sim::sleep_for(tb.loop(), 350 * kMillisecond);
  });
  EXPECT_FALSE(mod->shed_probe());  // runs the lazy recovery check
  EXPECT_EQ(mod->brownout_tier(), BrownoutTier::Normal);
  EXPECT_EQ(mod->stats().brownout_deescalations, 1u);
  EXPECT_DOUBLE_EQ(tb.metrics().gauge_value("server0", "ncache.brownout.tier"),
                   0.0);
}

// ---------------------------------------------------------------------------
// NFS server: hard bound + CoDel + metadata priority
// ---------------------------------------------------------------------------

Task<void> one_read(nfs::NfsClient* c, std::uint64_t fh, std::uint64_t off,
                    std::uint32_t count, int* done, int* ok) {
  auto r = co_await c->read(fh, off, count);
  ++*done;
  if (r.status == Status::Ok) ++*ok;
}

TEST(NfsOverload, HardQueueBoundDropsFloodsEvenWithGatesOff) {
  TestbedConfig cfg;
  cfg.nfs_daemons = 1;
  cfg.overload.nfs_queue_limit = 2;  // the bound is always enforced
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("blob", 1 << 20);
  tb.start_nfs();

  int done = 0, ok = 0;
  run_on(tb.loop(), [&]() -> Task<void> {
    for (int i = 0; i < 40; ++i) {
      one_read(&tb.nfs_client(0), ino, std::uint64_t(i) * 4096, 4096, &done,
               &ok)
          .detach(tb.loop().reaper());
    }
    while (done < 40) co_await sim::sleep_for(tb.loop(), 100 * kMillisecond);
  });

  const auto& st = tb.nfs_server().stats();
  EXPECT_GT(st.queue_drops, 0u);
  EXPECT_GT(ok, 0);
  // The drop counter is visible unconditionally through the registry.
  EXPECT_EQ(tb.metrics().counter_value("server0", "nfs.queue_drops"),
            st.queue_drops);
  // Gated rows stay absent with the gate off.
  EXPECT_EQ(tb.metrics().counter_value("server0", "overload.shed"), 0u);
}

TEST(NfsOverload, CoDelShedsWhileMetadataJumpsTheQueue) {
  TestbedConfig cfg;
  cfg.nfs_daemons = 1;
  cfg.overload.server_queue = true;
  cfg.overload.codel.target_ns = 1'000'000;    // 1 ms
  cfg.overload.codel.interval_ns = 10'000'000; // 10 ms
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("big", 2 << 20);
  tb.start_nfs();

  int done = 0, ok = 0;
  run_on(tb.loop(), [&]() -> Task<void> {
    for (int i = 0; i < 60; ++i) {
      one_read(&tb.nfs_client(0), ino, std::uint64_t(i) * 32768, 32768, &done,
               &ok)
          .detach(tb.loop().reaper());
    }
    co_await sim::sleep_for(tb.loop(), 5 * kMillisecond);
    // Metadata dequeues ahead of the standing data backlog.
    auto attr = co_await tb.nfs_client(0).getattr(ino);
    EXPECT_TRUE(attr.has_value());
    EXPECT_LT(done, 60) << "getattr should finish while data ops still queue";
    while (done < 60) co_await sim::sleep_for(tb.loop(), 100 * kMillisecond);
  });

  EXPECT_GT(tb.nfs_server().stats().shed, 0u);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(tb.metrics().counter_value("server0", "overload.shed"),
            tb.nfs_server().stats().shed);
}

// ---------------------------------------------------------------------------
// kHTTPd: connection cap + CoDel 503s
// ---------------------------------------------------------------------------

TEST(HttpOverload, ConnectionCapRefusesAccepts) {
  TestbedConfig base;
  Testbed tb(base);
  std::uint32_t ino = tb.image().add_file("index.html", 1000);
  tb.start_base();

  KHttpd::Config hc;
  hc.overload.enabled = true;
  hc.overload.max_connections = 1;
  KHttpd server(tb.server_node().stack, tb.fs(), hc, tb.ncache());
  server.start();

  HttpClient a(tb.client_node(0).stack, tb.client_ip(0), tb.server_ip(0));
  HttpClient b(tb.client_node(1).stack, tb.client_ip(1), tb.server_ip(0));

  run_on(tb.loop(), [&]() -> Task<void> {
    EXPECT_TRUE(co_await a.connect());
    auto r = co_await a.get("/index.html");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.content_length, 1000u);
    co_await b.connect();
    co_await sim::sleep_for(tb.loop(), 10 * kMillisecond);
    EXPECT_EQ(server.stats().conn_rejects, 1u);
    // The admitted connection keeps working at the cap.
    auto r2 = co_await a.get("/index.html");
    EXPECT_EQ(r2.status, 200);
  });
  (void)ino;
}

TEST(HttpOverload, CoDelShedsWithCheap503) {
  TestbedConfig base;
  Testbed tb(base);
  tb.image().add_file("index.html", 1000);
  tb.start_base();

  KHttpd::Config hc;
  hc.overload.enabled = true;
  // Degenerate law: every sojourn is "above target", and the observation
  // window is one nanosecond — the second request starts the 503 shed.
  hc.overload.codel.target_ns = 0;
  hc.overload.codel.interval_ns = 1;
  KHttpd server(tb.server_node().stack, tb.fs(), hc, tb.ncache());
  server.start();

  HttpClient c(tb.client_node(0).stack, tb.client_ip(0), tb.server_ip(0));
  run_on(tb.loop(), [&]() -> Task<void> {
    EXPECT_TRUE(co_await c.connect());
    auto r1 = co_await c.get("/index.html");
    EXPECT_EQ(r1.status, 200);
    auto r2 = co_await c.get("/index.html");
    EXPECT_EQ(r2.status, 503);
  });

  EXPECT_GE(server.stats().shed, 1u);
  EXPECT_GE(server.stats().responses_503, 1u);
}

// ---------------------------------------------------------------------------
// Cluster: VIP admission + queue-depth feedback
// ---------------------------------------------------------------------------

TEST(ClusterOverload, AdmissionShedsFloodAndAimdBacksOffOnQdepth) {
  ClusterConfig cfg;
  cfg.server_count = 2;
  cfg.client_count = 2;
  cfg.nfs_daemons = 1;
  cfg.overload.admission = true;
  cfg.overload.qdepth_feedback = true;
  cfg.overload.aimd.min_rate = 50.0;
  cfg.overload.aimd.max_rate = 400.0;
  cfg.overload.aimd.initial = 200.0;
  cfg.overload.aimd.increase_per_round = 1.0;
  cfg.overload.aimd.decrease_factor = 0.7;
  cfg.overload.admission_qdepth_high = 1;
  ClusterTestbed tb(cfg);
  std::vector<std::uint64_t> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(tb.image().add_file("a" + std::to_string(i), 64 * 1024));
  }
  tb.start_nfs();

  int done = 0, ok = 0;
  run_on(tb.loop(), [&]() -> Task<void> {
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 200; ++i) {
        one_read(&tb.nfs_client(c), files[std::size_t(i % 4)],
                 std::uint64_t(i % 16) * 4096, 4096, &done, &ok)
            .detach(tb.loop().reaper());
      }
    }
    co_await sim::sleep_for(tb.loop(), 60 * kMillisecond);
    // Two heartbeat rounds in: the acks piggybacked a nonzero depth (no
    // extra packets on the wire) and the AIMD controller backed off.
    std::uint32_t qd = 0;
    for (std::uint32_t id = 0; id < 4; ++id) {
      qd = std::max(qd, tb.lb().replica_qdepth(id));
    }
    EXPECT_GT(qd, 0u) << "heartbeat acks should carry replica queue depth";
    EXPECT_LT(tb.lb().admission_rate(), 200.0);
    while (done < 400) co_await sim::sleep_for(tb.loop(), 50 * kMillisecond);
  });

  const auto& st = tb.lb().stats();
  EXPECT_GT(st.admitted, 0u);
  EXPECT_GT(st.admission_shed, 0u);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(tb.metrics().counter_value("lb0", "overload.shed"),
            st.admission_shed);
}

// ---------------------------------------------------------------------------
// Retry budget end-to-end: fail fast against a dead server
// ---------------------------------------------------------------------------

TEST(RetryBudgetE2E, EmptyBudgetFailsFastAndHealsWithTheCable) {
  TestbedConfig cfg;
  cfg.overload.retry_budget = true;
  cfg.overload.budget.initial = 0.0;
  cfg.overload.budget.reserve_per_sec = 0.0;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f", 64 * 1024);
  tb.start_nfs();

  auto& cable = tb.world().cable("server0");
  run_on(tb.loop(), [&]() -> Task<void> {
    // Baseline: service works and successes deposit into the budget
    // (0.1 per reply — not yet a whole retry token).
    auto warm = co_await tb.nfs_client(0).read(ino, 0, 4096);
    EXPECT_EQ(warm.status, Status::Ok);

    cable.a_to_b.set_admin_up(false);
    cable.b_to_a.set_admin_up(false);
    sim::Time t0 = tb.loop().now();
    auto r = co_await tb.nfs_client(0).read(ino, 4096, 4096);
    EXPECT_NE(r.status, Status::Ok);
    sim::Duration elapsed = tb.loop().now() - t0;
    // One learned RTO (clamped at 200 ms after the warm read), then the
    // budget denies the first retransmit and the call fails — not the
    // multi-second six-attempt ladder.
    EXPECT_GE(elapsed, 100 * kMillisecond);
    EXPECT_LT(elapsed, 2 * kSecond);
    EXPECT_EQ(tb.nfs_client(0).stats().budget_denied, 1u);
    EXPECT_EQ(tb.nfs_client(0).stats().retransmits, 0u);

    cable.a_to_b.set_admin_up(true);
    cable.b_to_a.set_admin_up(true);
    auto healed = co_await tb.nfs_client(0).read(ino, 0, 4096);
    EXPECT_EQ(healed.status, Status::Ok);
  });

  // Gated budget rows registered because the gate is on.
  EXPECT_EQ(tb.metrics().counter_value("client0", "nfs_client.budget_denied"),
            1u);
  EXPECT_EQ(tb.metrics().counter_value("client0", "retry_budget.denied"), 1u);
}

// ---------------------------------------------------------------------------
// Differential: all gates off => byte-identical, bound changes inert
// ---------------------------------------------------------------------------

struct PlainRun {
  std::uint64_t stream_hash = 0xcbf29ce484222325ull;
  std::string metrics_json;
  sim::Time end_time = 0;
};

PlainRun run_plain(const TestbedConfig& cfg) {
  Testbed tb(cfg);
  std::uint32_t f0 = tb.image().add_file("d0", 64 * 1024);
  std::uint32_t f1 = tb.image().add_file("d1", 32 * 1024);
  tb.start_nfs();

  PlainRun out;
  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    std::vector<std::byte> payload(8192);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = std::byte((i * 31 + 7) & 0xff);
    }
    EXPECT_EQ(co_await client.write(f1, 0, payload), Status::Ok);
    for (std::uint64_t off = 0; off < 64 * 1024; off += 32768) {
      auto r = co_await client.read(f0, off, 32768);
      EXPECT_EQ(r.status, Status::Ok);
      for (std::byte b : r.data.to_bytes()) {
        out.stream_hash =
            (out.stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
      }
    }
    auto r = co_await client.read(f1, 0, 8192);
    EXPECT_EQ(r.status, Status::Ok);
    for (std::byte b : r.data.to_bytes()) {
      out.stream_hash = (out.stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
    }
    auto attr = co_await client.getattr(f1);
    EXPECT_TRUE(attr.has_value());
  });
  out.metrics_json = tb.metrics().to_json().dump();
  out.end_time = tb.loop().now();
  return out;
}

TEST(OverloadDifferential, DisabledGatesAreByteIdentical) {
  TestbedConfig base;
  base.mode = PassMode::NCache;
  PlainRun a = run_plain(base);
  PlainRun b = run_plain(base);  // same-seed repeat
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.metrics_json, b.metrics_json);

  // The always-on queue bound is inert while never hit: changing it must
  // not perturb a single byte of behavior or telemetry.
  TestbedConfig bound = base;
  bound.overload.nfs_queue_limit = 1234;
  PlainRun c = run_plain(bound);
  EXPECT_EQ(a.stream_hash, c.stream_hash);
  EXPECT_EQ(a.end_time, c.end_time);
  EXPECT_EQ(a.metrics_json, c.metrics_json);
}

// ---------------------------------------------------------------------------
// ParallelEngine: flash crowd byte-identical across same-seed runs
// ---------------------------------------------------------------------------

struct OverloadRacksRun {
  std::vector<std::uint64_t> ops;
  std::vector<std::uint64_t> errors;
  std::vector<std::uint64_t> digests;
  std::uint64_t total_ops = 0;
  std::uint64_t sheds = 0;
  sim::Time end_time = 0;
  std::uint64_t rounds = 0;
  std::string metrics_json;
};

OverloadRacksRun run_racks_overload() {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.peer_without_balancer = true;
  cfg.overload.server_queue = true;
  cfg.overload.retry_budget = true;
  cfg.overload.ncache_ladder = core::kBrownoutLadder;
  cfg.overload.nfs_queue_limit = 32;
  cfg.overload.codel.target_ns = 1'000'000;
  cfg.overload.codel.interval_ns = 10'000'000;
  topo::World world(topo::presets::cluster_racks(2, 2), cfg);

  auto files = std::make_shared<workload::FileSet>();
  files->add(world.image(), "o", 8, 64 * 1024);
  world.start_nfs();

  workload::LoadCurve::Config lc;
  lc.base_rate_per_sec = 400.0;
  lc.spikes.push_back({30 * kMillisecond, 40 * kMillisecond, 12.0});
  auto curve = std::make_shared<const workload::LoadCurve>(lc);

  const int n = world.client_count();
  std::vector<workload::Stream> streams(static_cast<std::size_t>(n));
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    workload::open_loop_nfs_reads(world.nfs_client(c), curve, files, 16384,
                                  std::uint32_t(300 + c), &stop,
                                  &streams[std::size_t(c)])
        .detach(world.engine().domain_loop(d).reaper());
  }
  workload::run_measurement(world.engine(), stop, 120 * kMillisecond);

  OverloadRacksRun run;
  for (auto& s : streams) {
    run.ops.push_back(s.ops);
    run.errors.push_back(s.errors);
    run.digests.push_back(s.digest);
    run.total_ops += s.ops;
    EXPECT_EQ(s.verify_failures, 0u);
  }
  for (int i = 0; i < world.server_count(); ++i) {
    const auto& st = world.server(i).nfs->stats();
    run.sheds += st.queue_drops + st.shed + st.brownout_shed;
  }
  run.end_time = world.engine().now();
  run.rounds = world.engine().rounds();
  run.metrics_json = world.metrics().to_json().dump();
  return run;
}

TEST(OverloadParallel, FlashCrowdRepeatRunByteIdentical) {
  OverloadRacksRun a = run_racks_overload();
  OverloadRacksRun b = run_racks_overload();

  EXPECT_GT(a.total_ops, 0u);
  EXPECT_GT(a.sheds, 0u) << "the spike should engage the shedding spine";
  EXPECT_EQ(a.ops, b.ops) << "same-seed runs diverged under overload";
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.sheds, b.sheds);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace ncache
