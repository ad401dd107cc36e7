// Partition tolerance: deterministic network partitions, epoch-fenced
// coherence, and anti-entropy repair.
//
//  * epoch_newer implements RFC 1982 serial comparison: the u32 epoch
//    counter wraps seamlessly, and a diff of exactly 2^31 is undefined
//    (false from both orderings).
//  * PeerCache and LoadBalancer ride an epoch wrap end to end: a replica
//    crash at 0xFFFFFFFF re-admits at epoch 0 and every agent follows.
//  * Membership edge cases: serially-stale broadcasts and duplicates are
//    ignored; a fenced peer (excluded from the newest live set) and a
//    peer behind the requester's epoch refuse FETCH.
//  * Flap damping: a flapping link costs exactly one death + one
//    re-admission; the balancer's quiet period suppresses the churn in
//    between and meters every suppression.
//  * Reliable invalidation: a write during a partition retransmits the
//    INVALIDATE with capped backoff until the cut heals and the stale
//    peer acks; the pending set drains to zero and a re-read through the
//    stale peer returns the new bytes.
//  * Differential convergence matrix: symmetric cut, asymmetric one-way
//    cut, cut + concurrent writes, cut during a crash/restart rebalance —
//    each partitioned run converges and its post-heal client streams are
//    byte-identical to the fault-free twin, with zero stale reads. One
//    scenario double-runs to prove same-seed bit-identity.
//  * The same Partition primitive composes with the ParallelEngine:
//    a partitioned cluster_racks run is byte-identical across two
//    same-seed runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_testbed.h"
#include "cluster/epoch.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "fault/fault_injector.h"
#include "fs/image_builder.h"
#include "topo/instantiator.h"
#include "topo/presets.h"
#include "workload/counters.h"

namespace ncache {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterTestbed;
using cluster::epoch_newer;
using cluster::kExtentBlocks;
using core::PassMode;
using nfs::Status;
using sim::kMillisecond;

template <typename F>
void run_on(sim::EventLoop& loop, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(loop, t_fn());
}

// ---------------------------------------------------------------------------
// RFC 1982 serial epochs
// ---------------------------------------------------------------------------

TEST(EpochSerial, CompareTruthTable) {
  EXPECT_FALSE(epoch_newer(0, 0));
  EXPECT_TRUE(epoch_newer(1, 0));
  EXPECT_FALSE(epoch_newer(0, 1));
  EXPECT_TRUE(epoch_newer(2, 1));

  // The wrap: 0 is the successor of 0xFFFFFFFF, not the distant past.
  EXPECT_TRUE(epoch_newer(0, 0xFFFFFFFFu));
  EXPECT_FALSE(epoch_newer(0xFFFFFFFFu, 0));
  EXPECT_TRUE(epoch_newer(5, 0xFFFFFFFBu));

  // Largest forward step: half the space minus nothing.
  EXPECT_TRUE(epoch_newer(0x7FFFFFFFu, 0));
  EXPECT_FALSE(epoch_newer(0, 0x7FFFFFFFu));
  EXPECT_TRUE(epoch_newer(0, 0x80000001u));

  // A diff of exactly 2^31 is undefined (RFC 1982 §3.2): neither side may
  // win, or two agents would apply the same broadcast in opposite orders.
  EXPECT_FALSE(epoch_newer(0x80000000u, 0));
  EXPECT_FALSE(epoch_newer(0, 0x80000000u));
  EXPECT_FALSE(epoch_newer(0xC0000000u, 0x40000000u));
  EXPECT_FALSE(epoch_newer(0x40000000u, 0xC0000000u));
}

TEST(EpochSerial, PeerCacheWalksAcrossTheWrap) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 2;
  cfg.client_count = 1;
  ClusterTestbed tb(cfg);
  auto& p = tb.peers(0);
  const std::vector<std::uint32_t> both{0, 1};

  // Each hop is < 2^31, so serial comparison applies every step; the walk
  // crosses the u32 wrap without the agent freezing on 0xFFFFFFFF.
  EXPECT_EQ(p.epoch(), 0u);
  p.apply_membership(0x7FFFFFFFu, both);
  p.apply_membership(0xFFFFFFFEu, both);
  p.apply_membership(0xFFFFFFFFu, both);
  p.apply_membership(0u, both);  // the wrap itself
  p.apply_membership(1u, both);
  EXPECT_EQ(p.epoch(), 1u);
  EXPECT_EQ(p.stats().membership_updates, 5u);
  EXPECT_FALSE(p.fenced());

  // Serially stale across the boundary: 0xFFFFFFFF is now in the past.
  p.apply_membership(0xFFFFFFFFu, both);
  EXPECT_EQ(p.epoch(), 1u);
  EXPECT_EQ(p.stats().stale_epoch_ignored, 1u);

  // A duplicate of the current epoch is idempotent, not an update.
  p.apply_membership(1u, both);
  EXPECT_EQ(p.stats().stale_epoch_ignored, 2u);
  EXPECT_EQ(p.stats().membership_updates, 5u);
}

TEST(EpochSerial, ClusterRidesTheWrapEndToEnd) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 3;
  cfg.client_count = 1;
  ClusterTestbed tb(cfg);
  tb.start_nfs();

  // Position the whole cluster one step short of the wrap (<2^31 hops).
  const std::vector<std::uint32_t> all{0, 1, 2};
  for (int i = 0; i < 3; ++i) {
    tb.peers(i).apply_membership(0x7FFFFFFFu, all);
    tb.peers(i).apply_membership(0xFFFFFFFEu, all);
  }
  tb.lb().reset_epoch(0xFFFFFFFEu);
  std::uint64_t repairs_before = tb.peers(2).stats().repair_rounds;

  run_on(tb.loop(), [&]() -> Task<void> {
    tb.crash_replica(2);
    tb.world().faults().at(tb.loop().now() + 300 * kMillisecond,
                           [&tb] { tb.restart_replica(2); });
    co_await sim::sleep_for(tb.loop(), 200 * kMillisecond);
    // The death broadcast took the last pre-wrap epoch.
    EXPECT_EQ(tb.lb().live_count(), 2u);
    EXPECT_EQ(tb.lb().epoch(), 0xFFFFFFFFu);
    EXPECT_EQ(tb.peers(0).epoch(), 0xFFFFFFFFu);
    EXPECT_EQ(tb.peers(1).epoch(), 0xFFFFFFFFu);

    co_await sim::sleep_for(tb.loop(), 600 * kMillisecond);
    // Re-admission wrapped to epoch 0 and every agent followed.
    EXPECT_EQ(tb.lb().live_count(), 3u);
    EXPECT_EQ(tb.lb().epoch(), 0u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(tb.peers(i).epoch(), 0u) << "replica " << i;
      EXPECT_FALSE(tb.peers(i).fenced()) << "replica " << i;
    }
    // The revived replica missed the death epoch: it sees a serial gap
    // across the wrap (0xFFFFFFFE -> 0) and starts an anti-entropy pass.
    EXPECT_GT(tb.peers(2).stats().repair_rounds, repairs_before);
  });
}

// ---------------------------------------------------------------------------
// Membership edge cases: stale, duplicate, fenced FETCH
// ---------------------------------------------------------------------------

TEST(Membership, StaleDuplicateAndFencedFetch) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 2;
  cfg.client_count = 1;
  ClusterTestbed tb(cfg);
  tb.image().add_file("f.bin", 64 * 1024);
  tb.start_nfs();

  auto& p0 = tb.peers(0);
  auto& p1 = tb.peers(1);

  run_on(tb.loop(), [&]() -> Task<void> {
    p0.apply_membership(2, {0, 1});
    p1.apply_membership(2, {0});  // excluded from its own newest live set
    EXPECT_TRUE(p1.fenced());
    EXPECT_FALSE(p0.fenced());

    // Stale epoch and exact duplicate are both ignored, idempotently.
    std::uint64_t updates = p0.stats().membership_updates;
    p0.apply_membership(1, {0});
    p0.apply_membership(2, {0, 1});
    EXPECT_EQ(p0.stats().membership_updates, updates);
    EXPECT_EQ(p0.stats().stale_epoch_ignored, 2u);
    EXPECT_EQ(p0.epoch(), 2u);

    // A FETCH landing at the fenced peer is refused, not served.
    std::uint64_t lbn = 0;
    while (p0.owner_of(lbn) != 1) lbn += kExtentBlocks;
    auto r = co_await p0.fetch(lbn, 1);
    EXPECT_FALSE(r.has_value());
    EXPECT_GE(p1.stats().fenced_refusals, 1u);

    // Re-admit peer 1 at epoch 3, then advance only the requester to 4:
    // the server must refuse a request from a future epoch — it may have
    // missed a ring change and cannot prove its copies current.
    p1.apply_membership(3, {0, 1});
    EXPECT_FALSE(p1.fenced());
    p0.apply_membership(4, {0, 1});
    std::uint64_t refusals = p1.stats().fenced_refusals;
    auto r2 = co_await p0.fetch(lbn, 1);
    EXPECT_FALSE(r2.has_value());
    EXPECT_EQ(p1.stats().fenced_refusals, refusals + 1);

    // Epochs agree again: the same fetch is answered on the merits (an
    // honest miss here — nothing was ever cached), not refused.
    p1.apply_membership(4, {0, 1});
    auto r3 = co_await p0.fetch(lbn, 1);
    EXPECT_FALSE(r3.has_value());
    EXPECT_EQ(p1.stats().fenced_refusals, refusals + 1);
    EXPECT_GE(p1.stats().serve_misses, 1u);
  });
}

// ---------------------------------------------------------------------------
// Flap damping: a flapping cable costs one death + one re-admission
// ---------------------------------------------------------------------------

TEST(FlapDamping, QuietPeriodSuppressesChurn) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 2;
  cfg.client_count = 1;
  ClusterTestbed tb(cfg);
  tb.start_nfs();

  // Two cut windows over server1's cable. With heartbeats every 25 ms,
  // miss_limit 3 and readmit_quiet_rounds 2:
  //   [30, 140)  probes 50..125 lost -> dead at the 125 ms evaluation;
  //              the 150 ms probe is acked -> streak 1 (deferred).
  //   [155, 230) the renewed silence resets the probation (suppressed)
  //              before the streak reaches 2 — the flap never re-admits.
  //   after 230  two consecutive acked rounds -> re-admitted at ~300 ms.
  auto part = tb.world().make_partition({"server1"});
  tb.world().faults().partition(part, 30 * kMillisecond, 110 * kMillisecond);
  tb.world().faults().partition(part, 155 * kMillisecond, 75 * kMillisecond);
  EXPECT_EQ(tb.world().faults().stats().partitions_armed, 2u);
  EXPECT_EQ(tb.world().faults().stats().partition_cuts, 4u);

  run_on(tb.loop(), [&]() -> Task<void> {
    co_await sim::sleep_for(tb.loop(), 145 * kMillisecond);
    EXPECT_EQ(tb.lb().live_count(), 1u) << "first window never killed it";
    co_await sim::sleep_for(tb.loop(), 140 * kMillisecond);  // t = 285 ms
    EXPECT_EQ(tb.lb().live_count(), 1u)
        << "re-admitted mid-flap: the quiet period did not hold";
    co_await sim::sleep_for(tb.loop(), 115 * kMillisecond);  // t = 400 ms
    EXPECT_EQ(tb.lb().live_count(), 2u) << "never re-admitted after the heal";
  });

  // Exactly one death and one re-admission — the flap in between was
  // damping's job, and every suppressed churn event is metered.
  EXPECT_EQ(tb.lb().stats().rebalances, 2u);
  EXPECT_GE(tb.lb().stats().flaps_suppressed, 3u);
  EXPECT_EQ(tb.lb().epoch(), 2u);
  // The cut replica missed the death epoch; re-admission shows it a
  // serial gap, which triggers its anti-entropy pass.
  EXPECT_EQ(tb.peers(1).epoch(), 2u);
  EXPECT_GE(tb.peers(1).stats().repair_rounds, 1u);
  EXPECT_GE(tb.peers(0).stats().membership_updates, 2u);
}

// ---------------------------------------------------------------------------
// Reliable invalidation through a partition (balancer-less racks)
// ---------------------------------------------------------------------------

TEST(ReliableInvalidate, RetransmitsAcrossTheCutAndConverges) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.peer_without_balancer = true;
  topo::World world(topo::presets::cluster_racks(2, 1), cfg);
  constexpr std::size_t kSize = 64 * 1024;
  constexpr std::size_t kWrite = 32 * 1024;
  std::uint32_t ino = world.image().add_file("f.bin", kSize);
  world.start_nfs();

  auto& p0 = *world.server(0).peers;
  auto& p1 = *world.server(1).peers;

  run_on(world.loop(), [&]() -> Task<void> {
    // Warm both rack servers: each rack's client reads the whole file
    // through its rack-local server.
    for (int c = 0; c < 2; ++c) {
      for (std::uint64_t off = 0; off < kSize; off += 32768) {
        auto r = co_await world.nfs_client(c).read(ino, off, 32768);
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()),
                  std::size_t(-1));
      }
    }

    // Cut rack1 off the core for 150 ms, then write through rack0 while
    // the cut holds: the INVALIDATE to server1 cannot be delivered, so
    // the sender retransmits it with capped backoff.
    auto part = world.make_partition({"rack1"});
    sim::Time t0 = world.loop().now();
    world.faults().partition(part, t0 + 1 * kMillisecond,
                             150 * kMillisecond);
    co_await sim::sleep_for(world.loop(), 5 * kMillisecond);

    std::vector<std::byte> pat(kWrite);
    for (std::size_t i = 0; i < pat.size(); ++i) {
      pat[i] = std::byte((0x5A + i * 97) & 0xff);
    }
    auto st = co_await world.nfs_client(0).write(ino, 0, pat);
    EXPECT_EQ(st, Status::Ok);
    // The coherence task (flush + broadcast) is detached from the write
    // reply; give it a moment, then the INVALIDATE must be stuck un-acked
    // behind the cut.
    co_await sim::sleep_for(world.loop(), 20 * kMillisecond);
    EXPECT_GT(p0.pending_reliable(), 0u)
        << "the invalidate was acked through a cut trunk?";

    // Ride out the heal plus one capped backoff: the retransmission lands,
    // server1 drops its stale copies and acks, and the pending set drains.
    co_await sim::sleep_for(world.loop(), 250 * kMillisecond);
    EXPECT_GT(p0.stats().retransmits, 0u);
    EXPECT_GE(p0.stats().invalidate_acks, 1u);
    EXPECT_EQ(p0.pending_reliable(), 0u);
    EXPECT_GE(p1.stats().invalidates_received, 1u);
    EXPECT_GE(p1.stats().blocks_invalidated, 1u);

    // Balancer-less worlds have no epoch stream to flag the gap, so the
    // healed side runs anti-entropy explicitly.
    p1.run_repair();
    EXPECT_GE(p1.stats().repair_rounds, 1u);
    co_await sim::sleep_for(world.loop(), 50 * kMillisecond);
    EXPECT_FALSE(p1.repairing());
    EXPECT_EQ(p1.pending_reliable(), 0u);
    EXPECT_GE(p1.stats().digests_sent, 1u);

    // The stale peer serves the NEW bytes: its invalidated copies miss
    // and the read falls through to fresh data.
    for (std::uint64_t off = 0; off < kWrite; off += 32768) {
      auto r = co_await world.nfs_client(1).read(ino, off, 32768);
      EXPECT_EQ(r.status, Status::Ok);
      auto bytes = r.data.to_bytes();
      EXPECT_EQ(bytes.size(), std::size_t(32768));
      for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] != pat[off + i]) {
          ADD_FAILURE() << "stale byte at offset " << off + i
                        << " after convergence";
          break;
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Differential convergence matrix
// ---------------------------------------------------------------------------

/// A balancer cluster split over two switches: lb + servers 0,1 + both
/// clients + storage on switch0; servers 2,3 alone on switch1 behind a
/// trunk. Cutting {switch1} partitions half the replica set away from
/// the balancer, the storage and every client.
topo::Topology split_cluster() {
  topo::TopologyBuilder b("split_cluster");
  b.ether_switch("switch0").ether_switch("switch1");
  b.target("storage0");
  b.balancer("lb0");
  b.server("server0").server("server1").server("server2").server("server3");
  b.client("client0").client("client1");
  b.link("storage0", "switch0");
  b.link("lb0", "switch0");
  b.link("server0", "switch0").link("server1", "switch0");
  b.link("server2", "switch1").link("server3", "switch1");
  b.link("client0", "switch0").link("client1", "switch0");
  b.link("switch0", "switch1");
  return b.build();
}

constexpr std::size_t kDiffFileSize = 64 * 1024;
constexpr std::size_t kDiffWriteBytes = 32 * 1024;

inline std::byte wbyte(std::uint64_t i) {
  return std::byte((0x5A + i * 97) & 0xff);
}

struct DiffOptions {
  bool cut = false;        ///< arm the partition window
  bool one_way = false;    ///< asymmetric: switch1 transmits, hears nothing
  bool writes = false;     ///< client 0 writes f0's head mid-window
  bool rebalance = false;  ///< crash/restart server1 during the window
};

struct DiffRun {
  std::vector<std::byte> stream;  ///< post-convergence client payloads
  std::uint64_t stale = 0;        ///< bytes that matched neither image nor write
  bool converged = false;
  sim::Time converged_at = 0;
  std::string metrics_json;  ///< full dump
  std::uint64_t retransmits = 0;
  std::uint64_t repair_rounds = 0;
  std::uint64_t rebalances = 0;
};

/// Reads `ino` in full through `client`, checking every byte against the
/// deterministic image (or the written pattern over f0's head when
/// `written` — the caller only sets it after the write has converged).
Task<void> diff_read_file(nfs::NfsClient& client, std::uint32_t ino,
                          bool written, std::vector<std::byte>* out,
                          std::uint64_t* stale) {
  for (std::uint64_t off = 0; off < kDiffFileSize; off += 32768) {
    auto r = co_await client.read(ino, off, 32768);
    EXPECT_EQ(r.status, Status::Ok) << "ino " << ino << " offset " << off;
    auto bytes = r.data.to_bytes();
    EXPECT_EQ(bytes.size(), std::size_t(32768));
    if (r.status != Status::Ok || bytes.size() != 32768) co_return;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      std::byte want = (written && off + i < kDiffWriteBytes)
                           ? wbyte(off + i)
                           : fs::content_byte(ino, off + i);
      if (bytes[i] != want) ++*stale;
    }
    if (out) out->insert(out->end(), bytes.begin(), bytes.end());
  }
}

DiffRun run_diff(const DiffOptions& opt) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  topo::World world(split_cluster(), cfg);
  std::uint32_t f0 = world.image().add_file("f0.bin", kDiffFileSize);
  std::uint32_t f1 = world.image().add_file("f1.bin", kDiffFileSize);
  world.start_nfs();

  DiffRun run;
  run_on(world.loop(), [&]() -> Task<void> {
    // Warm phase, fault-free: both clients read both files. push-on-miss
    // homes extents onto all four replicas, so the cut side provably
    // holds data that could go stale.
    for (int c = 0; c < 2; ++c) {
      co_await diff_read_file(world.nfs_client(c), f0, false, nullptr,
                              &run.stale);
      co_await diff_read_file(world.nfs_client(c), f1, false, nullptr,
                              &run.stale);
    }

    sim::Time t0 = world.loop().now();
    if (opt.cut) {
      auto part = world.make_partition({"switch1"}, opt.one_way);
      world.faults().partition(part, t0 + 5 * kMillisecond,
                               300 * kMillisecond);
    }
    if (opt.rebalance) {
      world.faults().at(t0 + 25 * kMillisecond,
                        [&world] { world.crash_server(1); });
      world.faults().at(t0 + 200 * kMillisecond,
                        [&world] { world.restart_server(1); });
    }
    if (opt.writes) {
      co_await sim::sleep_for(world.loop(), 50 * kMillisecond);
      std::vector<std::byte> pat(kDiffWriteBytes);
      for (std::size_t i = 0; i < pat.size(); ++i) pat[i] = wbyte(i);
      auto st = co_await world.nfs_client(0).write(f0, 0, pat);
      EXPECT_EQ(st, Status::Ok);
    }

    // Deep inside the window (the balancer has long since shed the cut
    // replicas): reads must keep succeeding against the degraded ring.
    sim::Time mid = t0 + 150 * kMillisecond;
    if (world.loop().now() < mid) {
      co_await sim::sleep_for(world.loop(), mid - world.loop().now());
    }
    if (opt.cut) {
      EXPECT_EQ(world.lb()->live_count(), opt.rebalance ? 1u : 2u)
          << "the cut replicas were never marked dead";
    }
    for (int c = 0; c < 2; ++c) {
      co_await diff_read_file(world.nfs_client(c), f1, false, nullptr,
                              &run.stale);
    }

    // Convergence: the ring is whole again, no reliable datagram is
    // un-acked anywhere, nobody is fenced or mid-repair.
    sim::Time deadline = t0 + 3 * sim::kSecond;
    while (world.loop().now() < deadline) {
      bool ok = world.lb()->live_count() == 4;
      for (int s = 0; ok && s < world.server_count(); ++s) {
        auto& p = *world.server(s).peers;
        if (p.pending_reliable() != 0 || p.repairing() || p.fenced()) {
          ok = false;
        }
      }
      if (ok) {
        run.converged = true;
        run.converged_at = world.loop().now();
        break;
      }
      co_await sim::sleep_for(world.loop(), 10 * kMillisecond);
    }
    EXPECT_TRUE(run.converged) << "cluster never converged after the heal";

    // The differential stream: every byte of every file through both
    // clients, verified strictly — after convergence there is no excuse.
    for (int c = 0; c < 2; ++c) {
      co_await diff_read_file(world.nfs_client(c), f0, opt.writes,
                              &run.stream, &run.stale);
      co_await diff_read_file(world.nfs_client(c), f1, false, &run.stream,
                              &run.stale);
    }
  });

  run.metrics_json = world.metrics().to_json().dump();
  for (int s = 0; s < world.server_count(); ++s) {
    run.retransmits += world.server(s).peers->stats().retransmits;
    run.repair_rounds += world.server(s).peers->stats().repair_rounds;
  }
  run.rebalances = world.lb()->stats().rebalances;
  return run;
}

void expect_identical_streams(const DiffRun& cut, const DiffRun& twin) {
  EXPECT_EQ(cut.stale, 0u) << "stale bytes served in the partitioned run";
  EXPECT_EQ(twin.stale, 0u) << "stale bytes served in the fault-free run";
  ASSERT_EQ(cut.stream.size(), twin.stream.size());
  EXPECT_TRUE(cut.stream == twin.stream)
      << "partitioned-then-healed run diverged from the fault-free twin";
}

TEST(PartitionDiff, SymmetricCutConvergesAndIsDeterministic) {
  DiffOptions opt;
  opt.cut = true;
  DiffRun cut = run_diff(opt);
  DiffRun twin = run_diff(DiffOptions{});
  expect_identical_streams(cut, twin);
  // Two deaths + two re-admissions, and the healed side saw an epoch gap.
  EXPECT_GE(cut.rebalances, 4u);
  EXPECT_GT(cut.repair_rounds, twin.repair_rounds);

  // Same seed, same plan: the whole run is bit-reproducible, metrics dump
  // included.
  DiffRun again = run_diff(opt);
  EXPECT_TRUE(cut.stream == again.stream);
  EXPECT_EQ(cut.converged_at, again.converged_at);
  EXPECT_EQ(cut.metrics_json, again.metrics_json)
      << "same-seed partitioned runs diverged";
}

TEST(PartitionDiff, AsymmetricOneWayCutConverges) {
  DiffOptions opt;
  opt.cut = true;
  opt.one_way = true;
  DiffRun cut = run_diff(opt);
  DiffRun twin = run_diff(DiffOptions{});
  expect_identical_streams(cut, twin);
  EXPECT_GE(cut.rebalances, 4u);
}

TEST(PartitionDiff, ConcurrentWritesNoStaleReads) {
  DiffOptions opt;
  opt.cut = true;
  opt.writes = true;
  DiffRun cut = run_diff(opt);
  DiffOptions twin_opt;
  twin_opt.writes = true;
  DiffRun twin = run_diff(twin_opt);
  expect_identical_streams(cut, twin);
  // The write's INVALIDATE could not reach the cut replicas first try.
  EXPECT_GT(cut.retransmits, 0u);
}

TEST(PartitionDiff, CutDuringRebalanceConverges) {
  DiffOptions opt;
  opt.cut = true;
  opt.rebalance = true;
  DiffRun cut = run_diff(opt);
  DiffOptions twin_opt;
  twin_opt.rebalance = true;
  DiffRun twin = run_diff(twin_opt);
  expect_identical_streams(cut, twin);
  // Partition deaths + crash death + three re-admissions.
  EXPECT_GE(cut.rebalances, 6u);
}

// ---------------------------------------------------------------------------
// Partition under the ParallelEngine: byte-identical across same-seed runs
// ---------------------------------------------------------------------------

Task<void> zipf_worker(nfs::NfsClient* client, int id,
                       const std::vector<std::uint64_t>* files,
                       const ZipfSampler* zipf, std::uint64_t seed,
                       workload::StopFlag* stop, std::uint64_t* stream_hash,
                       std::uint64_t* ops) {
  ++stop->live_workers;
  Pcg32 rng(seed, 0x7000u + std::uint64_t(id));
  while (!stop->stopped) {
    std::uint64_t fh = (*files)[zipf->sample(rng)];
    std::uint64_t off = 32768ull * rng.below(2);
    auto r = co_await client->read(fh, off, 32768);
    if (r.status == Status::Ok) {
      for (std::byte b : r.data.to_bytes()) {
        *stream_hash = (*stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
      }
      ++*ops;
    }
  }
  --stop->live_workers;
}

struct PartitionRacksRun {
  std::vector<std::uint64_t> hashes;
  std::uint64_t total_ops = 0;
  sim::Time end_time = 0;
  std::string metrics_json;
  std::uint64_t rounds = 0;
};

PartitionRacksRun run_racks_partition() {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.peer_without_balancer = true;
  topo::World world(topo::presets::cluster_racks(2, 2), cfg);

  std::vector<std::uint64_t> files;
  for (int i = 0; i < 16; ++i) {
    files.push_back(world.image().add_file("z" + std::to_string(i), 64 * 1024));
  }
  world.start_nfs();

  // Cut rack1 for [30 ms, 80 ms). Arming happens before the engine runs;
  // at fire time each domain flips only the link directions it owns.
  auto part = world.make_partition({"rack1"});
  world.faults().partition(part, 30 * kMillisecond, 50 * kMillisecond);
  EXPECT_EQ(world.faults().stats().partitions_armed, 1u);
  EXPECT_EQ(world.faults().stats().partition_cuts, 2u);

  const int n = world.client_count();
  ZipfSampler zipf(16, 0.98);
  PartitionRacksRun run;
  run.hashes.assign(std::size_t(n), 0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(n), 0);
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    zipf_worker(&world.nfs_client(c), c, &files, &zipf, 91, &stop,
                &run.hashes[std::size_t(c)], &ops[std::size_t(c)])
        .detach(world.engine().domain_loop(d).reaper());
  }
  workload::run_measurement(world.engine(), stop, 120 * kMillisecond);
  for (std::uint64_t o : ops) run.total_ops += o;
  run.end_time = world.engine().now();
  run.metrics_json = world.metrics().to_json().dump();
  run.rounds = world.engine().rounds();
  return run;
}

TEST(PartitionParallel, RepeatRunByteIdenticalUnderPartition) {
  PartitionRacksRun a = run_racks_partition();
  PartitionRacksRun b = run_racks_partition();

  EXPECT_GT(a.total_ops, 0u);
  EXPECT_EQ(a.hashes, b.hashes) << "same-seed runs diverged under partition";
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace ncache
