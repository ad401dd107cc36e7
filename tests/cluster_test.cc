// Scale-out cluster subsystem.
//
//  * HashRing: consistent remapping — removing a member only moves the
//    keys that member owned.
//  * A 1-replica cluster behind the balancer is byte-identical to the
//    single-server Testbed, in Original and NCache modes.
//  * Same-seed cluster runs are bit-identical: metrics dump and the
//    per-client data streams match exactly.
//  * Cooperative peering at N=4 under a Zipf web mix produces peer hits
//    and strictly fewer iSCSI target reads than N independent replicas.
//  * Killing a replica mid-run: the balancer's heartbeats detect the
//    silence, the ring rebalances, retransmitted reads land on survivors
//    and converge to the fault-free byte stream; the restarted replica is
//    re-admitted on its first ack.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster_testbed.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "fault/fault_injector.h"
#include "fs/image_builder.h"
#include "testbed/testbed.h"
#include "workload/counters.h"

namespace ncache {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterTestbed;
using cluster::HashRing;
using core::PassMode;
using fault::FaultInjector;
using nfs::Status;

template <typename F>
void run_on(sim::EventLoop& loop, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(loop, t_fn());
}

/// Reads [0, size) in 32 KB chunks, verifying every byte against the
/// deterministic generator and appending the stream to `out` if given.
Task<void> read_all(nfs::NfsClient& client, std::uint32_t ino,
                    std::size_t size, std::vector<std::byte>* out) {
  for (std::uint64_t off = 0; off < size; off += 32768) {
    auto r = co_await client.read(ino, off, 32768);
    EXPECT_EQ(r.status, Status::Ok) << "offset " << off;
    auto bytes = r.data.to_bytes();
    EXPECT_EQ(fs::verify_content(ino, off, bytes), std::size_t(-1))
        << "offset " << off;
    if (out) out->insert(out->end(), bytes.begin(), bytes.end());
  }
}

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

TEST(HashRing, ConsistentRemapping) {
  HashRing ring(64);
  for (std::uint32_t id = 0; id < 4; ++id) ring.add_member(id);
  EXPECT_EQ(ring.member_count(), 4u);
  EXPECT_EQ(ring.point_count(), 4u * 64u);
  EXPECT_TRUE(ring.has_member(2));

  // Every member owns a share of a modest key space.
  std::map<std::uint64_t, std::uint32_t> before;
  std::map<std::uint32_t, int> share;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    std::uint32_t owner = ring.owner(HashRing::mix64(k));
    before[k] = owner;
    ++share[owner];
  }
  EXPECT_EQ(share.size(), 4u) << "a member owns no keys at all";

  // Consistency: dropping member 2 must only move member 2's keys.
  ring.remove_member(2);
  EXPECT_FALSE(ring.has_member(2));
  for (std::uint64_t k = 0; k < 1000; ++k) {
    std::uint32_t owner = ring.owner(HashRing::mix64(k));
    if (before[k] != 2) {
      EXPECT_EQ(owner, before[k]) << "key " << k << " moved needlessly";
    } else {
      EXPECT_NE(owner, 2u);
    }
  }

  // Re-adding restores the exact original assignment (the ring is a pure
  // function of the member set).
  ring.add_member(2);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(ring.owner(HashRing::mix64(k)), before[k]);
  }
  EXPECT_EQ(ring.members(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(HashRing, HashBytesMatchesKnownKeys) {
  // FNV-1a sanity plus the NFS-fh/URL key seam: different keys spread.
  EXPECT_NE(HashRing::hash_bytes("fh:42"), HashRing::hash_bytes("fh:43"));
  EXPECT_EQ(HashRing::hash_bytes("/index.html"),
            HashRing::hash_bytes("/index.html"));
}

// ---------------------------------------------------------------------------
// N=1 cluster == single-server Testbed, byte for byte
// ---------------------------------------------------------------------------

class SingleReplicaModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(SingleReplicaModes, MatchesTestbedByteForByte) {
  constexpr std::size_t kSize = 256 * 1024;

  // Reference: the PR-2 single-server testbed.
  testbed::TestbedConfig scfg;
  scfg.mode = GetParam();
  scfg.client_count = 1;
  testbed::Testbed tb(scfg);
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();
  std::vector<std::byte> reference;
  run_on(tb.loop(), [&]() -> Task<void> {
    co_await read_all(tb.nfs_client(0), ino, kSize, &reference);
  });

  // Same image behind a 1-replica cluster: the balancer NAT and the peer
  // agent (which has nobody to talk to) must be fully transparent.
  ClusterConfig ccfg;
  ccfg.mode = GetParam();
  ccfg.server_count = 1;
  ccfg.client_count = 1;
  ClusterTestbed cc(ccfg);
  std::uint32_t cino = cc.image().add_file("f.bin", kSize);
  ASSERT_EQ(cino, ino);
  cc.start_nfs();
  std::vector<std::byte> clustered;
  run_on(cc.loop(), [&]() -> Task<void> {
    co_await read_all(cc.nfs_client(0), cino, kSize, &clustered);
  });

  EXPECT_EQ(reference.size(), kSize);
  EXPECT_TRUE(reference == clustered)
      << "client-visible stream differs through the balancer";
  EXPECT_GT(cc.lb().stats().forwards, 0u);
  EXPECT_EQ(cc.lb().stats().drops_no_member, 0u);
  // With one member there is nobody to fetch from.
  EXPECT_EQ(cc.total_peer_hits(), 0u);
  EXPECT_EQ(cc.peers(0).stats().fetches_sent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, SingleReplicaModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache),
                         [](const ::testing::TestParamInfo<PassMode>& i) {
                           return std::string(core::to_string(i.param));
                         });

// ---------------------------------------------------------------------------
// Same-seed determinism
// ---------------------------------------------------------------------------

struct ZipfFiles {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> files;  ///< fh, size
  ZipfSampler zipf;
};

ZipfFiles make_zipf_files(ClusterTestbed& tb, int count, std::size_t bytes,
                          double alpha) {
  ZipfFiles out{{}, ZipfSampler(std::size_t(count), alpha)};
  for (int i = 0; i < count; ++i) {
    std::uint32_t ino = tb.image().add_file("z" + std::to_string(i), bytes);
    out.files.emplace_back(ino, bytes);
  }
  return out;
}

/// Closed-loop Zipf reader against the cluster VIP; folds every payload
/// byte into an order-sensitive FNV stream hash.
Task<void> zipf_worker(ClusterTestbed* tb, int client, const ZipfFiles* fs,
                       std::uint64_t seed, workload::StopFlag* stop,
                       std::uint64_t* stream_hash, std::uint64_t* ops) {
  ++stop->live_workers;
  Pcg32 rng(seed, 0x9000u + std::uint64_t(client));
  auto& cl = tb->nfs_client(client);
  while (!stop->stopped) {
    auto [fh, size] = fs->files[fs->zipf.sample(rng)];
    auto chunks = std::uint32_t(size / 32768);
    std::uint64_t off = 32768ull * rng.below(chunks ? chunks : 1);
    auto r = co_await cl.read(fh, off, 32768);
    if (r.status == Status::Ok) {
      for (std::byte b : r.data.to_bytes()) {
        *stream_hash = (*stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
      }
      ++*ops;
    }
  }
  --stop->live_workers;
}

struct ClusterRun {
  std::string metrics_json;
  std::vector<std::uint64_t> stream_hashes;
  std::uint64_t total_ops = 0;
};

ClusterRun run_zipf_cluster(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 2;
  cfg.client_count = 2;
  ClusterTestbed tb(cfg);
  ZipfFiles fs = make_zipf_files(tb, 32, 64 * 1024, 0.98);
  tb.start_nfs();

  workload::StopFlag stop;
  ClusterRun run;
  run.stream_hashes.assign(std::size_t(cfg.client_count),
                           0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(cfg.client_count), 0);
  for (int c = 0; c < cfg.client_count; ++c) {
    zipf_worker(&tb, c, &fs, seed, &stop, &run.stream_hashes[std::size_t(c)],
                &ops[std::size_t(c)])
        .detach(tb.loop().reaper());
  }
  workload::run_measurement(tb.loop(), stop, 200 * sim::kMillisecond);

  for (std::uint64_t o : ops) run.total_ops += o;
  run.metrics_json = tb.metrics().to_json().dump();
  return run;
}

TEST(ClusterDeterminism, SameSeedRunsAreBitIdentical) {
  ClusterRun a = run_zipf_cluster(1234);
  ClusterRun b = run_zipf_cluster(1234);
  EXPECT_GT(a.total_ops, 0u);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.stream_hashes, b.stream_hashes);
  EXPECT_EQ(a.metrics_json, b.metrics_json)
      << "metrics dumps diverged between same-seed runs";
}

// ---------------------------------------------------------------------------
// Peering wins at N=4
// ---------------------------------------------------------------------------

struct N4Run {
  std::uint64_t target_reads = 0;
  std::uint64_t ops = 0;
  std::uint64_t peer_hits = 0;
};

N4Run run_n4_zipf(bool peering) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 4;
  cfg.client_count = 6;  // enough flows to land on several replicas
  cfg.peering = peering;
  ClusterTestbed tb(cfg);
  ZipfFiles fs = make_zipf_files(tb, 64, 64 * 1024, 1.0);
  tb.start_nfs();

  workload::StopFlag stop;
  std::vector<std::uint64_t> hashes(std::size_t(cfg.client_count),
                                    0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(cfg.client_count), 0);
  for (int c = 0; c < cfg.client_count; ++c) {
    zipf_worker(&tb, c, &fs, /*seed=*/777, &stop, &hashes[std::size_t(c)],
                &ops[std::size_t(c)])
        .detach(tb.loop().reaper());
  }
  workload::run_measurement(tb.loop(), stop, 250 * sim::kMillisecond);

  // The flow hash must have spread the clients over >1 replica or the
  // comparison is vacuous.
  int active = 0;
  for (int i = 0; i < tb.server_count(); ++i) {
    if (tb.nfs_server(i).stats().requests > 0) ++active;
  }
  EXPECT_GT(active, 1) << "flow hash parked every client on one replica";

  N4Run run;
  run.target_reads = tb.total_target_reads();
  run.peer_hits = tb.total_peer_hits();
  for (std::uint64_t o : ops) run.ops += o;
  return run;
}

TEST(ClusterPeering, FewerTargetReadsThanIndependentReplicas) {
  N4Run with_peering = run_n4_zipf(true);
  N4Run without = run_n4_zipf(false);
  EXPECT_GT(with_peering.peer_hits, 0u) << "no block was ever served by a peer";
  ASSERT_GT(with_peering.ops, 0u);
  ASSERT_GT(without.ops, 0u);
  // Both runs are closed-loop, and peering makes reads faster — so the
  // peering run completes more ops and meets more cold extents. Compare
  // target reads *per op* (cross-multiplied to stay in integers), not
  // absolute counts.
  EXPECT_LT(with_peering.target_reads * without.ops,
            without.target_reads * with_peering.ops)
      << "cooperative caching did not reduce target reads per op";
}

// ---------------------------------------------------------------------------
// Replica crash mid-run: rebalance + convergence
// ---------------------------------------------------------------------------

TEST(ClusterFault, ReplicaCrashRebalancesAndConverges) {
  ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = 4;
  cfg.client_count = 1;
  ClusterTestbed tb(cfg);
  constexpr std::size_t kSize = 256 * 1024;
  std::uint32_t ino = tb.image().add_file("f.bin", kSize);
  tb.start_nfs();

  // Mirror the balancer's flow routing to find which replica serves
  // client 0, so the crash provably hits the active path.
  HashRing ring(64);
  for (std::uint32_t id = 0; id < 4; ++id) ring.add_member(id);
  std::uint64_t flow_key =
      (std::uint64_t(tb.client_ip(0)) << 16) | std::uint16_t(700);
  int victim = int(ring.owner(HashRing::mix64(flow_key)));

  FaultInjector inj(tb.loop(), /*seed=*/5);

  run_on(tb.loop(), [&]() -> Task<void> {
    // First half of the file, fault-free.
    co_await read_all(tb.nfs_client(0), ino, kSize / 2, nullptr);
    // Power-fail the serving replica; script its return for later.
    tb.crash_replica(victim);
    EXPECT_TRUE(tb.replica_crashed(victim));
    inj.at(tb.loop().now() + 600 * sim::kMillisecond,
           [&tb, victim] { tb.restart_replica(victim); });
    // Second half: the first read stalls against the corpse, the balancer
    // marks it dead within miss_limit heartbeats (75 ms), and the client's
    // 200 ms-floor retransmission lands on the rebalanced ring.
    auto& client = tb.nfs_client(0);
    for (std::uint64_t off = kSize / 2; off < kSize; off += 32768) {
      auto r = co_await client.read(ino, off, 32768);
      EXPECT_EQ(r.status, Status::Ok) << "offset " << off;
      EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()),
                std::size_t(-1))
          << "offset " << off;
    }
    EXPECT_EQ(tb.lb().live_count(), 3u);
    EXPECT_GE(tb.lb().stats().rebalances, 1u);
    EXPECT_NE(tb.lb().last_rebalance_at(), 0u);
    // Survivors learned the new epoch and rebuilt their rings.
    for (int i = 0; i < tb.server_count(); ++i) {
      if (i == victim) continue;
      EXPECT_GE(tb.peers(i).stats().membership_updates, 1u) << "replica " << i;
      EXPECT_FALSE(tb.peers(i).ring().has_member(std::uint32_t(victim)));
    }
    // Wait out the restart plus a couple of heartbeat rounds: the first
    // ack from the revived replica re-admits it.
    co_await sim::sleep_for(tb.loop(), 800 * sim::kMillisecond);
    EXPECT_FALSE(tb.replica_crashed(victim));
    EXPECT_EQ(tb.lb().live_count(), 4u);
    // And the full stream is still the fault-free one.
    co_await read_all(tb.nfs_client(0), ino, kSize, nullptr);
  });

  EXPECT_EQ(inj.stats().events_fired, 1u);
  EXPECT_GT(tb.nfs_client(0).stats().retransmits, 0u);
}

}  // namespace
}  // namespace ncache
