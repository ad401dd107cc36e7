// Instantiator parity and end-to-end topology coverage.
//
//  * N=1: the Testbed facade (presets::single_server through topo::World)
//    is byte-identical to a hand-wired replica of the historical
//    single-server constructor — same client streams, same event count,
//    same final sim time, in Original and NCache modes, 1 and 2 NICs.
//  * M×N×1: the ClusterTestbed facade matches a hand-wired replica of the
//    historical cluster constructor under a Zipf read mix — same
//    per-client stream hashes, ops, target reads, peer traffic, and
//    final sim time.
//  * A world built from Topology::parse(describe(preset)) behaves
//    bit-identically to one built from the preset object (full metrics
//    dump compared).
//  * The two-rack WAN shape — inexpressible before the topology API —
//    works end to end: correct bytes through the trunk, trunk actually
//    carries the traffic, and lossy same-seed runs replay bit-for-bit.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_testbed.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "testbed/testbed.h"
#include "topo/instantiator.h"
#include "topo/presets.h"
#include "workload/counters.h"

namespace ncache {
namespace {

using core::PassMode;
using nfs::Status;

template <typename F>
void run_on(sim::EventLoop& loop, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(loop, t_fn());
}

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
// Hand-wired replica of the historical single-server constructor
// (pre-topology testbed.cc), kept verbatim as the parity reference.
// ---------------------------------------------------------------------------

struct LegacySingle {
  sim::EventLoop loop;
  sim::CostModel costs{};
  std::shared_ptr<proto::AddressBook> book;
  std::unique_ptr<proto::EthernetSwitch> sw;
  std::unique_ptr<topo::Node> storage, server;
  std::vector<std::unique_ptr<topo::Node>> clients;
  std::unique_ptr<blockdev::BlockStore> store;
  std::unique_ptr<fs::FsImageBuilder> image;
  std::unique_ptr<iscsi::IscsiTarget> target;
  std::unique_ptr<iscsi::IscsiInitiator> initiator;
  std::unique_ptr<core::NCacheModule> ncache;
  std::unique_ptr<fs::SimpleFs> sfs;
  std::unique_ptr<nfs::NfsServer> nfs;
  std::vector<std::unique_ptr<nfs::NfsClient>> nfs_clients;
  int server_nics;

  static proto::Ipv4Addr server_ip(int nic) {
    return proto::make_ipv4(10, 0, 0, std::uint8_t(10 + nic));
  }
  static proto::Ipv4Addr client_ip(int i) {
    return proto::make_ipv4(10, 0, 0, std::uint8_t(100 + i));
  }

  LegacySingle(PassMode mode, int nics, int client_count)
      : server_nics(nics) {
    constexpr proto::Ipv4Addr kStorageIp = proto::make_ipv4(10, 0, 0, 1);
    book = std::make_shared<proto::AddressBook>();
    sw = std::make_unique<proto::EthernetSwitch>(loop, "switch", costs);

    storage = topo::make_wired_node(loop, costs, book, *sw, "storage",
                                    {{0x10, kStorageIp}});
    std::vector<topo::NicSpec> server_specs;
    for (int n = 0; n < nics; ++n) {
      server_specs.push_back({0x20 + std::uint64_t(n), server_ip(n)});
    }
    server = topo::make_wired_node(loop, costs, book, *sw, "server",
                                   server_specs);
    for (int i = 0; i < client_count; ++i) {
      clients.push_back(topo::make_wired_node(
          loop, costs, book, *sw, "client" + std::to_string(i),
          {{0x30 + std::uint64_t(i), client_ip(i)}}));
    }

    store = std::make_unique<blockdev::BlockStore>(loop, costs, "raid0",
                                                   64 * 1024);
    image = std::make_unique<fs::FsImageBuilder>(*store, 64 * 1024, 16 * 1024);
    target = std::make_unique<iscsi::IscsiTarget>(storage->stack, *store);
    initiator = std::make_unique<iscsi::IscsiInitiator>(
        server->stack, server_ip(0), kStorageIp, /*target_id=*/0);

    switch (mode) {
      case PassMode::Original:
        initiator->set_payload_policy(iscsi::PayloadPolicy::Copy);
        break;
      case PassMode::NCache: {
        core::NetCentricCache::Config cc;
        cc.pool_budget_bytes = 192u << 20;
        ncache = std::make_unique<core::NCacheModule>(server->stack, cc);
        ncache->attach_egress();
        ncache->attach_initiator(*initiator);
        break;
      }
      case PassMode::Baseline:
        initiator->set_payload_policy(iscsi::PayloadPolicy::Junk);
        break;
    }
    sfs = std::make_unique<fs::SimpleFs>(loop, *initiator, 4096, 8);
  }

  void start_nfs(PassMode mode) {
    if (!image->finished()) image->finish();
    target->start();
    run_on(loop, [&]() -> Task<void> {
      bool ok = co_await initiator->login();
      if (!ok) throw std::runtime_error("legacy: login failed");
      co_await sfs->mount();
    });
    nfs::NfsServer::Config sc;
    sc.mode = mode;
    sc.daemons = 8;
    nfs = std::make_unique<nfs::NfsServer>(server->stack, *sfs, sc,
                                           ncache.get());
    nfs->start();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      nfs_clients.push_back(std::make_unique<nfs::NfsClient>(
          clients[i]->stack, client_ip(int(i)),
          server_ip(int(i) % server_nics), std::uint16_t(700 + i)));
    }
  }
};

struct SingleParam {
  PassMode mode;
  int nics;
};

class SingleServerParity : public ::testing::TestWithParam<SingleParam> {};

TEST_P(SingleServerParity, FacadeMatchesHandWiredLegacy) {
  constexpr std::size_t kSize = 192 * 1024;
  const auto [mode, nics] = GetParam();

  LegacySingle legacy(mode, nics, 2);
  std::uint32_t ino = legacy.image->add_file("f.bin", kSize);
  legacy.start_nfs(mode);
  std::vector<std::byte> legacy_bytes;
  run_on(legacy.loop, [&]() -> Task<void> {
    co_await read_all(*legacy.nfs_clients[0], ino, kSize, &legacy_bytes);
    co_await read_all(*legacy.nfs_clients[1], ino, kSize, &legacy_bytes);
  });

  testbed::TestbedConfig cfg;
  cfg.mode = mode;
  cfg.server_nics = nics;
  cfg.client_count = 2;
  testbed::Testbed tb(cfg);
  std::uint32_t tino = tb.image().add_file("f.bin", kSize);
  ASSERT_EQ(tino, ino);
  tb.start_nfs();
  std::vector<std::byte> facade_bytes;
  run_on(tb.loop(), [&]() -> Task<void> {
    co_await read_all(tb.nfs_client(0), tino, kSize, &facade_bytes);
    co_await read_all(tb.nfs_client(1), tino, kSize, &facade_bytes);
  });

  EXPECT_EQ(legacy_bytes.size(), 2 * kSize);
  EXPECT_TRUE(legacy_bytes == facade_bytes)
      << "client-visible stream differs from the hand-wired constructor";
  EXPECT_EQ(legacy.loop.now(), tb.loop().now())
      << "event timelines diverged";
  EXPECT_EQ(legacy.target->stats().reads, tb.target().stats().reads);
  EXPECT_EQ(legacy.initiator->stats().reads, tb.initiator().stats().reads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SingleServerParity,
    ::testing::Values(SingleParam{PassMode::Original, 1},
                      SingleParam{PassMode::NCache, 1},
                      SingleParam{PassMode::NCache, 2}),
    [](const ::testing::TestParamInfo<SingleParam>& i) {
      return std::string(core::to_string(i.param.mode)) + "_nic" +
             std::to_string(i.param.nics);
    });

// ---------------------------------------------------------------------------
// Hand-wired replica of the historical M×N×1 cluster constructor
// (pre-topology cluster_testbed.cc).
// ---------------------------------------------------------------------------

struct LegacyCluster {
  static constexpr proto::Ipv4Addr kStorageIp = proto::make_ipv4(10, 0, 0, 1);
  static constexpr proto::Ipv4Addr kLbIp = proto::make_ipv4(10, 0, 0, 5);

  struct Replica {
    std::unique_ptr<topo::Node> node;
    std::unique_ptr<iscsi::IscsiInitiator> initiator;
    std::unique_ptr<core::NCacheModule> ncache;
    std::unique_ptr<cluster::PeerCache> peers;
    std::unique_ptr<cluster::PeerBlockClient> block_client;
    std::unique_ptr<fs::SimpleFs> sfs;
    std::unique_ptr<nfs::NfsServer> nfs;
  };

  sim::EventLoop loop;
  sim::CostModel costs{};
  std::shared_ptr<proto::AddressBook> book;
  std::unique_ptr<proto::EthernetSwitch> sw;
  std::unique_ptr<topo::Node> storage, lb_node;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<topo::Node>> clients;
  std::unique_ptr<blockdev::BlockStore> store;
  std::unique_ptr<fs::FsImageBuilder> image;
  std::unique_ptr<iscsi::IscsiTarget> target;
  std::unique_ptr<cluster::LoadBalancer> lb;
  std::vector<std::unique_ptr<nfs::NfsClient>> nfs_clients;
  PassMode mode;

  static proto::Ipv4Addr replica_ip(int i) {
    return proto::make_ipv4(10, 0, 0, std::uint8_t(10 + i));
  }
  static proto::Ipv4Addr client_ip(int i) {
    return proto::make_ipv4(10, 0, 0, std::uint8_t(100 + i));
  }

  LegacyCluster(PassMode m, int server_count, int client_count) : mode(m) {
    book = std::make_shared<proto::AddressBook>();
    sw = std::make_unique<proto::EthernetSwitch>(loop, "switch", costs);
    storage = topo::make_wired_node(loop, costs, book, *sw, "storage",
                                    {{0x10, kStorageIp}});
    lb_node = topo::make_wired_node(loop, costs, book, *sw, "lb",
                                    {{0x50, kLbIp}});

    std::vector<cluster::Peer> peer_list;
    std::vector<cluster::LoadBalancer::Member> member_list;
    for (int i = 0; i < server_count; ++i) {
      peer_list.push_back({std::uint32_t(i), replica_ip(i)});
      member_list.push_back({std::uint32_t(i), replica_ip(i)});
    }

    store = std::make_unique<blockdev::BlockStore>(loop, costs, "raid0",
                                                   64 * 1024);
    image = std::make_unique<fs::FsImageBuilder>(*store, 64 * 1024, 16 * 1024);
    target = std::make_unique<iscsi::IscsiTarget>(storage->stack, *store);

    for (int i = 0; i < server_count; ++i) {
      auto r = std::make_unique<Replica>();
      r->node = topo::make_wired_node(
          loop, costs, book, *sw, "server" + std::to_string(i),
          {{0x20 + std::uint64_t(i), replica_ip(i)}});
      r->initiator = std::make_unique<iscsi::IscsiInitiator>(
          r->node->stack, replica_ip(i), kStorageIp, /*target_id=*/0);
      switch (mode) {
        case PassMode::Original:
          r->initiator->set_payload_policy(iscsi::PayloadPolicy::Copy);
          break;
        case PassMode::NCache: {
          core::NetCentricCache::Config cc;
          cc.pool_budget_bytes = 192u << 20;
          r->ncache = std::make_unique<core::NCacheModule>(r->node->stack, cc);
          r->ncache->attach_egress();
          r->ncache->attach_initiator(*r->initiator);
          break;
        }
        case PassMode::Baseline:
          r->initiator->set_payload_policy(iscsi::PayloadPolicy::Junk);
          break;
      }
      cluster::PeerCache::Config pc;
      pc.self_id = std::uint32_t(i);
      pc.target_id = 0;
      pc.mode = mode;
      pc.enabled = true;
      r->peers = std::make_unique<cluster::PeerCache>(r->node->stack, pc,
                                                      peer_list);
      r->block_client = std::make_unique<cluster::PeerBlockClient>(
          *r->initiator, *r->peers, r->ncache.get());
      r->sfs = std::make_unique<fs::SimpleFs>(loop, *r->block_client, 4096, 8);
      r->peers->attach(r->ncache.get(), r->sfs.get());
      replicas.push_back(std::move(r));
    }

    for (int i = 0; i < client_count; ++i) {
      clients.push_back(topo::make_wired_node(
          loop, costs, book, *sw, "client" + std::to_string(i),
          {{0x30 + std::uint64_t(i), client_ip(i)}}));
    }

    cluster::LoadBalancer::Config lc;
    lb = std::make_unique<cluster::LoadBalancer>(lb_node->stack, lc,
                                                 member_list);
  }

  void start_nfs() {
    if (!image->finished()) image->finish();
    target->start();
    for (auto& r : replicas) {
      run_on(loop, [&]() -> Task<void> {
        bool ok = co_await r->initiator->login();
        if (!ok) throw std::runtime_error("legacy cluster: login failed");
        co_await r->sfs->mount();
      });
    }
    for (auto& r : replicas) {
      r->peers->start();
      nfs::NfsServer::Config sc;
      sc.mode = mode;
      sc.daemons = 8;
      r->nfs = std::make_unique<nfs::NfsServer>(r->node->stack, *r->sfs, sc,
                                                r->ncache.get());
      r->nfs->start();
    }
    lb->start();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      nfs_clients.push_back(std::make_unique<nfs::NfsClient>(
          clients[i]->stack, client_ip(int(i)), kLbIp,
          std::uint16_t(700 + i)));
    }
  }
};

/// Closed-loop Zipf reader; folds every payload byte into an
/// order-sensitive FNV stream hash.
Task<void> zipf_worker(nfs::NfsClient* cl, int client,
                       const std::vector<std::uint64_t>* files,
                       const ZipfSampler* zipf, std::uint64_t seed,
                       workload::StopFlag* stop, std::uint64_t* stream_hash,
                       std::uint64_t* ops) {
  ++stop->live_workers;
  Pcg32 rng(seed, 0x9000u + std::uint64_t(client));
  while (!stop->stopped) {
    std::uint64_t fh = (*files)[zipf->sample(rng)];
    std::uint64_t off = 32768ull * rng.below(2);
    auto r = co_await cl->read(std::uint32_t(fh), off, 32768);
    if (r.status == Status::Ok) {
      for (std::byte b : r.data.to_bytes()) {
        *stream_hash = (*stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
      }
      ++*ops;
    }
  }
  --stop->live_workers;
}

struct ZipfResult {
  std::vector<std::uint64_t> hashes;
  std::uint64_t total_ops = 0;
  sim::Time end_time = 0;
  std::uint64_t target_reads = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t peer_misses = 0;
};

TEST(ClusterParity, FacadeMatchesHandWiredLegacy) {
  constexpr int kServers = 2, kClients = 2;

  LegacyCluster legacy(PassMode::NCache, kServers, kClients);
  std::vector<std::uint64_t> lfiles;
  ZipfResult lres;
  {
    for (int i = 0; i < 32; ++i) {
      lfiles.push_back(
          legacy.image->add_file("z" + std::to_string(i), 64 * 1024));
    }
    legacy.start_nfs();
    ZipfSampler zipf(32, 0.98);
    lres.hashes.assign(kClients, 0xcbf29ce484222325ull);
    std::vector<std::uint64_t> ops(kClients, 0);
    workload::StopFlag stop;
    for (int c = 0; c < kClients; ++c) {
      zipf_worker(legacy.nfs_clients[std::size_t(c)].get(), c, &lfiles, &zipf,
                  77, &stop, &lres.hashes[std::size_t(c)],
                  &ops[std::size_t(c)])
          .detach(legacy.loop.reaper());
    }
    workload::run_measurement(legacy.loop, stop, 150 * sim::kMillisecond);
    for (std::uint64_t o : ops) lres.total_ops += o;
    lres.end_time = legacy.loop.now();
    lres.target_reads = legacy.target->stats().reads;
    for (auto& r : legacy.replicas) {
      lres.peer_hits += r->peers->stats().peer_hits;
      lres.peer_misses += r->peers->stats().peer_misses;
    }
  }

  cluster::ClusterConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.server_count = kServers;
  cfg.client_count = kClients;
  cluster::ClusterTestbed cc(cfg);
  std::vector<std::uint64_t> cfiles;
  for (int i = 0; i < 32; ++i) {
    cfiles.push_back(cc.image().add_file("z" + std::to_string(i), 64 * 1024));
  }
  ASSERT_EQ(cfiles, lfiles);
  cc.start_nfs();
  ZipfResult cres;
  {
    ZipfSampler zipf(32, 0.98);
    cres.hashes.assign(kClients, 0xcbf29ce484222325ull);
    std::vector<std::uint64_t> ops(kClients, 0);
    workload::StopFlag stop;
    for (int c = 0; c < kClients; ++c) {
      zipf_worker(&cc.nfs_client(c), c, &cfiles, &zipf, 77, &stop,
                  &cres.hashes[std::size_t(c)], &ops[std::size_t(c)])
          .detach(cc.loop().reaper());
    }
    workload::run_measurement(cc.loop(), stop, 150 * sim::kMillisecond);
    for (std::uint64_t o : ops) cres.total_ops += o;
    cres.end_time = cc.loop().now();
    cres.target_reads = cc.total_target_reads();
    cres.peer_hits = cc.total_peer_hits();
    cres.peer_misses = cc.total_peer_misses();
  }

  EXPECT_GT(lres.total_ops, 0u);
  EXPECT_EQ(lres.hashes, cres.hashes)
      << "client streams differ from the hand-wired cluster";
  EXPECT_EQ(lres.total_ops, cres.total_ops);
  EXPECT_EQ(lres.end_time, cres.end_time) << "event timelines diverged";
  EXPECT_EQ(lres.target_reads, cres.target_reads);
  EXPECT_EQ(lres.peer_hits, cres.peer_hits);
  EXPECT_EQ(lres.peer_misses, cres.peer_misses);
}

// ---------------------------------------------------------------------------
// parse(describe()) worlds behave identically to builder worlds
// ---------------------------------------------------------------------------

std::string run_world_metrics(const topo::Topology& shape) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  topo::World world(shape, cfg);
  std::uint32_t ino = world.image().add_file("f.bin", 128 * 1024);
  world.start_nfs();
  run_on(world.loop(), [&]() -> Task<void> {
    for (int c = 0; c < world.client_count(); ++c) {
      co_await read_all(world.nfs_client(c), ino, 128 * 1024, nullptr);
    }
  });
  return world.metrics().to_json().dump();
}

TEST(TopologyWorld, ParsedTextMatchesBuilderBitForBit) {
  topo::Topology built = topo::presets::cluster(2, 2);
  topo::Topology parsed = topo::Topology::parse(built.describe());
  EXPECT_EQ(run_world_metrics(built), run_world_metrics(parsed))
      << "a parsed topology must materialize the same world";
}

// ---------------------------------------------------------------------------
// Two racks over a WAN trunk — end to end
// ---------------------------------------------------------------------------

TEST(TwoRackWan, ReadsTraverseTheTrunkCorrectly) {
  constexpr std::size_t kSize = 128 * 1024;
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  topo::World world(
      topo::presets::two_racks_wan(2, 200'000'000, 5 * sim::kMillisecond),
      cfg);
  std::uint32_t ino = world.image().add_file("f.bin", kSize);
  world.start_nfs();

  std::vector<std::byte> bytes;
  sim::Time t0 = world.loop().now();
  run_on(world.loop(), [&]() -> Task<void> {
    co_await read_all(world.nfs_client(0), ino, kSize, &bytes);
    co_await read_all(world.nfs_client(1), ino, kSize, &bytes);
  });
  EXPECT_EQ(bytes.size(), 2 * kSize);

  // The client racks' only path to the server is the trunk.
  sim::DuplexLink& trunk = world.trunk("rack_a", "rack_b");
  EXPECT_GT(trunk.a_to_b.frames(), 0u);
  EXPECT_GT(trunk.b_to_a.frames(), 0u);
  EXPECT_GT(trunk.b_to_a.payload_bytes(), 2 * kSize)
      << "read payloads must have crossed the WAN";
  // Every request pays at least one 5 ms WAN round trip.
  EXPECT_GT(world.loop().now() - t0, 2 * 5 * sim::kMillisecond);
}

struct LossyRun {
  std::string metrics_json;
  sim::Time end_time = 0;
  std::uint64_t trunk_drops = 0;
};

LossyRun run_lossy_wan(std::uint64_t seed) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.fault_seed = seed;
  topo::World world(topo::presets::two_racks_wan(2, 200'000'000,
                                                 2 * sim::kMillisecond,
                                                 0.02),
                    cfg);
  std::uint32_t ino = world.image().add_file("f.bin", 96 * 1024);
  world.start_nfs();
  run_on(world.loop(), [&]() -> Task<void> {
    co_await read_all(world.nfs_client(0), ino, 96 * 1024, nullptr);
  });
  sim::DuplexLink& trunk = world.trunk("rack_a", "rack_b");
  LossyRun run;
  run.metrics_json = world.metrics().to_json().dump();
  run.end_time = world.loop().now();
  run.trunk_drops =
      trunk.a_to_b.dropped_faults() + trunk.b_to_a.dropped_faults();
  return run;
}

TEST(TwoRackWan, LossySameSeedRunsReplayBitForBit) {
  LossyRun a = run_lossy_wan(42);
  LossyRun b = run_lossy_wan(42);
  EXPECT_GT(a.trunk_drops, 0u)
      << "a 2% lossy trunk should actually drop frames";
  EXPECT_EQ(a.trunk_drops, b.trunk_drops);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.metrics_json, b.metrics_json)
      << "seeded loss hooks must be deterministic";
}

}  // namespace
}  // namespace ncache
