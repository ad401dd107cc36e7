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
#include "workload/nfs_workloads.h"
#include "test_util.h"

namespace ncache {
namespace {

using core::PassMode;


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
  workload::Stream legacy_stream;
  run_on(legacy.loop, [&]() -> Task<void> {
    co_await workload::read_file(*legacy.nfs_clients[0], ino, 0, kSize, 32768,
                                 &legacy_stream);
    co_await workload::read_file(*legacy.nfs_clients[1], ino, 0, kSize, 32768,
                                 &legacy_stream);
  });

  testbed::TestbedConfig cfg;
  cfg.mode = mode;
  cfg.server_nics = nics;
  cfg.client_count = 2;
  testbed::Testbed tb(cfg);
  std::uint32_t tino = tb.image().add_file("f.bin", kSize);
  ASSERT_EQ(tino, ino);
  tb.start_nfs();
  workload::Stream facade_stream;
  run_on(tb.loop(), [&]() -> Task<void> {
    co_await workload::read_file(tb.nfs_client(0), tino, 0, kSize, 32768,
                                 &facade_stream);
    co_await workload::read_file(tb.nfs_client(1), tino, 0, kSize, 32768,
                                 &facade_stream);
  });

  EXPECT_EQ(legacy_stream.bytes, 2 * kSize);
  expect_clean(legacy_stream);
  expect_clean(facade_stream);
  EXPECT_EQ(legacy_stream.ops, facade_stream.ops);
  EXPECT_EQ(legacy_stream.digest, facade_stream.digest)
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

/// Closed-loop Zipf-popular 32 KB readers, one stream per client, for
/// 150 ms of `loop`.
std::vector<workload::Stream> run_zipf_clients(
    sim::EventLoop& loop, const std::vector<nfs::NfsClient*>& clients,
    std::shared_ptr<const workload::FileSet> files) {
  auto zipf = std::make_shared<const ZipfSampler>(files->entries.size(), 0.98);
  std::vector<workload::Stream> streams(clients.size());
  workload::StopFlag stop;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    workload::random_reader(*clients[c], files, zipf,
                            Pcg32(/*seed=*/77, 0x9000u + c), 32768, &stop,
                            &streams[c])
        .detach(loop.reaper());
  }
  workload::run_measurement(loop, stop, 150 * sim::kMillisecond);
  return streams;
}

struct ZipfResult {
  std::vector<workload::Stream> streams;
  sim::Time end_time = 0;
  std::uint64_t target_reads = 0;
  std::uint64_t peer_hits = 0;
  std::uint64_t peer_misses = 0;
};

TEST(ClusterParity, FacadeMatchesHandWiredLegacy) {
  constexpr int kServers = 2, kClients = 2;

  LegacyCluster legacy(PassMode::NCache, kServers, kClients);
  auto lfiles = std::make_shared<workload::FileSet>();
  ZipfResult lres;
  {
    lfiles->add(*legacy.image, "z", 32, 64 * 1024);
    legacy.start_nfs();
    std::vector<nfs::NfsClient*> clients;
    for (auto& c : legacy.nfs_clients) clients.push_back(c.get());
    lres.streams = run_zipf_clients(legacy.loop, clients, lfiles);
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
  auto cfiles = std::make_shared<workload::FileSet>();
  cfiles->add(cc.image(), "z", 32, 64 * 1024);
  for (std::size_t i = 0; i < cfiles->entries.size(); ++i) {
    ASSERT_EQ(cfiles->entries[i].ino, lfiles->entries[i].ino);
  }
  cc.start_nfs();
  ZipfResult cres;
  {
    std::vector<nfs::NfsClient*> clients;
    for (int c = 0; c < kClients; ++c) clients.push_back(&cc.nfs_client(c));
    cres.streams = run_zipf_clients(cc.loop(), clients, cfiles);
    cres.end_time = cc.loop().now();
    cres.target_reads = cc.total_target_reads();
    cres.peer_hits = cc.total_peer_hits();
    cres.peer_misses = cc.total_peer_misses();
  }

  EXPECT_GT(total_ops(lres.streams), 0u);
  expect_same_streams(lres.streams, cres.streams);
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
  workload::Stream stream;
  run_on(world.loop(), [&]() -> Task<void> {
    for (int c = 0; c < world.client_count(); ++c) {
      co_await workload::read_file(world.nfs_client(c), ino, 0, 128 * 1024,
                                   32768, &stream);
    }
  });
  expect_clean(stream);
  EXPECT_EQ(stream.ops, 4u * std::uint64_t(world.client_count()));
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

  workload::Stream stream;
  sim::Time t0 = world.loop().now();
  run_on(world.loop(), [&]() -> Task<void> {
    co_await workload::read_file(world.nfs_client(0), ino, 0, kSize, 32768,
                                 &stream);
    co_await workload::read_file(world.nfs_client(1), ino, 0, kSize, 32768,
                                 &stream);
  });
  EXPECT_EQ(stream.bytes, 2 * kSize);
  expect_clean(stream);

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
  workload::Stream stream;
  sim::sync_wait(world.loop(),
                 workload::read_file(world.nfs_client(0), ino, 0, 96 * 1024,
                                     32768, &stream));
  expect_clean(stream);
  EXPECT_EQ(stream.ops, 3u);
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
