// SMP server model + parallel deterministic simulation engine.
//
//  * ParallelEngine unit coverage: conservative windows, cross-domain
//    staging, the (time, src_domain, seq) merge order, clock alignment,
//    and exception propagation out of a domain's window.
//  * SMP CpuModel regressions: charge() attribution follows the executing
//    core (not core 0), the deterministic steal rule, and K>1-with-RSS-off
//    equivalence to K=1.
//  * cores= topology attribute: builder, text round-trip, validation.
//  * Partitioned worlds (presets::cluster_racks): correct end-to-end NFS
//    bytes, two same-seed runs byte-identical (stream hashes, op counts,
//    final sim clock, metrics JSON, round counts), SMP servers spread load
//    across cores and account cross-core cache handoffs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "sim/cpu_model.h"
#include "sim/parallel.h"
#include "topo/instantiator.h"
#include "topo/presets.h"
#include "workload/counters.h"

namespace ncache {
namespace {

using core::PassMode;
using nfs::Status;

// ---------------------------------------------------------------------------
// ParallelEngine
// ---------------------------------------------------------------------------

TEST(ParallelEngine, SingleDomainNeedsNoLookahead) {
  sim::EventLoop loop;
  sim::ParallelEngine eng;
  eng.add_domain(loop, "only");
  int fired = 0;
  loop.schedule_at(100, [&] { ++fired; });
  loop.schedule_at(200, [&] { ++fired; });
  EXPECT_EQ(eng.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.now(), 200u);
}

TEST(ParallelEngine, MultiDomainRequiresPositiveLookahead) {
  sim::EventLoop a, b;
  sim::ParallelEngine eng;
  eng.add_domain(a, "a");
  eng.add_domain(b, "b");
  a.schedule_at(10, [] {});
  EXPECT_THROW(eng.run(), std::logic_error);
}

/// Cross-domain ping-pong through post(): each hop lands `latency` after
/// the send, alternating domains. Exercises the staging path and the
/// conservative window loop end to end.
std::vector<std::pair<unsigned, sim::Time>> ping_pong(int hops) {
  constexpr sim::Duration kLatency = 1'000;
  sim::EventLoop loops[2];
  sim::ParallelEngine eng;
  unsigned ids[2] = {eng.add_domain(loops[0], "a"),
                     eng.add_domain(loops[1], "b")};
  eng.set_lookahead(kLatency);

  std::vector<std::pair<unsigned, sim::Time>> trace;
  std::function<void(unsigned)> hop = [&](unsigned at_domain) {
    trace.emplace_back(at_domain, loops[at_domain].now());
    if (int(trace.size()) >= hops) return;
    unsigned next = 1 - at_domain;
    eng.post(ids[at_domain], ids[next],
             loops[at_domain].now() + kLatency, [&hop, next] { hop(next); });
  };
  loops[0].schedule_at(0, [&] { hop(0); });
  eng.run();
  return trace;
}

TEST(ParallelEngine, CrossDomainPingPong) {
  auto trace = ping_pong(6);
  ASSERT_EQ(trace.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(trace[std::size_t(i)].first, unsigned(i % 2));
    EXPECT_EQ(trace[std::size_t(i)].second, sim::Time(i) * 1'000);
  }
}

TEST(ParallelEngine, SimultaneousDeliveriesMergeBySourceThenSeq) {
  // Domains a and b both deliver into c at the same instant; the merge
  // must order them (src asc, then per-src send order).
  sim::EventLoop a, b, c;
  sim::ParallelEngine eng;
  unsigned ia = eng.add_domain(a, "a");
  unsigned ib = eng.add_domain(b, "b");
  unsigned ic = eng.add_domain(c, "c");
  eng.set_lookahead(500);

  std::vector<int> order;
  a.schedule_at(0, [&] {
    eng.post(ia, ic, 500, [&] { order.push_back(10); });
    eng.post(ia, ic, 500, [&] { order.push_back(11); });
  });
  b.schedule_at(0, [&] {
    eng.post(ib, ic, 500, [&] { order.push_back(20); });
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20}));
  EXPECT_EQ(c.now(), 500u);
}

TEST(ParallelEngine, RunUntilAlignsEveryDomainClock) {
  sim::EventLoop a, b;
  sim::ParallelEngine eng;
  eng.add_domain(a, "a");
  eng.add_domain(b, "b");
  eng.set_lookahead(100);
  int fired = 0;
  a.schedule_at(50, [&] { ++fired; });
  b.schedule_at(7'000, [&] { ++fired; });  // beyond the deadline
  eng.run_until(5'000);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(a.now(), 5'000u);
  EXPECT_EQ(b.now(), 5'000u);
  EXPECT_EQ(eng.now(), 5'000u);
}

TEST(ParallelEngine, DomainExceptionPropagatesToCaller) {
  sim::EventLoop a, b;
  sim::ParallelEngine eng;
  eng.add_domain(a, "a");
  eng.add_domain(b, "b");
  eng.set_lookahead(100);
  a.schedule_at(10, [] { throw std::runtime_error("boom in domain"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// SMP CpuModel
// ---------------------------------------------------------------------------

TEST(SmpCpu, ChargeInsideCompletionFollowsExecutingCore) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu", 4);
  // The completion runs inside core 2's context; the nested fire-and-forget
  // charge must land on core 2, not default to core 0 (the attribution bug
  // this PR fixes).
  cpu.submit_on(2, 100, [&] { cpu.charge(50); });
  loop.run();
  EXPECT_EQ(cpu.core_busy_ns(2), 150);
  EXPECT_EQ(cpu.core_busy_ns(0), 0);
  EXPECT_EQ(cpu.core_items(2), 2u);
}

TEST(SmpCpu, CoroutineResumesInsideSteeredCoreContext) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu", 4);
  unsigned seen = sim::CpuModel::kNoCore;
  auto t = [&]() -> Task<void> {
    co_await cpu.run_on(3, 100);
    seen = cpu.current_core();
    cpu.charge(25);  // synchronous follow-on work: same core
  };
  sim::sync_wait(loop, t());
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(cpu.core_busy_ns(3), 125);
}

TEST(SmpCpu, DeterministicStealToLowestIdleCore) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu", 3);
  cpu.set_steal_threshold(100);
  cpu.submit_on(0, 1'000, nullptr);  // core 0 now backlogged past 100 ns
  cpu.submit_on(0, 1'000, nullptr);  // stolen by core 1 (lowest idle)
  cpu.submit_on(0, 1'000, nullptr);  // stolen by core 2
  cpu.submit_on(0, 1'000, nullptr);  // nobody idle: stays on core 0
  EXPECT_EQ(cpu.steals(), 2u);
  EXPECT_EQ(cpu.core_busy_ns(0), 2'000);
  EXPECT_EQ(cpu.core_busy_ns(1), 1'000);
  EXPECT_EQ(cpu.core_busy_ns(2), 1'000);
}

TEST(SmpCpu, RssOffSteersEverythingToCoreZero) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu", 4);
  cpu.set_rss(false);
  for (std::uint64_t h = 0; h < 64; ++h) EXPECT_EQ(cpu.steer(h), 0u);
  cpu.set_rss(true);
  bool spread = false;
  for (std::uint64_t h = 0; h < 64 && !spread; ++h) spread = cpu.steer(h) != 0;
  EXPECT_TRUE(spread) << "RSS should use more than one core";
}

// ---------------------------------------------------------------------------
// cores= topology attribute
// ---------------------------------------------------------------------------

TEST(TopologyCores, BuilderRoundTripsThroughText) {
  topo::Topology t = topo::TopologyBuilder("smp")
                         .ether_switch("sw")
                         .target("storage0")
                         .server("server0")
                         .cores(4)
                         .link("storage0", "sw")
                         .link("server0", "sw")
                         .build();
  ASSERT_NE(t.find("server0"), nullptr);
  EXPECT_EQ(t.find("server0")->attrs.at("cores"), "4");
  topo::Topology parsed = topo::Topology::parse(t.describe());
  EXPECT_EQ(parsed, t) << "cores= must survive describe()/parse()";
}

TEST(TopologyCores, BuilderRejectsCoresOffServer) {
  topo::TopologyBuilder b("bad");
  b.ether_switch("sw").client("c0");
  EXPECT_THROW(b.cores(2), topo::TopologyError);
}

topo::Topology with_cores_attr(const std::string& value) {
  topo::TopologyBuilder b("bad");
  b.ether_switch("sw").target("storage0").server("server0");
  b.attr("cores", value);
  b.link("storage0", "sw").link("server0", "sw");
  return b.peek();  // unvalidated
}

TEST(TopologyCores, ValidatorRejectsMalformedCoreCounts) {
  EXPECT_THROW(with_cores_attr("0").validate(), topo::TopologyError);
  EXPECT_THROW(with_cores_attr("65").validate(), topo::TopologyError);
  EXPECT_THROW(with_cores_attr("four").validate(), topo::TopologyError);
  EXPECT_THROW(with_cores_attr("4x").validate(), topo::TopologyError);
  EXPECT_NO_THROW(with_cores_attr("4").validate());
}

TEST(TopologyCores, ValidatorRejectsCoresOnNonServer) {
  topo::TopologyBuilder b("bad");
  b.ether_switch("sw").target("storage0").server("server0");
  b.link("storage0", "sw").link("server0", "sw");
  topo::Topology t = b.peek();
  t.nodes[1].attrs["cores"] = "2";  // storage0
  EXPECT_THROW(t.validate(), topo::TopologyError);
}

// ---------------------------------------------------------------------------
// Partitioned worlds
// ---------------------------------------------------------------------------

/// Closed-loop Zipf reader folding payload bytes into an order-sensitive
/// FNV stream hash (same shape as the cluster parity tests).
Task<void> zipf_worker(nfs::NfsClient* cl, int client,
                       const std::vector<std::uint64_t>* files,
                       const ZipfSampler* zipf, std::uint64_t seed,
                       workload::StopFlag* stop, std::uint64_t* stream_hash,
                       std::uint64_t* ops) {
  ++stop->live_workers;
  Pcg32 rng(seed, 0xA000u + std::uint64_t(client));
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

struct RacksRun {
  std::vector<std::uint64_t> hashes;
  std::uint64_t total_ops = 0;
  sim::Time end_time = 0;
  std::string metrics_json;
  std::uint64_t rounds = 0;
};

struct RacksOptions {
  unsigned cores = 1;
  bool rss = true;
  int racks = 2;
  int clients_per_rack = 2;
  sim::Duration duration = 120 * sim::kMillisecond;
};

RacksRun run_racks(const RacksOptions& opt) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.server_cores = opt.cores;
  cfg.peer_without_balancer = true;
  topo::World world(
      topo::presets::cluster_racks(opt.racks, opt.clients_per_rack), cfg);

  std::vector<std::uint64_t> files;
  for (int i = 0; i < 32; ++i) {
    files.push_back(world.image().add_file("z" + std::to_string(i), 64 * 1024));
  }
  world.start_nfs();
  if (!opt.rss) {
    for (int s = 0; s < world.server_count(); ++s) {
      world.server(s).node->stack.cpu().set_rss(false);
    }
  }

  const int n = world.client_count();
  ZipfSampler zipf(32, 0.98);
  RacksRun run;
  run.hashes.assign(std::size_t(n), 0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(n), 0);
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    zipf_worker(&world.nfs_client(c), c, &files, &zipf, 77, &stop,
                &run.hashes[std::size_t(c)], &ops[std::size_t(c)])
        .detach(world.engine().domain_loop(d).reaper());
  }
  workload::run_measurement(world.engine(), stop, opt.duration);
  for (std::uint64_t o : ops) run.total_ops += o;
  run.end_time = world.engine().now();
  run.metrics_json = world.metrics().to_json().dump();
  run.rounds = world.engine().rounds();
  return run;
}

TEST(PartitionedWorld, ServesCorrectBytesAcrossRacks) {
  constexpr std::size_t kSize = 96 * 1024;
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.peer_without_balancer = true;
  topo::World world(topo::presets::cluster_racks(2, 1), cfg);
  std::uint32_t ino = world.image().add_file("f.bin", kSize);
  world.start_nfs();
  ASSERT_TRUE(world.partitioned());
  EXPECT_THROW(world.loop(), std::logic_error);

  // One reader per rack; every block content-verified against the image.
  // Captureless, so the coroutine frame owns copies of its arguments (a
  // capturing lambda's captures die with the lambda, before the frame).
  int done = 0;
  auto reader = [](topo::World& world, int& done, std::uint32_t ino,
                   int c) -> Task<void> {
    for (std::uint64_t off = 0; off < kSize; off += 32768) {
      auto r = co_await world.nfs_client(c).read(ino, off, 32768);
      EXPECT_EQ(r.status, Status::Ok) << "client " << c << " off " << off;
      auto bytes = r.data.to_bytes();
      EXPECT_EQ(fs::verify_content(ino, off, bytes), std::size_t(-1));
    }
    ++done;
  };
  for (int c = 0; c < world.client_count(); ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    reader(world, done, ino, c).detach(world.engine().domain_loop(d).reaper());
  }
  world.engine().run([&] { return done == world.client_count(); });
  EXPECT_EQ(done, world.client_count());
  EXPECT_GT(world.engine().rounds(), 0u);
}

TEST(PartitionedWorld, RepeatRunByteIdentical) {
  // metrics_json is the whole registry, pool occupancy (in-use and pinned
  // bytes) included: it depends on the order buffers are released in.
  RacksOptions opt;
  RacksRun a = run_racks(opt);
  RacksRun b = run_racks(opt);

  EXPECT_GT(a.total_ops, 0u);
  EXPECT_EQ(a.hashes, b.hashes) << "same-seed runs diverged";
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(PartitionedWorld, SmpRssOffMatchesSingleCoreModel) {
  // K=4 with steering forced to core 0 must replay the K=1 run exactly
  // (the SMP model degenerates to the historical single-core one).
  RacksOptions opt;
  RacksRun k1 = run_racks(opt);
  opt.cores = 4;
  opt.rss = false;
  RacksRun k4 = run_racks(opt);
  EXPECT_GT(k1.total_ops, 0u);
  EXPECT_EQ(k1.hashes, k4.hashes);
  EXPECT_EQ(k1.total_ops, k4.total_ops);
  EXPECT_EQ(k1.end_time, k4.end_time);
}

TEST(PartitionedWorld, SmpServersSpreadLoadAndAccountHandoffs) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.peer_without_balancer = true;
  cfg.server_cores = 4;
  topo::World world(topo::presets::cluster_racks(1, 4), cfg);
  std::vector<std::uint64_t> files;
  for (int i = 0; i < 32; ++i) {
    files.push_back(world.image().add_file("z" + std::to_string(i), 64 * 1024));
  }
  world.start_nfs();

  const int n = world.client_count();
  ZipfSampler zipf(32, 0.98);
  std::vector<std::uint64_t> hashes(std::size_t(n), 0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(n), 0);
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    zipf_worker(&world.nfs_client(c), c, &files, &zipf, 77, &stop,
                &hashes[std::size_t(c)], &ops[std::size_t(c)])
        .detach(world.engine().domain_loop(d).reaper());
  }
  workload::run_measurement(world.engine(), stop, 120 * sim::kMillisecond);

  sim::CpuModel& cpu = world.server(0).node->stack.cpu();
  ASSERT_EQ(cpu.cores(), 4u);
  int used = 0;
  for (unsigned c = 0; c < cpu.cores(); ++c) {
    if (cpu.core_items(c) > 0) ++used;
  }
  EXPECT_GT(used, 1) << "4 client flows on 4 cores should use more than one";
  // Key ownership (hash of the cache key) is independent of flow steering,
  // so some egress substitutions must cross cores.
  EXPECT_GT(world.server(0).ncache->stats().cross_core_handoffs, 0u);
  // The SMP-only metric rows exist.
  std::string json = world.metrics().to_json().dump();
  EXPECT_NE(json.find("ncache.cross_core_handoff"), std::string::npos);
  EXPECT_NE(json.find("cpu.core1.items"), std::string::npos);
  EXPECT_NE(json.find("cpu.steal"), std::string::npos);
}

TEST(PartitionedWorld, TracksSequentialSingleLoopWorld) {
  // The same topology driven as one sequential loop. The two are NOT
  // byte-identical by design: a single wheel serializes same-nanosecond
  // events across the whole world in insertion order, while the
  // partitioned engine serializes each domain's window in isolation and
  // orders cross-domain ties by (time, src_domain, seq) — a different,
  // equally valid schedule of the same simulated system. (The engine's
  // byte-identity guarantee is across same-seed runs, tested above.) What
  // must hold: both make progress and the throughput they simulate agrees
  // closely — the tie-order only perturbs interleaving, not the modeled
  // work.
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = false;
  cfg.peer_without_balancer = true;
  topo::World world(topo::presets::cluster_racks(2, 2), cfg);
  std::vector<std::uint64_t> files;
  for (int i = 0; i < 32; ++i) {
    files.push_back(world.image().add_file("z" + std::to_string(i), 64 * 1024));
  }
  world.start_nfs();

  const int n = world.client_count();
  ZipfSampler zipf(32, 0.98);
  std::vector<std::uint64_t> hashes(std::size_t(n), 0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(n), 0);
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    zipf_worker(&world.nfs_client(c), c, &files, &zipf, 77, &stop,
                &hashes[std::size_t(c)], &ops[std::size_t(c)])
        .detach(world.loop().reaper());
  }
  workload::run_measurement(world.loop(), stop, 120 * sim::kMillisecond);
  std::uint64_t total = 0;
  for (std::uint64_t o : ops) total += o;

  RacksOptions opt;
  RacksRun part = run_racks(opt);
  EXPECT_GT(total, 0u);
  EXPECT_GT(part.total_ops, 0u);
  double ratio = double(part.total_ops) / double(total);
  EXPECT_GT(ratio, 0.9) << "partitioned run simulated far fewer ops";
  EXPECT_LT(ratio, 1.1) << "partitioned run simulated far more ops";
}

}  // namespace
}  // namespace ncache
