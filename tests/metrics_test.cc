// MetricRegistry + JSON exporter: unit behaviour of the registry itself,
// the end-to-end round trip the benches rely on — run a window on the
// testbed, dump the registry, parse the dump back, and check it agrees
// with the typed Testbed::Snapshot view — and the measurement window on
// every world shape: a reset zeroes every counter, and the window's
// counts obey the conservation laws between clients, servers and wires.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "fault/fault_injector.h"
#include "testbed/testbed.h"
#include "topo/presets.h"
#include "workload/nfs_workloads.h"
#include "test_util.h"

namespace ncache {
namespace {

// ---- json::Value ------------------------------------------------------------

TEST(Json, ObjectPreservesInsertionOrderAndOverwrites) {
  auto v = json::Value::object();
  v.set("b", 1);
  v.set("a", 2);
  v.set("b", 3);  // overwrite keeps position
  EXPECT_EQ(v.dump(-1), "{\"b\":3,\"a\":2}");
}

TEST(Json, DumpParseRoundTrip) {
  auto v = json::Value::object();
  v.set("str", "he\"llo\n");
  v.set("int", std::int64_t(-42));
  v.set("dbl", 0.25);
  v.set("flag", true);
  auto arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  v.set("arr", std::move(arr));

  auto parsed = json::Value::parse(v.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), v.dump());
  EXPECT_EQ(parsed->find("str")->as_string(), "he\"llo\n");
  EXPECT_EQ(parsed->find("int")->as_int(), -42);
  EXPECT_DOUBLE_EQ(parsed->find("dbl")->as_double(), 0.25);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(json::Value::parse("{\"a\":").has_value());
  EXPECT_FALSE(json::Value::parse("{} trailing").has_value());
  EXPECT_FALSE(json::Value::parse("nope").has_value());
}

TEST(Json, NonFiniteDoublesDumpAsNull) {
  auto v = json::Value::object();
  v.set("bad", std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(v.dump(-1), "{\"bad\":null}");
}

TEST(Json, FindPathDescendsNestedObjects) {
  auto v = json::Value::object();
  auto inner = json::Value::object();
  inner.set("server", 0.5);
  v.set("cpu", std::move(inner));
  ASSERT_NE(v.find_path("cpu.server"), nullptr);
  EXPECT_DOUBLE_EQ(v.find_path("cpu.server")->as_double(), 0.5);
  EXPECT_EQ(v.find_path("cpu.missing"), nullptr);
  EXPECT_EQ(v.find_path("nope.server"), nullptr);
}

// ---- MetricRegistry ---------------------------------------------------------

TEST(MetricRegistry, SamplesThroughCallbacks) {
  MetricRegistry reg;
  std::uint64_t ops = 0;
  double util = 0.0;
  std::uint64_t busy = 0;
  reg.counter("server", "test.ops", &ops);
  reg.gauge("server", "test.util", [&] { return util; });
  reg.computed_counter("server", "test.busy", [&] { return busy * 2; });

  ops = 7;
  util = 0.75;
  busy = 4;
  EXPECT_EQ(reg.counter_value("server", "test.ops"), 7u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("server", "test.util"), 0.75);
  EXPECT_EQ(reg.counter_value("server", "test.busy"), 8u);
  EXPECT_TRUE(reg.has("server", "test.ops"));
  EXPECT_FALSE(reg.has("server", "test.nope"));
  EXPECT_FALSE(reg.has("client0", "test.ops"));
}

TEST(MetricRegistry, ResetAllRunsHooks) {
  // reset_all() zeroes every cell and histogram itself, then runs the
  // hooks, so a hook sees the fresh window: a busy window carries its
  // in-flight time into a cell that already reads zero.
  MetricRegistry reg;
  std::uint64_t ops = 5;
  std::uint64_t bytes = 4096;
  std::uint64_t hwm = 12;
  std::uint64_t busy = 900;
  LatencyHistogram lat;
  lat.record(1'000);
  reg.counter("server", "test.ops", &ops);
  reg.bytes("server", "test.bytes", &bytes);
  reg.window_max("server", "test.hwm", &hwm);
  reg.histogram("server", "test.lat", &lat);
  reg.counter("server", "test.busy_ns", &busy);
  std::uint64_t busy_seen_by_hook = ~0ull;
  reg.on_reset([&] {
    busy_seen_by_hook = busy;
    busy = 30;  // work still in flight belongs to the new window
  });
  EXPECT_DOUBLE_EQ(reg.gauge_value("server", "test.hwm"), 12.0);

  reg.reset_all();
  EXPECT_EQ(reg.counter_value("server", "test.ops"), 0u);
  EXPECT_EQ(reg.counter_value("server", "test.bytes"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("server", "test.hwm"), 0.0);
  EXPECT_EQ(reg.counter_value("server", "test.lat"), 0u);
  EXPECT_EQ(busy_seen_by_hook, 0u);
  EXPECT_EQ(reg.counter_value("server", "test.busy_ns"), 30u);
}

TEST(MetricRegistry, ToJsonGroupsByNodeInRegistrationOrder) {
  MetricRegistry reg;
  std::uint64_t a = 1, b = 2, c = 3;
  reg.counter("zeta", "a.ops", &a);
  reg.counter("alpha", "b.ops", &b);
  reg.counter("zeta", "c.ops", &c);
  auto js = reg.to_json();
  // First-registration order, NOT alphabetical.
  ASSERT_EQ(js.members().size(), 2u);
  EXPECT_EQ(js.members()[0].first, "zeta");
  EXPECT_EQ(js.members()[1].first, "alpha");
  EXPECT_EQ(js.find("zeta")->members()[0].first, "a.ops");
  EXPECT_EQ(js.find("zeta")->members()[1].first, "c.ops");
  EXPECT_EQ(js.find("zeta")->find("c.ops")->as_int(), 3);
}

TEST(MetricRegistry, HistogramsExportSummaries) {
  MetricRegistry reg;
  LatencyHistogram h;
  h.record(1'000);
  h.record(2'000);
  reg.histogram("server", "test.lat", &h);
  auto js = reg.to_json();
  const auto* lat = js.find("server")->find("test.lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_int(), 2);
  ASSERT_NE(lat->find("p50_ns"), nullptr);
  ASSERT_NE(lat->find("p99_ns"), nullptr);
  EXPECT_EQ(lat->find("max_ns")->as_int(), 2'000);
}

// ---- end-to-end round trip --------------------------------------------------

TEST(MetricsRoundTrip, RegistryDumpMatchesTypedSnapshot) {
  testbed::TestbedConfig cfg;
  cfg.mode = core::PassMode::NCache;
  cfg.volume_blocks = 8 * 1024;
  testbed::Testbed tb(cfg);
  constexpr std::uint64_t kHot = 1 << 20;
  std::uint32_t ino = tb.image().add_file("hot.bin", kHot);
  tb.start_nfs();

  // Warm, then run a short all-hit window.
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                kHot, 32768, nullptr));

  auto hot = std::make_shared<workload::FileSet>();
  hot->entries.push_back({ino, kHot, "hot.bin"});
  workload::StopFlag stop;
  workload::Stream stream;
  for (int ci = 0; ci < tb.client_count(); ++ci) {
    workload::random_reader(tb.nfs_client(ci), hot, nullptr,
                            Pcg32(std::uint32_t(ci + 1)), 32768, &stop,
                            &stream)
        .detach();
  }
  tb.reset_stats();
  sim::Time window_start = tb.loop().now();
  workload::run_measurement(tb.loop(), stop, 30 * sim::kMillisecond);
  EXPECT_GT(stream.ops, 0u);
  expect_clean(stream);

  auto snap = tb.snapshot(window_start);
  EXPECT_GT(snap.nfs_requests, 0u);
  EXPECT_GT(snap.server_cpu, 0.0);
  EXPECT_GT(snap.server_logical_copies, 0u);  // NCache mode
  EXPECT_EQ(snap.server_data_copies, 0u);

  // Serialize the registry, parse the text back, and check the typed
  // view against the parsed fields — the full bench-telemetry loop.
  // Doubles travel through the dumper's fixed %.9g format, so parsed
  // gauges agree with the exact values to 9 significant digits.
  constexpr double kFmtTol = 1e-8;
  auto parsed = json::Value::parse(tb.metrics().to_json().dump());
  ASSERT_TRUE(parsed.has_value());

  const auto* server = parsed->find("server0");
  ASSERT_NE(server, nullptr);
  EXPECT_NEAR(server->find("cpu.utilization")->as_double(), snap.server_cpu,
              kFmtTol);
  EXPECT_EQ(std::uint64_t(server->find("nfs.requests")->as_int()),
            snap.nfs_requests);
  EXPECT_EQ(std::uint64_t(server->find("nfs.read_bytes")->as_int()),
            snap.read_bytes_served);
  EXPECT_EQ(std::uint64_t(server->find("copy.data_ops")->as_int()),
            snap.server_data_copies);
  EXPECT_EQ(std::uint64_t(server->find("copy.logical_ops")->as_int()),
            snap.server_logical_copies);
  EXPECT_NEAR(server->find("nic0.tx.utilization")->as_double(),
              snap.server_link_util, kFmtTol);

  const auto* storage = parsed->find("storage0");
  ASSERT_NE(storage, nullptr);
  EXPECT_NEAR(storage->find("cpu.utilization")->as_double(), snap.storage_cpu,
              kFmtTol);

  // Client-side CPUs exist and the typed max matches the parsed max.
  double client_max = 0.0;
  for (int i = 0; i < tb.client_count(); ++i) {
    const auto* c = parsed->find("client" + std::to_string(i));
    ASSERT_NE(c, nullptr);
    client_max =
        std::max(client_max, c->find("cpu.utilization")->as_double());
  }
  EXPECT_NEAR(client_max, snap.client_cpu_max, kFmtTol);
}

TEST(MetricsRoundTrip, SimCountersAppearInRegistryDump) {
  testbed::TestbedConfig cfg;
  cfg.volume_blocks = 8 * 1024;
  testbed::Testbed tb(cfg);
  tb.start_nfs();

  EXPECT_TRUE(tb.metrics().has("sim", "clamped_events"));
  EXPECT_TRUE(tb.metrics().has("sim", "netbuf.slab_hits"));
  EXPECT_TRUE(tb.metrics().has("sim", "netbuf.slab_misses"));

  auto parsed = json::Value::parse(tb.metrics().to_json().dump());
  ASSERT_TRUE(parsed.has_value());
  const auto* sim_node = parsed->find("sim");
  ASSERT_NE(sim_node, nullptr);
  ASSERT_NE(sim_node->find("clamped_events"), nullptr);
  EXPECT_EQ(std::uint64_t(sim_node->find("clamped_events")->as_int()),
            tb.loop().clamped_events());
}

// ---- the measurement window -------------------------------------------------
//
// One world per shape; between them they register every kind of counter
// the registry knows: the three pass modes, the storage-side cache, every
// overload gate with retry budgets, fault counters that fired before the
// window, a balanced cluster and a partitioned multi-rack world.

enum class Shape {
  Original,
  NCache,
  Baseline,
  WireTarget,
  OverloadGates,
  FaultsBeforeWindow,
  Cluster,
  PartitionedRacks,
};

std::string shape_name(Shape s) {
  switch (s) {
    case Shape::Original: return "testbed_original";
    case Shape::NCache: return "testbed_ncache";
    case Shape::Baseline: return "testbed_baseline";
    case Shape::WireTarget: return "wire_target";
    case Shape::OverloadGates: return "overload_gates";
    case Shape::FaultsBeforeWindow: return "faults_before_window";
    case Shape::Cluster: return "cluster_2x2";
    case Shape::PartitionedRacks: return "partitioned_racks_2x1";
  }
  return "?";
}

void PrintTo(Shape s, std::ostream* os) { *os << shape_name(s); }

class MetricsWindow : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    const Shape shape = GetParam();
    switch (shape) {
      case Shape::Original:
      case Shape::NCache:
      case Shape::Baseline:
      case Shape::WireTarget:
      case Shape::FaultsBeforeWindow: {
        testbed::TestbedConfig cfg;
        cfg.volume_blocks = 8 * 1024;
        cfg.mode = shape == Shape::Original || shape == Shape::WireTarget
                       ? core::PassMode::Original
                   : shape == Shape::Baseline ? core::PassMode::Baseline
                                              : core::PassMode::NCache;
        cfg.wire_format_target = shape == Shape::WireTarget;
        tb_ = std::make_unique<testbed::Testbed>(cfg);
        break;
      }
      case Shape::OverloadGates:
      case Shape::Cluster:
      case Shape::PartitionedRacks: {
        topo::WorldConfig cfg;
        cfg.volume_blocks = 8 * 1024;
        cfg.mode = shape == Shape::Cluster ? core::PassMode::Original
                                           : core::PassMode::NCache;
        if (shape == Shape::OverloadGates) {
          cfg.overload.server_queue = true;
          cfg.overload.admission = true;
          cfg.overload.qdepth_feedback = true;
          cfg.overload.retry_budget = true;
          cfg.overload.ncache_ladder = core::kBrownoutLadder;
        }
        if (shape == Shape::PartitionedRacks) {
          cfg.partitioned = true;
          cfg.peer_without_balancer = true;
        }
        world_ = std::make_unique<topo::World>(
            shape == Shape::PartitionedRacks
                ? topo::presets::cluster_racks(2, 1)
                : topo::presets::cluster(2, 2),
            cfg);
        break;
      }
    }
    auto files = std::make_shared<workload::FileSet>();
    files->add(world().image(), "sfs", 8, 64 * 1024);
    files_ = files;
    world().start_nfs();
    if (shape == Shape::FaultsBeforeWindow) {
      // Loss on one client's cable (half its frames, whatever the channel
      // state) and a flap of the other's, both over long before the
      // window opens.
      sim::Time t0 = now();
      fault::FaultPlan plan;
      plan.duplex_burst_loss(world().cable("client0"),
                             t0 + sim::kMillisecond, 10 * sim::kMillisecond,
                             {.drop_good = 0.5});
      plan.duplex_down(world().cable("client1"), t0 + 2 * sim::kMillisecond,
                       5 * sim::kMillisecond);
      plan.apply(world().faults());
    }
  }

  topo::World& world() { return tb_ ? tb_->world() : *world_; }

  sim::Time now() {
    return world().partitioned() ? world().engine().now()
                                 : world().loop().now();
  }

  void run_until(sim::Time t) {
    if (world().partitioned()) {
      world().engine().run_until(t);
    } else {
      world().loop().run_until(t);
    }
  }

  /// Advances to a quiescent instant: no event due within a millisecond on
  /// any loop and every CPU idle, so no frame or request is in flight.
  void settle() {
    std::vector<sim::EventLoop*> loops;
    if (world().partitioned()) {
      for (unsigned d = 0; d < world().engine().domain_count(); ++d) {
        loops.push_back(&world().engine().domain_loop(d));
      }
    } else {
      loops.push_back(&world().loop());
    }
    for (int step = 0; step < 1'000'000; ++step) {
      const sim::Time t = now();
      bool quiet = true;
      for (sim::EventLoop* l : loops) {
        quiet = quiet && l->next_event_time() >= t + sim::kMillisecond;
      }
      for (const topo::NodeSpec& n : world().topology().nodes) {
        if (n.kind == topo::NodeKind::Switch) continue;
        quiet = quiet && world().node(n.id).cpu.free_at() <= t;
      }
      if (quiet) return;
      run_until(t + 10 * sim::kMicrosecond);
    }
    FAIL() << "the world never went quiet";
  }

  /// Runs a SPECsfs-style read/write/metadata mix from every client for
  /// `d`, then stops the clients and lets their last calls finish.
  /// Returns the ops completed.
  std::uint64_t run_mix(sim::Duration d, std::uint32_t seed) {
    workload::SpecSfsConfig mix;
    mix.data_op_fraction = 0.7;
    mix.read_fraction = 0.7;
    mix.seed = seed;
    workload::StopFlag stop;
    workload::Stream stream;
    for (int c = 0; c < world().client_count(); ++c) {
      sim::EventLoop& loop =
          world().partitioned()
              ? world().engine().domain_loop(
                    world().domain_of("client" + std::to_string(c)))
              : world().loop();
      workload::specsfs_worker(world().nfs_client(c), files_, mix,
                               std::uint32_t(c), &stop, &stream)
          .detach(loop.reaper());
    }
    if (world().partitioned()) {
      workload::run_measurement(world().engine(), stop, d);
    } else {
      workload::run_measurement(world().loop(), stop, d);
    }
    return stream.ops;
  }

  std::unique_ptr<testbed::Testbed> tb_;
  std::unique_ptr<topo::World> world_;
  std::shared_ptr<const workload::FileSet> files_;
};

TEST_P(MetricsWindow, ResetStatsZeroesTheWindow) {
  // Warm-up traffic (and, for one shape, a fault plan firing), drained to
  // a quiescent point.
  ASSERT_GT(run_mix(20 * sim::kMillisecond, /*seed=*/1), 0u);
  settle();
  if (GetParam() == Shape::FaultsBeforeWindow) {
    ASSERT_GT(world().faults().stats().frames_dropped, 0u) << "no loss";
  }
  world().reset_stats();

  // Every simulation counter, byte total and histogram starts the window
  // at zero.
  const auto& metrics = world().metrics().metrics();
  const auto fresh = world().metrics().sample();
  std::string nonzero;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    if (metrics[i].host || fresh[i].kind == MetricKind::Gauge) continue;
    if (fresh[i].u64 != 0) {
      nonzero += "\n  " + fresh[i].node + "/" + fresh[i].name + " = " +
                 std::to_string(fresh[i].u64);
    }
  }
  EXPECT_TRUE(nonzero.empty()) << "counters outside the window:" << nonzero;

  // The window opens and closes at quiescent points, so whatever it counts
  // at one end of a request or a frame, it counts at the other.
  ASSERT_GT(run_mix(40 * sim::kMillisecond, /*seed=*/2), 0u);
  settle();
  std::uint64_t calls = 0, requests = 0, tx = 0, rx = 0, wire_drops = 0;
  std::map<std::string, std::uint64_t> udp_sent, node_tx;
  for (const auto& s : world().metrics().sample()) {
    const bool nic = s.name.starts_with("nic");
    if (s.name == "nfs_client.calls") calls += s.u64;
    if (s.name == "nfs.requests") requests += s.u64;
    if (s.name == "fault.frames_dropped") wire_drops += s.u64;
    if (s.name == "udp.datagrams_sent") udp_sent[s.node] += s.u64;
    if (nic && s.name.ends_with(".tx.frames")) {
      tx += s.u64;
      node_tx[s.node] += s.u64;
    }
    if (nic && s.name.ends_with(".rx.frames")) rx += s.u64;
  }
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(calls, requests) << "client calls vs server requests";
  for (const auto& [node, sent] : udp_sent) {
    EXPECT_LE(sent, node_tx[node]) << node << ": UDP datagrams vs NIC frames";
  }
  EXPECT_EQ(tx, rx + wire_drops) << "frames sent vs received + lost";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MetricsWindow,
    ::testing::Values(Shape::Original, Shape::NCache, Shape::Baseline,
                      Shape::WireTarget, Shape::OverloadGates,
                      Shape::FaultsBeforeWindow, Shape::Cluster,
                      Shape::PartitionedRacks),
    [](const auto& info) { return shape_name(info.param); });

}  // namespace
}  // namespace ncache
