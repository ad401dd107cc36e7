// Partitioned-engine scale-out: the N-rack partitioned world (one
// event-loop domain per switch) driven by sim::ParallelEngine, plus one
// SMP row.
//
// Shape: presets::cluster_racks — a core switch + iSCSI target, N racks
// each holding one NCache server and its clients, servers peering
// directly (no balancer). Each rack switch and the core are separate
// engine domains, advanced in conservative trunk-latency windows.
//
// The deterministic fields (per-client stream digest, op count, final
// simulated clock, round count) pin the partitioned schedule; the
// per-row "wall" block carries the simulator's cost, ops/s of wall clock
// (tools/perf_compare.py gates it against a committed baseline).
//
// The second row turns on the SMP server model (cores=4 per server): RSS
// flow steering spreads client flows across cores and cross-core NCache
// key ownership shows up as accounted handoffs — both deterministic, both
// in the row.
#include <chrono>
#include <cinttypes>

#include "bench/bench_util.h"
#include "common/zipf.h"
#include "sim/cpu_model.h"
#include "topo/instantiator.h"
#include "topo/presets.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using nfs::Status;
using workload::StopFlag;

constexpr std::uint32_t kChunk = 32768;
constexpr int kFileCount = 32;
constexpr std::uint64_t kFileBytes = 64 * 1024;

struct Sizes {
  int racks;
  int clients_per_rack;
  sim::Duration window;
  unsigned smp_cores;  ///< cores= for the SMP row
};

Sizes sizes(const BenchOptions& opts) {
  return opts.smoke ? Sizes{4, 1, 60 * sim::kMillisecond, 4}
                    : Sizes{8, 2, 400 * sim::kMillisecond, 4};
}

/// Closed-loop Zipf reader folding payload bytes into an order-sensitive
/// FNV stream hash, one counter slot per client.
Task<void> zipf_worker(nfs::NfsClient* cl, int client,
                       const std::vector<std::uint64_t>* files,
                       const ZipfSampler* zipf, StopFlag* stop,
                       std::uint64_t* stream_hash, std::uint64_t* ops) {
  ++stop->live_workers;
  Pcg32 rng(/*seed=*/2026, 0x5ca1e000u + std::uint64_t(client));
  while (!stop->stopped) {
    std::uint64_t fh = (*files)[zipf->sample(rng)];
    std::uint64_t off =
        std::uint64_t(kChunk) * rng.below(std::uint32_t(kFileBytes / kChunk));
    auto r = co_await cl->read(std::uint32_t(fh), off, kChunk);
    if (r.status == Status::Ok) {
      for (std::byte b : r.data.to_bytes()) {
        *stream_hash = (*stream_hash ^ std::uint64_t(b)) * 0x100000001b3ull;
      }
      ++*ops;
    }
  }
  --stop->live_workers;
}

struct RunResult {
  std::uint64_t ops = 0;
  std::uint64_t digest = 0;  ///< FNV over the per-client stream hashes
  sim::Time end_time = 0;
  std::uint64_t rounds = 0;
  double wall_ms = 0;
  // SMP accounting (zero when cores == 1).
  std::uint64_t handoffs = 0;
  std::uint64_t steals = 0;
  int cores_used = 0;
};

RunResult run_world(const Sizes& sz, unsigned cores) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.server_cores = cores;
  cfg.peer_without_balancer = true;
  topo::World world(
      topo::presets::cluster_racks(sz.racks, sz.clients_per_rack), cfg);

  std::vector<std::uint64_t> files;
  for (int i = 0; i < kFileCount; ++i) {
    files.push_back(world.image().add_file("z" + std::to_string(i),
                                           kFileBytes));
  }
  world.start_nfs();

  const int n = world.client_count();
  ZipfSampler zipf(kFileCount, 0.98);
  std::vector<std::uint64_t> hashes(std::size_t(n), 0xcbf29ce484222325ull);
  std::vector<std::uint64_t> ops(std::size_t(n), 0);
  StopFlag stop;
  for (int c = 0; c < n; ++c) {
    unsigned d = world.domain_of("client" + std::to_string(c));
    zipf_worker(&world.nfs_client(c), c, &files, &zipf, &stop,
                &hashes[std::size_t(c)], &ops[std::size_t(c)])
        .detach(world.engine().domain_loop(d).reaper());
  }

  auto wall0 = std::chrono::steady_clock::now();
  workload::run_measurement(world.engine(), stop, sz.window);
  auto wall1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(wall1 - wall0).count();
  for (std::uint64_t o : ops) r.ops += o;
  r.digest = 0xcbf29ce484222325ull;
  for (std::uint64_t h : hashes) {
    for (int i = 0; i < 8; ++i) {
      r.digest = (r.digest ^ ((h >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  r.end_time = world.engine().now();
  r.rounds = world.engine().rounds();
  for (int s = 0; s < world.server_count(); ++s) {
    sim::CpuModel& cpu = world.server(s).node->stack.cpu();
    r.steals += cpu.steals();
    for (unsigned c = 0; c < cpu.cores(); ++c) {
      if (cpu.core_items(c) > 0) ++r.cores_used;
    }
    r.handoffs += world.server(s).ncache->stats().cross_core_handoffs;
  }
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

int run(const BenchOptions& opts) {
  const Sizes sz = sizes(opts);
  BenchReport report(opts, "scaleout_parallel",
                     "partitioned rack world: every field but wall is a "
                     "pure function of the seed");
  print_header(
      "Partitioned-engine scale-out: " + std::to_string(sz.racks) +
          " racks x " + std::to_string(sz.clients_per_rack) + " clients",
      "same seed, same digests; SMP servers spread flows across cores");
  print_row_header({"case", "ops", "wall_ms", "ops/s"});

  const std::string racks = "racks" + std::to_string(sz.racks);
  RunResult r = run_world(sz, /*cores=*/1);
  double ops_per_sec = r.wall_ms > 0 ? r.ops * 1e3 / r.wall_ms : 0;
  std::printf("%14s%14" PRIu64 "%14.1f%14.0f\n", racks.c_str(), r.ops,
              r.wall_ms, ops_per_sec);
  {
    json::Value row = json::Value::object();
    row.set("case", racks);
    row.set("racks", std::int64_t(sz.racks));
    row.set("clients", std::int64_t(sz.racks * sz.clients_per_rack));
    row.set("ops", std::int64_t(r.ops));
    row.set("stream_digest", hex64(r.digest));
    row.set("end_time_ns", std::int64_t(r.end_time));
    row.set("engine_rounds", std::int64_t(r.rounds));
    json::Value wall = json::Value::object();
    wall.set("wall_ms", r.wall_ms);
    wall.set("ops_per_sec", ops_per_sec);
    row.set("wall", std::move(wall));
    report.add_row(std::move(row));
  }
  report.shape().set("racks", std::int64_t(sz.racks));
  report.shape().set("total_ops", std::int64_t(r.ops));

  // SMP row: same world, 4-core servers. RSS spreads the per-rack client
  // flows across cores; key ownership is steered by the cache-key hash,
  // so some egress substitutions must cross cores.
  {
    RunResult r = run_world(sz, sz.smp_cores);
    double ops_per_sec = r.wall_ms > 0 ? r.ops * 1e3 / r.wall_ms : 0;
    std::string name = racks + "_smp" + std::to_string(sz.smp_cores);
    std::printf("%14s%14" PRIu64 "%14.1f%14.0f\n", name.c_str(), r.ops,
                r.wall_ms, ops_per_sec);
    std::printf("  SMP: %d core-slots used across %d servers, %" PRIu64
                " cross-core handoffs, %" PRIu64 " steals\n",
                r.cores_used, sz.racks, r.handoffs, r.steals);

    json::Value row = json::Value::object();
    row.set("case", name);
    row.set("server_cores", std::int64_t(sz.smp_cores));
    row.set("ops", std::int64_t(r.ops));
    row.set("stream_digest", hex64(r.digest));
    row.set("end_time_ns", std::int64_t(r.end_time));
    row.set("cores_used", std::int64_t(r.cores_used));
    row.set("cross_core_handoffs", std::int64_t(r.handoffs));
    row.set("steals", std::int64_t(r.steals));
    json::Value wall = json::Value::object();
    wall.set("wall_ms", r.wall_ms);
    wall.set("ops_per_sec", ops_per_sec);
    row.set("wall", std::move(wall));
    report.add_row(std::move(row));

    report.shape().set("smp_cores", std::int64_t(sz.smp_cores));
    report.shape().set("smp_cores_used", std::int64_t(r.cores_used));
    report.shape().set("smp_cross_core_handoffs", std::int64_t(r.handoffs));
  }

  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  ncache::bench::quiet_logs();
  auto opts = ncache::bench::BenchOptions::parse(argc, argv);
  return ncache::bench::run(opts);
}
