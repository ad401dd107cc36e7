// Scale-out curve: M clients x 1 consistent-hash balancer x N pass-through
// replicas x 1 iSCSI target (src/cluster), swept over N.
//
// Two workload families, one row per (workload, N):
//   * zipf_web — closed-loop Zipf-popular 32 KB reads (SPECweb99-style
//     skew) under flow-hash routing: the popular set is shared across
//     replicas, so cooperative peering converts repeat target reads into
//     one-hop peer fetches.
//   * specsfs  — the §5.3 SPECsfs op mix under content-hash (file-affine)
//     routing: writes serialize per file on one replica and the write
//     observer broadcasts invalidations.
// Plus one rebalance row: a replica is power-failed mid-run; the row
// reports the heartbeat-detection latency (crash to ring rebuild) and
// byte-verifies the post-crash stream (chunk_errors is the convergence
// check).
//
// Aggregate goodput, the local/peer/target read split, and the peer-hit
// fraction come straight from the per-replica PeerBlockClient counters.
// Everything except "wall" derives from simulated time: two same-seed
// runs are byte-identical after the wall block is stripped.
#include "bench/bench_util.h"
#include "cluster/cluster_testbed.h"
#include "common/zipf.h"

namespace ncache::bench {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterTestbed;
using cluster::HashRing;
using cluster::Routing;
using core::PassMode;
using workload::FileSet;
using workload::OpClass;
using workload::StopFlag;
using workload::Stream;

constexpr std::uint32_t kChunk = 32768;

struct Sizes {
  int file_count;
  std::uint64_t file_bytes;
  sim::Duration window;
  std::vector<int> sweep;  ///< replica counts
  int rebalance_n;
};

Sizes sizes(const BenchOptions& opts) {
  return opts.smoke
             ? Sizes{32, 64 * 1024, 150 * sim::kMillisecond, {1, 2}, 2}
             : Sizes{64, 64 * 1024, 800 * sim::kMillisecond, {1, 2, 4, 8}, 4};
}

std::unique_ptr<ClusterTestbed> make_cluster(int servers, Routing routing,
                                             const Sizes& sz,
                                             FileSet* files) {
  auto tb = std::make_unique<ClusterTestbed>(
      cluster_config(PassMode::NCache, servers, 2 * servers, routing));
  files->add(tb->image(), "z", sz.file_count, sz.file_bytes);
  return tb;
}

/// Shared row skeleton: aggregate goodput plus the cluster-wide read
/// split and peering counters.
json::Value cluster_row(const std::string& workload, ClusterTestbed& tb,
                        const Stream& agg, sim::Duration window) {
  std::uint64_t local = 0, peer = 0, target = 0, fetches = 0, pushes = 0;
  std::uint64_t invalidates = 0;
  for (int i = 0; i < tb.server_count(); ++i) {
    const auto& ps = tb.peers(i).stats();
    fetches += ps.fetches_sent;
    pushes += ps.pushes;
    invalidates += ps.invalidates_sent;
  }
  for (int i = 0; i < tb.server_count(); ++i) {
    local += tb.metrics().counter_value("server" + std::to_string(i),
                                        "peer.reads_local");
    peer += tb.metrics().counter_value("server" + std::to_string(i),
                                       "peer.reads_peer");
    target += tb.metrics().counter_value("server" + std::to_string(i),
                                         "peer.reads_target");
  }
  std::uint64_t split_total = local + peer + target;

  auto row = json::Value::object();
  row.set("workload", workload);
  row.set("servers", std::int64_t(tb.server_count()));
  row.set("clients", std::int64_t(tb.client_count()));
  row.set("ops", agg.ops);
  row.set("errors", agg.errors);
  row.set("goodput_mb_s", agg.mb_per_sec(window));
  const LatencyHistogram& reads = agg.latency(OpClass::Read);
  row.set("latency_p50_us", double(reads.quantile_ns(0.5)) / 1e3);
  row.set("latency_p99_us", double(reads.quantile_ns(0.99)) / 1e3);
  row.set("reads_local", local);
  row.set("reads_peer", peer);
  row.set("reads_target", target);
  row.set("peer_hit_fraction",
          split_total ? double(peer) / double(split_total) : 0.0);
  row.set("target_reads_total", tb.total_target_reads());
  row.set("peer_fetches", fetches);
  row.set("peer_pushes", pushes);
  row.set("invalidates_sent", invalidates);
  row.set("lb_forwards", tb.lb().stats().forwards);
  return row;
}

json::Value run_zipf(int servers, const Sizes& sz) {
  auto files = std::make_shared<FileSet>();
  auto tb = make_cluster(servers, Routing::FlowHash, sz, files.get());
  tb->start_nfs();
  auto zipf = std::make_shared<const ZipfSampler>(files->entries.size(), 1.0);

  StopFlag stop;
  Stream agg;
  for (int c = 0; c < tb->client_count(); ++c) {
    Pcg32 rng(/*seed=*/2026, 0x5ca1e000u + std::uint64_t(c));
    workload::random_reader(tb->nfs_client(c), files, zipf, rng, kChunk,
                            &stop, &agg)
        .detach(tb->loop().reaper());
  }
  workload::run_measurement(tb->loop(), stop, sz.window);
  return cluster_row("zipf_web", *tb, agg, sz.window);
}

json::Value run_specsfs(int servers, const Sizes& sz) {
  auto files = std::make_shared<FileSet>();
  auto tb = make_cluster(servers, Routing::ContentHash, sz, files.get());
  tb->start_nfs();

  StopFlag stop;
  Stream agg;
  workload::SpecSfsConfig sc;
  for (int c = 0; c < tb->client_count(); ++c) {
    workload::specsfs_worker(tb->nfs_client(c), files, sc, std::uint32_t(c),
                             &stop, &agg)
        .detach(tb->loop().reaper());
  }
  workload::run_measurement(tb->loop(), stop, sz.window);
  return cluster_row("specsfs", *tb, agg, sz.window);
}

json::Value run_rebalance(const Sizes& sz) {
  ClusterTestbed tb(cluster_config(PassMode::NCache, sz.rebalance_n,
                                   /*clients=*/1, Routing::FlowHash));
  const std::uint64_t file_bytes = 8 * sz.file_bytes;
  std::uint32_t ino = tb.image().add_file("f.bin", file_bytes);
  tb.start_nfs();

  // Mirror the balancer's flow routing so the crash provably hits the
  // replica serving client 0.
  HashRing ring(64);
  for (int id = 0; id < sz.rebalance_n; ++id) {
    ring.add_member(std::uint32_t(id));
  }
  std::uint64_t flow_key =
      (std::uint64_t(tb.client_ip(0)) << 16) | std::uint16_t(700);
  int victim = int(ring.owner(HashRing::mix64(flow_key)));

  Stream stream;
  sim::Time crash_at = 0;
  auto drive = [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    co_await workload::read_file(client, ino, 0, file_bytes / 2, kChunk,
                                 &stream);
    crash_at = tb.loop().now();
    tb.crash_replica(victim);
    co_await workload::read_file(client, ino, file_bytes / 2, file_bytes,
                                 kChunk, &stream);
  };
  sim::sync_wait(tb.loop(), drive());
  std::uint64_t chunk_errors = stream.errors + stream.verify_failures;

  auto row = json::Value::object();
  row.set("workload", "rebalance");
  row.set("servers", std::int64_t(sz.rebalance_n));
  row.set("clients", std::int64_t(1));
  row.set("victim", std::int64_t(victim));
  row.set("chunk_errors", chunk_errors);
  row.set("rebalance_latency_ms",
          tb.lb().last_rebalance_at() > crash_at
              ? double(tb.lb().last_rebalance_at() - crash_at) / 1e6
              : -1.0);
  row.set("live_members", std::int64_t(tb.lb().live_count()));
  row.set("lb_rebalances", tb.lb().stats().rebalances);
  row.set("membership_broadcasts", tb.lb().stats().membership_broadcasts);
  row.set("nfs_retransmits", tb.nfs_client(0).stats().retransmits);
  return row;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::json::Value;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  auto sz = sizes(opts);
  print_header(
      "Scale-out: consistent-hash balancer + cooperative NCache peering",
      "aggregate goodput grows with N while peer hits displace repeat "
      "target reads; replica loss rebalances within a few heartbeats");
  print_row_header({"workload", "N", "goodput", "peer_frac", "tgt_reads"});

  BenchReport report(opts, "scaleout",
                     "goodput scales with replica count; peer fetches "
                     "absorb repeat target reads; rebalance latency is "
                     "heartbeat-bounded");

  std::vector<Value> rows;
  for (int n : sz.sweep) rows.push_back(run_zipf(n, sz));
  for (int n : sz.sweep) rows.push_back(run_specsfs(n, sz));
  rows.push_back(run_rebalance(sz));

  double goodput_n1 = 0, goodput_max = 0, peer_frac_max = 0;
  int max_n = 0;
  for (const Value& row : rows) {
    if (row.find("workload")->as_string() != "zipf_web") continue;
    int n = int(row.find("servers")->as_int());
    double g = row.find("goodput_mb_s")->as_double();
    if (n == 1) goodput_n1 = g;
    if (n > max_n) {
      max_n = n;
      goodput_max = g;
      peer_frac_max = row.find("peer_hit_fraction")->as_double();
    }
  }
  std::uint64_t chunk_errors = 0;
  double rebalance_ms = -1.0;
  for (auto& row : rows) {
    double frac = 0;
    if (const Value* f = row.find("peer_hit_fraction")) frac = f->as_double();
    std::uint64_t tgt = 0;
    if (const Value* t = row.find("target_reads_total")) {
      tgt = std::uint64_t(t->as_int());
    }
    std::printf("%14s%14lld%14.1f%14.3f%14llu\n",
                row.find("workload")->as_string().c_str(),
                (long long)row.find("servers")->as_int(),
                row.find("goodput_mb_s")
                    ? row.find("goodput_mb_s")->as_double()
                    : 0.0,
                frac, (unsigned long long)tgt);
    if (const Value* e = row.find("chunk_errors")) {
      chunk_errors += std::uint64_t(e->as_int());
    }
    if (const Value* r = row.find("rebalance_latency_ms")) {
      rebalance_ms = r->as_double();
    }
    report.add_row(std::move(row));
  }

  auto& shape = report.shape();
  shape.set("max_servers", std::int64_t(max_n));
  shape.set("zipf_goodput_n1_mb_s", goodput_n1);
  shape.set("zipf_goodput_max_mb_s", goodput_max);
  shape.set("zipf_scaling_x", goodput_n1 > 0 ? goodput_max / goodput_n1 : 0.0);
  shape.set("peer_hit_fraction", peer_frac_max);
  shape.set("rebalance_latency_ms", rebalance_ms);
  shape.set("chunk_errors_total", chunk_errors);
  return (report.write() && chunk_errors == 0) ? 0 : 1;
}
