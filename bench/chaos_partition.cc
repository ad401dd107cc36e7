// Chaos partition bench — deterministic network partitions over the
// balancer-less rack cluster (presets::cluster_racks), sweeping partition
// duration × rack count.
//
// Each cell isolates the last rack for the cell's duration while every
// rack's client keeps reading and the unpartitioned side writes. The row
// reports:
//   * a goodput timeline (chunk completions bucketed over sim time) —
//     the isolated rack's dip and recovery are visible in the curve;
//   * convergence latency from the heal instant until no replica holds an
//     un-acked reliable datagram and no repair is outstanding (the write's
//     INVALIDATE retransmits through the cut; anti-entropy runs on heal);
//   * repair traffic (digests exchanged, blocks dropped) and the reliable
//     retransmission counters;
//   * stale_reads — post-convergence, every byte of every file through
//     every client must match the written pattern or the image. The bench
//     exits nonzero on any stale read.
//
// All numbers derive from simulated time: two same-seed runs are
// byte-identical after the "wall" block is stripped.
#include "bench/bench_util.h"
#include "fault/fault_injector.h"
#include "topo/instantiator.h"
#include "topo/presets.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using nfs::Status;

constexpr std::uint32_t kChunk = 32768;
constexpr std::uint64_t kWriteBytes = 32768;

inline std::byte wbyte(std::uint64_t i) {
  return std::byte((0x5A + i * 97) & 0xff);
}

/// Chunk-completion trace (see chaos_recovery): goodput over sim time.
struct Trace {
  std::vector<sim::Time> done_at;
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;
};

json::Value goodput_timeline(const Trace& t, sim::Duration bucket) {
  auto timeline = json::Value::array();
  if (t.done_at.empty()) return timeline;
  sim::Time last = t.done_at.back();
  std::size_t i = 0;
  for (sim::Time start = 0; start <= last; start += bucket) {
    std::uint64_t bytes = 0;
    while (i < t.done_at.size() && t.done_at[i] < start + bucket) {
      bytes += kChunk;
      ++i;
    }
    auto point = json::Value::object();
    point.set("t_ms", double(start) / 1e6);
    point.set("goodput_mb_s", double(bytes) / 1e6 / (double(bucket) / 1e9));
    timeline.push_back(std::move(point));
  }
  return timeline;
}

/// Closed-loop sequential reader over one file, content-verified (the
/// file is never written, so any mismatch is an error, cut or no cut).
Task<void> reader_worker(topo::World* world, int client, std::uint32_t ino,
                         std::uint64_t file_bytes, workload::StopFlag* stop,
                         Trace* trace) {
  ++stop->live_workers;
  auto& cl = world->nfs_client(client);
  std::uint64_t off = 0;
  while (!stop->stopped) {
    auto r = co_await cl.read(ino, off, kChunk);
    bool ok = r.status == Status::Ok &&
              fs::verify_content(ino, off, r.data.to_bytes()) ==
                  std::size_t(-1);
    if (ok) {
      trace->bytes += kChunk;
      trace->done_at.push_back(world->loop().now());
    } else {
      ++trace->errors;
    }
    off = (off + kChunk) % file_bytes;
  }
  --stop->live_workers;
}

struct CellTotals {
  std::uint64_t stale_reads = 0;
  std::uint64_t chunk_errors = 0;
  std::uint64_t repair_traffic = 0;
  double max_convergence_ms = 0;
};

json::Value run_cell(int racks, sim::Duration cut, std::uint64_t file_bytes,
                     sim::Duration bucket, CellTotals& totals) {
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.peer_without_balancer = true;
  topo::World world(topo::presets::cluster_racks(racks, 1), cfg);
  std::uint32_t f0 = world.image().add_file("p0.bin", file_bytes);
  std::uint32_t f1 = world.image().add_file("p1.bin", file_bytes);
  world.start_nfs();

  const int last = world.server_count() - 1;
  Trace trace;
  workload::StopFlag stop;
  std::uint64_t stale_reads = 0;
  sim::Time heal_at = 0;
  sim::Time converged_at = 0;
  bool converged = false;

  auto all_quiet = [&world]() {
    for (int s = 0; s < world.server_count(); ++s) {
      auto& p = *world.server(s).peers;
      if (p.pending_reliable() != 0 || p.repairing()) return false;
    }
    return true;
  };

  auto drive = [&]() -> Task<void> {
    // Warm every rack server through its local client, both files.
    for (int c = 0; c < world.client_count(); ++c) {
      for (std::uint32_t f : {f0, f1}) {
        for (std::uint64_t off = 0; off < file_bytes; off += kChunk) {
          auto r = co_await world.nfs_client(c).read(f, off, kChunk);
          bool ok = r.status == Status::Ok &&
                    fs::verify_content(f, off, r.data.to_bytes()) ==
                        std::size_t(-1);
          if (ok) {
            trace.bytes += kChunk;
            trace.done_at.push_back(world.loop().now());
          } else {
            ++trace.errors;
          }
        }
      }
    }

    // Cut the last rack; at the heal instant the isolated replica runs
    // its anti-entropy pass (balancer-less worlds repair explicitly).
    sim::Time t0 = world.loop().now();
    heal_at = t0 + 2 * sim::kMillisecond + cut;
    auto part =
        world.make_partition({"rack" + std::to_string(racks - 1)});
    world.faults().partition(part, t0 + 2 * sim::kMillisecond, cut);
    world.faults().at(heal_at,
                      [&world, last] { world.server(last).peers->run_repair(); });

    // Background read pressure on the unwritten file from every rack.
    for (int c = 0; c < world.client_count(); ++c) {
      reader_worker(&world, c, f1, file_bytes, &stop, &trace)
          .detach(world.loop().reaper());
    }

    // Write f0's head through rack0 while the cut holds: the INVALIDATE
    // to the isolated replica can only drain by retransmission.
    co_await sim::sleep_for(world.loop(), 5 * sim::kMillisecond);
    std::vector<std::byte> pat(kWriteBytes);
    for (std::size_t i = 0; i < pat.size(); ++i) pat[i] = wbyte(i);
    auto st = co_await world.nfs_client(0).write(f0, 0, pat);
    if (st != Status::Ok) ++trace.errors;

    // Convergence: from the heal, poll until no replica has un-acked
    // reliable datagrams or outstanding repair digests.
    while (world.loop().now() < heal_at) {
      co_await sim::sleep_for(world.loop(), 5 * sim::kMillisecond);
    }
    sim::Time deadline = heal_at + 2 * sim::kSecond;
    while (world.loop().now() < deadline) {
      if (all_quiet()) {
        converged = true;
        converged_at = world.loop().now();
        break;
      }
      co_await sim::sleep_for(world.loop(), 2 * sim::kMillisecond);
    }

    stop.stopped = true;
    while (stop.live_workers > 0) {
      co_await sim::sleep_for(world.loop(), 1 * sim::kMillisecond);
    }

    // Post-convergence audit: every byte of every file through every
    // client. The written head must be the new pattern; everything else
    // the image. Any mismatch is a stale read.
    for (int c = 0; c < world.client_count(); ++c) {
      for (std::uint32_t f : {f0, f1}) {
        for (std::uint64_t off = 0; off < file_bytes; off += kChunk) {
          auto r = co_await world.nfs_client(c).read(f, off, kChunk);
          if (r.status != Status::Ok) {
            ++stale_reads;
            continue;
          }
          auto bytes = r.data.to_bytes();
          bool ok = bytes.size() == kChunk;
          for (std::size_t i = 0; ok && i < bytes.size(); ++i) {
            std::byte want = (f == f0 && off + i < kWriteBytes)
                                 ? wbyte(off + i)
                                 : fs::content_byte(f, off + i);
            ok = bytes[i] == want;
          }
          if (!ok) ++stale_reads;
        }
      }
    }
  };
  sim::sync_wait(world.loop(), drive());

  double convergence_ms =
      converged ? double(converged_at - heal_at) / 1e6 : -1.0;

  std::uint64_t retransmits = 0, acks = 0, digests_sent = 0,
                digests_answered = 0, repair_drops = 0, repair_rounds = 0,
                expired = 0;
  for (int s = 0; s < world.server_count(); ++s) {
    const auto& st = world.server(s).peers->stats();
    retransmits += st.retransmits;
    acks += st.invalidate_acks;
    digests_sent += st.digests_sent;
    digests_answered += st.digests_answered;
    repair_drops += st.repair_drops;
    repair_rounds += st.repair_rounds;
    expired += st.reliable_expired;
  }

  auto row = json::Value::object();
  row.set("racks", std::int64_t(racks));
  row.set("partition_ms", double(cut) / 1e6);
  row.set("bytes_verified", trace.bytes);
  row.set("chunk_errors", trace.errors);
  row.set("stale_reads", stale_reads);
  row.set("convergence_ms", convergence_ms);
  row.set("timeline", goodput_timeline(trace, bucket));
  auto c = json::Value::object();
  c.set("retransmits", retransmits);
  c.set("invalidate_acks", acks);
  c.set("digests_sent", digests_sent);
  c.set("digests_answered", digests_answered);
  c.set("repair_drops", repair_drops);
  c.set("repair_rounds", repair_rounds);
  c.set("reliable_expired", expired);
  c.set("partition_cuts", world.faults().stats().partition_cuts);
  row.set("counters", std::move(c));

  totals.stale_reads += stale_reads;
  totals.chunk_errors += trace.errors;
  totals.repair_traffic += digests_sent + digests_answered;
  totals.max_convergence_ms =
      std::max(totals.max_convergence_ms, convergence_ms);
  if (!converged) totals.stale_reads += 1;  // never converged: not clean
  return row;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::sim::kMillisecond;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  print_header(
      "Chaos partition: duration x rack-count sweep over cluster_racks",
      "partitioned-then-healed runs converge with zero stale reads; "
      "convergence bounded by the reliable-invalidate backoff cap plus one "
      "digest round trip");
  print_row_header({"racks", "cut_ms", "conv_ms", "stale", "errors"});

  BenchReport report(opts, "chaos_partition",
                     "zero stale reads after every heal; convergence "
                     "bounded by retransmission backoff + repair round");

  const std::uint64_t file_bytes = opts.smoke ? 128 * 1024 : 512 * 1024;
  const ncache::sim::Duration bucket =
      opts.smoke ? 25 * kMillisecond : 50 * kMillisecond;
  std::vector<int> rack_counts = opts.smoke ? std::vector<int>{2, 3}
                                            : std::vector<int>{2, 3, 4};
  std::vector<ncache::sim::Duration> cuts =
      opts.smoke
          ? std::vector<ncache::sim::Duration>{40 * kMillisecond,
                                               120 * kMillisecond}
          : std::vector<ncache::sim::Duration>{50 * kMillisecond,
                                               150 * kMillisecond,
                                               300 * kMillisecond};

  CellTotals totals;
  int cells = 0;
  for (int racks : rack_counts) {
    for (auto cut : cuts) {
      auto row = run_cell(racks, cut, file_bytes, bucket, totals);
      std::printf("%14lld%14.1f%14.2f%14llu%14llu\n",
                  (long long)row.find("racks")->as_int(),
                  row.find("partition_ms")->as_double(),
                  row.find("convergence_ms")->as_double(),
                  (unsigned long long)row.find("stale_reads")->as_int(),
                  (unsigned long long)row.find("chunk_errors")->as_int());
      report.add_row(std::move(row));
      ++cells;
    }
  }

  auto& shape = report.shape();
  shape.set("cells", std::int64_t(cells));
  shape.set("stale_reads_total", totals.stale_reads);
  shape.set("chunk_errors_total", totals.chunk_errors);
  shape.set("max_convergence_ms", totals.max_convergence_ms);
  shape.set("repair_traffic_total", totals.repair_traffic);
  return (report.write() && totals.stale_reads == 0 &&
          totals.chunk_errors == 0)
             ? 0
             : 1;
}
