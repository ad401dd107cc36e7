// Chaos/recovery bench — scripted fault scenarios through the 4-node
// testbed, reporting how fast the system returns to useful work.
//
// Five scenarios, one row each:
//   * burst_loss_server_hop — Gilbert–Elliott loss on the server cable
//     mid-transfer; NFS retransmission absorbs it.
//   * link_flap_client      — 300 ms cable pull on the client hop.
//   * server_crash          — power-fail the app server mid-transfer,
//     restart 300 ms later; iSCSI re-login + NFS retransmission converge.
//   * disk_transient_error  — latent sector error on the data region;
//     CHECK CONDITION + initiator reread heal it.
//   * ncache_degrade        — pool pressure trips the physical-copy
//     fallback; quiet period recovers it (dwell time reported).
//
// Every scenario byte-verifies the full transfer against the fault-free
// content generator, so "chunk_errors" doubles as the convergence check.
// Rows carry a goodput-under-fault timeline ("goodput_mb_s" buckets over
// sim time), the recovery latency from fault onset to the next verified
// chunk, and the relevant retry/relogin/replay counters. All numbers
// derive from simulated time: two same-seed runs are byte-identical
// after the "wall" block is stripped.
#include "bench/bench_util.h"
#include "fault/fault_injector.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::GilbertElliott;
using testbed::Testbed;
using testbed::TestbedConfig;

constexpr std::uint32_t kChunk = 32768;

/// Per-chunk completion trace of a sequential byte-verified read.
struct Trace {
  std::vector<sim::Time> done_at;  ///< completion instant of each chunk
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;  ///< non-Ok status or content mismatch
};

Task<void> read_span(Testbed& tb, std::uint32_t ino, std::uint64_t begin,
                     std::uint64_t end, bool verify, Trace& trace) {
  auto& client = tb.nfs_client(0);
  for (std::uint64_t off = begin; off < end; off += kChunk) {
    auto r = co_await client.read(ino, off, kChunk);
    bool ok = r.status == nfs::Status::Ok;
    if (ok && verify) {
      ok = fs::verify_content(ino, off, r.data.to_bytes()) == std::size_t(-1);
    }
    if (!ok) {
      ++trace.errors;
      continue;
    }
    trace.bytes += kChunk;
    trace.done_at.push_back(tb.loop().now());
  }
}

/// First chunk completion strictly after `fault_at`, as latency from it
/// (strict: the chunk whose completion *triggered* a synchronous fault
/// carries the same timestamp and must not count as recovery).
double recovery_latency_ms(const Trace& t, sim::Time fault_at) {
  for (sim::Time d : t.done_at) {
    if (d > fault_at) return double(d - fault_at) / 1e6;
  }
  return -1.0;  // never recovered — chunk_errors will flag it too
}

/// Buckets the trace into a goodput timeline over [0, last completion].
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

/// The common row skeleton every scenario fills in.
json::Value base_row(const std::string& name, PassMode mode, const Trace& t,
                     sim::Time fault_at, sim::Duration bucket) {
  auto row = json::Value::object();
  row.set("scenario", name);
  row.set("mode", core::to_string(mode));
  row.set("bytes_verified", t.bytes);
  row.set("chunk_errors", t.errors);
  row.set("elapsed_ms",
          t.done_at.empty() ? 0.0 : double(t.done_at.back()) / 1e6);
  row.set("goodput_mb_s",
          t.done_at.empty()
              ? 0.0
              : double(t.bytes) / 1e6 / (double(t.done_at.back()) / 1e9));
  row.set("recovery_latency_ms", recovery_latency_ms(t, fault_at));
  row.set("timeline", goodput_timeline(t, bucket));
  return row;
}

struct Sizes {
  std::uint64_t file_bytes;
  sim::Duration bucket;
};

Sizes sizes(const BenchOptions& opts) {
  return opts.smoke ? Sizes{256 * 1024, 50 * sim::kMillisecond}
                    : Sizes{1024 * 1024, 100 * sim::kMillisecond};
}

json::Value run_burst_loss(const BenchOptions& opts) {
  auto [file_bytes, bucket] = sizes(opts);
  TestbedConfig cfg = single_server_config(PassMode::NCache);
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("chaos.bin", file_bytes);
  tb.start_nfs();

  auto& cable = tb.ether_switch().cable_of(tb.server_node().stack.nic(0));
  FaultInjector inj(tb.loop(), /*seed=*/42);
  GilbertElliott::Params ge;
  // The server hop carries multi-fragment UDP replies where one lost
  // fragment loses the datagram; rare bursts keep convergence bounded.
  ge.p_good_bad = 0.002;
  const sim::Time fault_at = tb.loop().now() + sim::kMillisecond;
  FaultPlan plan;
  plan.duplex_burst_loss(cable, fault_at, 2 * sim::kSecond, ge);
  plan.apply(inj);

  Trace t;
  sim::sync_wait(tb.loop(), read_span(tb, ino, 0, file_bytes, true, t));

  auto row = base_row("burst_loss_server_hop", cfg.mode, t, fault_at, bucket);
  auto c = json::Value::object();
  c.set("frames_dropped", inj.stats().frames_dropped);
  c.set("burst_windows", inj.stats().burst_windows);
  c.set("nfs_retransmits", tb.nfs_client(0).stats().retransmits);
  row.set("counters", std::move(c));
  return row;
}

json::Value run_link_flap(const BenchOptions& opts) {
  auto [file_bytes, bucket] = sizes(opts);
  TestbedConfig cfg = single_server_config(PassMode::NCache);
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("chaos.bin", file_bytes);
  tb.start_nfs();

  auto& cable = tb.ether_switch().cable_of(tb.client_node(0).stack.nic(0));
  FaultInjector inj(tb.loop(), 7);
  const sim::Time down_at = tb.loop().now() + sim::kMillisecond;
  const sim::Duration flap = 300 * sim::kMillisecond;
  FaultPlan plan;
  plan.duplex_down(cable, down_at, flap);
  plan.apply(inj);

  Trace t;
  sim::sync_wait(tb.loop(), read_span(tb, ino, 0, file_bytes, true, t));

  auto row = base_row("link_flap_client", cfg.mode, t, down_at, bucket);
  // Latency from repair (cable back up) to the next delivered chunk —
  // the client's RTO backoff, not the outage itself.
  row.set("repair_to_goodput_ms", recovery_latency_ms(t, down_at + flap));
  auto c = json::Value::object();
  c.set("link_downs", inj.stats().link_downs);
  c.set("link_ups", inj.stats().link_ups);
  c.set("frames_dropped_down",
        cable.a_to_b.dropped_down() + cable.b_to_a.dropped_down());
  c.set("nfs_retransmits", tb.nfs_client(0).stats().retransmits);
  c.set("nfs_timeouts", tb.nfs_client(0).stats().timeouts);
  row.set("counters", std::move(c));
  return row;
}

json::Value run_server_crash(const BenchOptions& opts) {
  auto [file_bytes, bucket] = sizes(opts);
  TestbedConfig cfg = single_server_config(PassMode::NCache);
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("chaos.bin", file_bytes);
  tb.start_nfs();

  FaultInjector inj(tb.loop(), 3);
  Trace t;
  sim::Time crash_at = 0;
  auto drive = [&]() -> Task<void> {
    co_await read_span(tb, ino, 0, file_bytes / 2, true, t);
    crash_at = tb.loop().now();
    tb.crash_server();
    inj.at(crash_at + 300 * sim::kMillisecond, [&tb] { tb.restart_server(); });
    co_await read_span(tb, ino, file_bytes / 2, file_bytes, true, t);
  };
  sim::sync_wait(tb.loop(), drive());

  auto row = base_row("server_crash", cfg.mode, t, crash_at, bucket);
  row.set("restart_delay_ms", 300.0);
  auto c = json::Value::object();
  const auto& ist = tb.initiator().stats();
  c.set("session_drops", ist.session_drops);
  c.set("relogins", ist.relogins);
  c.set("replays", ist.replays);
  c.set("nfs_retransmits", tb.nfs_client(0).stats().retransmits);
  row.set("counters", std::move(c));
  return row;
}

json::Value run_disk_fault(const BenchOptions& opts) {
  auto [file_bytes, bucket] = sizes(opts);
  TestbedConfig cfg = single_server_config(PassMode::Original);
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("chaos.bin", file_bytes);
  tb.start_nfs();

  // One-shot medium error across the start of the data region: the first
  // overlapping read reports CHECK CONDITION, the initiator rereads.
  tb.store().inject_read_fault(tb.fs().superblock().data_start, 64,
                               blockdev::DiskFaultKind::LatentSectorError);

  Trace t;
  sim::sync_wait(tb.loop(), read_span(tb, ino, 0, file_bytes, true, t));

  auto row = base_row("disk_transient_error", cfg.mode, t, 0, bucket);
  auto c = json::Value::object();
  c.set("disk_read_errors", tb.store().read_errors());
  c.set("iscsi_io_retries", tb.initiator().stats().io_retries);
  c.set("iscsi_errors", tb.initiator().stats().errors);
  row.set("counters", std::move(c));
  return row;
}

json::Value run_ncache_degrade(const BenchOptions& opts) {
  auto [file_bytes, bucket] = sizes(opts);
  TestbedConfig cfg = single_server_config(PassMode::NCache);
  // Pool smaller than one block: every ingest insert fails, so pressure
  // is exact and the trip point deterministic.
  cfg.ncache_budget_bytes = 2048;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("chaos.bin", file_bytes);
  tb.start_nfs();
  auto& dc = tb.ncache()->ladder_config();
  dc.physical_copy_at = 4;

  Trace t;
  sim::Time tripped_at = 0;
  auto drive = [&]() -> Task<void> {
    // First read trips degradation; its payload may carry pre-trip junk
    // markers, so flush the fs cache and count verified bytes from the
    // degraded (physical-copy) path only.
    Trace trip;
    co_await read_span(tb, ino, 0, kChunk, false, trip);
    tripped_at = tb.loop().now();
    co_await tb.fs().cache().drop_all();
    co_await read_span(tb, ino, 0, file_bytes / 2, true, t);
    // Quiet period past dwell + hysteresis, then fresh-offset touches to
    // run the lazy recovery check. Touch chunks stay unverified: the one
    // that recovers immediately re-pressures the tiny pool and re-trips
    // degradation mid-payload (junk markers). Once the exit has been
    // observed, flush the fs cache and verify the rest through the
    // physical-copy path.
    co_await sim::sleep_for(tb.loop(), dc.min_dwell + dc.quiet_period +
                                           50 * sim::kMillisecond);
    Trace touch;
    std::uint64_t off = file_bytes / 2;
    while (tb.ncache()->stats().degrade_exits == 0 && off < file_bytes) {
      co_await read_span(tb, ino, off, off + kChunk, false, touch);
      off += kChunk;
    }
    co_await tb.fs().cache().drop_all();
    co_await read_span(tb, ino, off, file_bytes, true, t);
  };
  sim::sync_wait(tb.loop(), drive());

  auto row = base_row("ncache_degrade", cfg.mode, t, tripped_at, bucket);
  const auto& st = tb.ncache()->stats();
  row.set("degraded_dwell_ms", double(tb.ncache()->degraded_ns()) / 1e6);
  auto c = json::Value::object();
  c.set("degrade_entries", st.degrade_entries);
  c.set("degrade_exits", st.degrade_exits);
  c.set("degraded_ingest_bypass", st.degraded_ingest_bypass);
  c.set("degraded_now", tb.ncache()->degraded());
  row.set("counters", std::move(c));
  return row;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) {
  using namespace ncache::bench;
  using ncache::json::Value;
  auto opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  print_header(
      "Chaos recovery: scripted faults through the 4-node testbed",
      "every scenario converges byte-identical to fault-free; recovery "
      "latency bounded by the protocol timers (NFS RTO, iSCSI re-login "
      "backoff, degrade hysteresis)");
  print_row_header({"scenario", "goodput", "recov_ms", "errors"});

  BenchReport report(opts, "chaos_recovery",
                     "byte-identical convergence under faults; recovery "
                     "latency bounded by protocol timers");

  Value rows[] = {run_burst_loss(opts), run_link_flap(opts),
                  run_server_crash(opts), run_disk_fault(opts),
                  run_ncache_degrade(opts)};
  std::uint64_t chunk_errors = 0;
  double max_recovery = 0;
  double dwell_ms = 0;
  for (auto& row : rows) {
    std::printf("%14s%14.1f%14.1f%14llu\n",
                row.find("scenario")->as_string().c_str(),
                row.find("goodput_mb_s")->as_double(),
                row.find("recovery_latency_ms")->as_double(),
                (unsigned long long)row.find("chunk_errors")->as_int());
    chunk_errors += std::uint64_t(row.find("chunk_errors")->as_int());
    max_recovery =
        std::max(max_recovery, row.find("recovery_latency_ms")->as_double());
    if (const Value* d = row.find("degraded_dwell_ms")) {
      dwell_ms = d->as_double();
    }
    report.add_row(std::move(row));
  }

  auto& shape = report.shape();
  shape.set("scenarios", std::int64_t(std::size(rows)));
  shape.set("chunk_errors_total", chunk_errors);
  shape.set("max_recovery_latency_ms", max_recovery);
  shape.set("degraded_dwell_ms", dwell_ms);
  return (report.write() && chunk_errors == 0) ? 0 : 1;
}
