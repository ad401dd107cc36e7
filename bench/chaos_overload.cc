// Metastable overload bench — a 10x flash crowd through the 4-node
// testbed, with the overload-control spine on vs off.
//
// Open-loop arrivals are what make overload metastable: the load curve
// keeps firing at its rate no matter how slow the server gets, and every
// request stuck past the client's RTO spawns retransmitted duplicates the
// server must also serve. Past the spike, the vulnerable system stays
// busy grinding through duplicate work while fresh arrivals queue behind
// it — goodput stays collapsed long after the trigger is gone (Bronson et
// al.'s metastable-failure shape). The shedding spine breaks the feedback
// loop: CoDel and the 128-entry bound drop the standing queue at the
// server, and the client retry budget caps the duplicate storm at ~10% of
// goodput. The brownout ladder is on too, but the run raises no pressure
// event (no pool insert failure, no substitution miss), so it stays at
// Normal and brownout_shed stays 0.
//
// Two rows, same seed, same curve:
//   * shedding_on  — bounded queue (128) + CoDel + brownout ladder + retry
//     budgets; goodput must recover to >= 90% of the pre-spike baseline
//     in the post window.
//   * shedding_off — every gate off (the always-on 8192 hard bound only);
//     the post-window goodput stays collapsed (< 50% of baseline).
//
// The exit code enforces both, so this bench is the regression gate for
// the recovery property itself. All numbers derive from simulated time;
// two same-seed runs are byte-identical after the "wall" block is
// stripped.
#include "bench/bench_util.h"
#include "workload/counters.h"
#include "workload/load_curve.h"

namespace ncache::bench {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

// Timeline (sim time). The spike hits a warmed steady state; the post
// window starts 1.4 s after the spike ends — a shedding system whose queue
// never exceeds 128 entries drains within a couple hundred ms, while the
// vulnerable one is still grinding a backlog dominated by retransmitted
// duplicates (the FIFO head only reaches the duplicate-heavy arrivals a
// few seconds after the spike, which is exactly the metastable signature:
// the trigger is long gone and goodput is still down).
constexpr sim::Duration kBucket = 50 * sim::kMillisecond;
constexpr sim::Time kPreStart = 200 * sim::kMillisecond;
constexpr sim::Time kPreEnd = 1200 * sim::kMillisecond;
constexpr sim::Time kSpikeAt = 1200 * sim::kMillisecond;
constexpr sim::Duration kSpikeLen = 1000 * sim::kMillisecond;
constexpr sim::Time kPostStart = 3600 * sim::kMillisecond;
constexpr sim::Time kPostEnd = 4800 * sim::kMillisecond;
constexpr double kSpikeMultiplier = 10.0;
// Baseline sits under the disk-paced service capacity (~160 ops/s at
// 32 KB over the 1 GB set) so the pre window is healthy and only the
// spike overloads: 100/s aggregate baseline, 1000/s during the spike.
// The 1 s spike stuffs ~850 excess requests into the vulnerable queue —
// a sojourn of many RTOs, so each op enqueues several retransmitted
// copies and most post-spike service capacity is wasted on duplicates.
constexpr double kBaseRatePerClient = 50.0;
constexpr std::uint32_t kRequestBytes = 32768;

/// Completed-ok ops per bucket, sampled from the workload streams.
Task<void> sample_goodput(sim::EventLoop& loop,
                          const std::vector<workload::Stream>* streams,
                          sim::Time until, std::vector<std::uint64_t>* out) {
  std::uint64_t prev = 0;
  while (loop.now() < until) {
    co_await sim::sleep_for(loop, kBucket);
    std::uint64_t total = 0;
    for (const auto& s : *streams) total += s.ops;
    out->push_back(total - prev);
    prev = total;
  }
}

double window_ops_per_sec(const std::vector<std::uint64_t>& buckets,
                          sim::Time begin, sim::Time end) {
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    sim::Time t = sim::Time(i) * kBucket;  // bucket covers [t, t+kBucket)
    if (t >= begin && t + kBucket <= end) ops += buckets[i];
  }
  return end > begin ? double(ops) * 1e9 / double(end - begin) : 0.0;
}

json::Value run_scenario(bool shedding, double* ratio_out) {
  TestbedConfig cfg = single_server_config(PassMode::NCache);
  if (shedding) {
    cfg.overload.server_queue = true;
    cfg.overload.retry_budget = true;
    cfg.overload.ncache_ladder = core::kBrownoutLadder;
    cfg.overload.nfs_queue_limit = 128;
    // Target well above baseline sojourn excursions (service time is
    // ~6.4 ms at 65% utilization) yet a quarter of the client RTO, so
    // steady state never sheds and the spike is caught before the first
    // retransmission wave.
    cfg.overload.codel.target_ns = 50'000'000;
    cfg.overload.codel.interval_ns = 100'000'000;
  }
  // 1 GB working set over deliberately small caches (1 MB buffer cache,
  // 4 MB NCache pool) so both fresh reads AND retransmitted duplicates
  // stay disk-paced: a duplicate is served seconds after its original
  // during deep queueing, long after the original's blocks were evicted.
  // With roomy caches the duplicates would be free and the retry storm
  // couldn't waste capacity — no metastable regime would exist.
  cfg.volume_blocks = 320 * 1024;  // 1.25 GB volume
  cfg.fs_cache_blocks = 256;
  cfg.ncache_budget_bytes = 4u << 20;
  Testbed tb(cfg);
  auto files = std::make_shared<workload::FileSet>();
  files->add(tb.image(), "w", 64, 16 << 20);
  tb.start_nfs();

  workload::LoadCurve::Config lc;
  lc.base_rate_per_sec = kBaseRatePerClient;
  lc.spikes.push_back({kSpikeAt, kSpikeLen, kSpikeMultiplier});
  auto curve = std::make_shared<const workload::LoadCurve>(lc);

  const int n = tb.client_count();
  std::vector<workload::Stream> streams(static_cast<std::size_t>(n));
  workload::StopFlag stop;
  for (int c = 0; c < n; ++c) {
    workload::open_loop_nfs_reads(tb.nfs_client(c), curve, files,
                                  kRequestBytes, std::uint32_t(500 + c),
                                  &stop, &streams[std::size_t(c)])
        .detach(tb.loop().reaper());
  }
  std::vector<std::uint64_t> buckets;
  sample_goodput(tb.loop(), &streams, kPostEnd, &buckets)
      .detach(tb.loop().reaper());
  workload::run_measurement(tb.loop(), stop, kPostEnd);

  const double pre = window_ops_per_sec(buckets, kPreStart, kPreEnd);
  const double post = window_ops_per_sec(buckets, kPostStart, kPostEnd);
  const double ratio = pre > 0.0 ? post / pre : 0.0;
  *ratio_out = ratio;

  std::uint64_t ok = 0, errors = 0, denied = 0, retransmits = 0;
  for (const auto& s : streams) {
    ok += s.ops;
    errors += s.errors;
  }
  for (int c = 0; c < n; ++c) {
    denied += tb.nfs_client(c).stats().budget_denied;
    retransmits += tb.nfs_client(c).stats().retransmits;
  }
  const auto& st = tb.nfs_server().stats();

  auto row = json::Value::object();
  row.set("scenario", shedding ? std::string("shedding_on")
                               : std::string("shedding_off"));
  row.set("shedding", shedding);
  row.set("pre_goodput_ops_s", pre);
  row.set("post_goodput_ops_s", post);
  row.set("recovered_ratio", ratio);
  auto c = json::Value::object();
  c.set("ops_ok", ok);
  c.set("ops_failed", errors);
  c.set("queue_drops", st.queue_drops);
  c.set("codel_shed", st.shed);
  c.set("brownout_shed", st.brownout_shed);
  c.set("nfs_retransmits", retransmits);
  c.set("budget_denied", denied);
  row.set("counters", std::move(c));
  auto timeline = json::Value::array();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    auto point = json::Value::object();
    point.set("t_ms", double(sim::Time(i) * kBucket) / 1e6);
    point.set("ops_per_s",
              double(buckets[i]) * 1e9 / double(kBucket));
    timeline.push_back(std::move(point));
  }
  row.set("timeline", std::move(timeline));
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
      "Chaos overload: 10x flash crowd, shedding spine on vs off",
      "with shedding the post-spike goodput recovers to >= 90% of the "
      "pre-spike baseline; without it the open-loop retry storm keeps "
      "goodput collapsed long after the spike ends");
  print_row_header({"scenario", "pre_ops/s", "post_ops/s", "recovered"});

  BenchReport report(opts, "chaos_overload",
                     "goodput recovers >= 90% with shedding on; metastable "
                     "collapse (< 50%) in the shedding-off ablation");

  double ratio_on = 0.0, ratio_off = 0.0;
  Value rows[] = {run_scenario(true, &ratio_on),
                  run_scenario(false, &ratio_off)};
  for (auto& row : rows) {
    std::printf("%14s%14.1f%14.1f%13.2fx\n",
                row.find("scenario")->as_string().c_str(),
                row.find("pre_goodput_ops_s")->as_double(),
                row.find("post_goodput_ops_s")->as_double(),
                row.find("recovered_ratio")->as_double());
    report.add_row(std::move(row));
  }

  auto& shape = report.shape();
  shape.set("spike_multiplier", kSpikeMultiplier);
  shape.set("recovered_ratio_on", ratio_on);
  shape.set("recovered_ratio_off", ratio_off);

  const bool recovers = ratio_on >= 0.9;
  const bool collapses = ratio_off < 0.5;
  if (!recovers) {
    std::printf("FAIL: shedding-on recovery %.2f < 0.90\n", ratio_on);
  }
  if (!collapses) {
    std::printf("FAIL: shedding-off ablation did not collapse (%.2f)\n",
                ratio_off);
  }
  return (report.write() && recovers && collapses) ? 0 : 1;
}
