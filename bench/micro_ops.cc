// Google-benchmark micro/ablation suite: the primitive operations whose
// costs drive every figure, plus design-choice ablations called out in
// DESIGN.md. These measure *host* (wall-clock) performance of the library
// primitives — useful for keeping the simulator fast — and, for the
// simulated-cost ablations, report the simulated-time ratios as counters.
//
// BENCH_micro_ops.json carries only *simulated* quantities (cost-model
// numbers and one short testbed window): wall-clock results are
// machine-dependent and would break the two-runs-byte-identical
// determinism contract, so they stay on stdout.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/checksum.h"
#include "core/net_centric_cache.h"
#include "fs/image_builder.h"
#include "netbuf/copy_engine.h"
#include "netbuf/msg_buffer.h"
#include "proto/headers.h"

namespace {

using namespace ncache;

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::byte(i * 31);
  return v;
}

netbuf::MsgBuffer wire_chain(std::size_t bytes) {
  netbuf::MsgBuffer m;
  std::size_t left = bytes;
  while (left) {
    std::size_t take = std::min<std::size_t>(1460, left);
    auto buf = netbuf::make_buffer(take);
    buf->put(take);
    m.append(netbuf::ByteSeg{std::move(buf), 0, std::uint32_t(take)});
    left -= take;
  }
  return m;
}

// --- netbuf primitives -------------------------------------------------------

void BM_MsgBufferSlice(benchmark::State& state) {
  auto m = wire_chain(std::size_t(state.range(0)));
  std::size_t off = 0;
  for (auto _ : state) {
    auto s = m.slice(off % (m.size() / 2), m.size() / 4);
    benchmark::DoNotOptimize(s);
    off += 97;
  }
}
BENCHMARK(BM_MsgBufferSlice)->Arg(4096)->Arg(32768);

void BM_MsgBufferCopyOut(benchmark::State& state) {
  auto m = wire_chain(std::size_t(state.range(0)));
  std::vector<std::byte> dst(m.size());
  for (auto _ : state) {
    m.copy_out(dst);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MsgBufferCopyOut)->Arg(4096)->Arg(32768);

void BM_InternetChecksum(benchmark::State& state) {
  auto data = pattern(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(1460)->Arg(32768);

void BM_Crc32(benchmark::State& state) {
  auto data = pattern(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096);

// --- header codecs -----------------------------------------------------------

void BM_Ipv4HeaderRoundTrip(benchmark::State& state) {
  proto::Ipv4Header h;
  h.total_length = 1500;
  h.id = 42;
  h.src = proto::make_ipv4(10, 0, 0, 1);
  h.dst = proto::make_ipv4(10, 0, 0, 2);
  for (auto _ : state) {
    auto bytes = h.serialize_with_checksum();
    ByteReader r(bytes);
    benchmark::DoNotOptimize(proto::Ipv4Header::parse(r));
  }
}
BENCHMARK(BM_Ipv4HeaderRoundTrip);

// --- copy engine: physical vs logical (the paper's core trade) ---------------

void BM_PhysicalCopy4K(benchmark::State& state) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu");
  sim::CostModel costs;
  netbuf::CopyEngine eng(cpu, costs);
  auto m = wire_chain(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eng.copy_message(m, netbuf::CopyClass::RegularData));
  }
  state.counters["sim_ns_per_op"] =
      double(costs.copy_cost(4096));
}
BENCHMARK(BM_PhysicalCopy4K);

void BM_LogicalCopy4K(benchmark::State& state) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu");
  sim::CostModel costs;
  netbuf::CopyEngine eng(cpu, costs);
  auto m = netbuf::MsgBuffer::from_key(netbuf::LbnKey{0, 1}, 0, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.logical_copy(m));
  }
  state.counters["sim_ns_per_op"] = double(costs.logical_copy_ns);
  state.counters["sim_speedup_vs_physical"] =
      double(costs.copy_cost(4096)) / double(costs.logical_copy_ns);
}
BENCHMARK(BM_LogicalCopy4K);

// --- network-centric cache operations ----------------------------------------

void BM_NCacheInsertLookup(benchmark::State& state) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu");
  sim::CostModel costs;
  core::NetCentricCache cache(cpu, costs, {256u << 20, 4096});
  std::uint64_t lbn = 0;
  for (auto _ : state) {
    cache.insert_lbn(netbuf::LbnKey{0, lbn}, wire_chain(4096));
    benchmark::DoNotOptimize(
        cache.lookup(netbuf::CacheKey(netbuf::LbnKey{0, lbn})));
    ++lbn;
  }
}
BENCHMARK(BM_NCacheInsertLookup);

void BM_NCacheEvictionChurn(benchmark::State& state) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu");
  sim::CostModel costs;
  // Small pool: every insert evicts.
  core::NetCentricCache cache(cpu, costs, {64 * 5200, 4096});
  std::uint64_t lbn = 0;
  for (auto _ : state) {
    cache.insert_lbn(netbuf::LbnKey{0, lbn++}, wire_chain(4096));
  }
  state.counters["evictions"] = double(cache.stats().evictions);
}
BENCHMARK(BM_NCacheEvictionChurn);

void BM_NCacheRemap(benchmark::State& state) {
  sim::EventLoop loop;
  sim::CpuModel cpu(loop, "cpu");
  sim::CostModel costs;
  core::NetCentricCache cache(cpu, costs, {512u << 20, 4096});
  std::uint64_t i = 0;
  for (auto _ : state) {
    cache.insert_fho(netbuf::FhoKey{1, i * 4096}, wire_chain(4096));
    cache.remap(netbuf::FhoKey{1, i * 4096}, netbuf::LbnKey{0, i});
    ++i;
  }
}
BENCHMARK(BM_NCacheRemap);

// --- fs content generator -----------------------------------------------------

void BM_ContentFillVerify(benchmark::State& state) {
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    fs::fill_content(7, 0, buf);
    benchmark::DoNotOptimize(fs::verify_content(7, 0, buf));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) * 8192);
}
BENCHMARK(BM_ContentFillVerify);

// --- structured report (sim-derived values only) ------------------------------

ncache::json::Value cost_row(const char* op, std::uint64_t bytes,
                             double sim_ns) {
  auto row = ncache::json::Value::object();
  row.set("op", op);
  row.set("bytes", bytes);
  row.set("sim_ns", sim_ns);
  return row;
}

int write_report(const ncache::bench::BenchOptions& opts) {
  using namespace ncache::bench;
  using ncache::json::Value;
  BenchReport report(opts, "micro_ops",
                     "cost-model primitives: a logical copy is orders of "
                     "magnitude cheaper than a physical 4K/32K copy");
  sim::CostModel costs;
  report.add_row(cost_row("physical_copy", 4096,
                          double(costs.copy_cost(4096))));
  report.add_row(cost_row("physical_copy", 32768,
                          double(costs.copy_cost(32768))));
  report.add_row(cost_row("logical_copy", 4096,
                          double(costs.logical_copy_ns)));
  report.add_row(cost_row("software_checksum", 1460,
                          double(costs.checksum_cost(1460))));
  report.add_row(cost_row("software_checksum", 32768,
                          double(costs.checksum_cost(32768))));

  // One short all-hit testbed window so the report carries the standard
  // system-metric block (throughput / CPU / link / copies), all
  // simulated and deterministic.
  {
    using ncache::core::PassMode;
    using ncache::testbed::Testbed;
    using ncache::testbed::TestbedConfig;
    TestbedConfig cfg;
    cfg.mode = PassMode::NCache;
    cfg.volume_blocks = 8 * 1024;
    Testbed tb(cfg);
    constexpr std::uint64_t kHot = 2 << 20;
    std::uint32_t ino = tb.image().add_file("hot.bin", kHot);
    tb.start_nfs();
    sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                  kHot, 32768, nullptr));
    NfsRunConfig rc;
    rc.request_size = 32768;
    rc.streams_per_client = 4;
    rc.hot = true;
    rc.duration = 40 * sim::kMillisecond;
    NfsRunResult r = run_nfs_read_workload(tb, ino, kHot, rc);
    report.root().set("measured",
                      measured_json(tb, r.snapshot, r.throughput_mb_s));
  }

  auto& shape = report.shape();
  shape.set("logical_vs_physical_4k_speedup",
            double(costs.copy_cost(4096)) / double(costs.logical_copy_ns));
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto opts = ncache::bench::BenchOptions::parse(argc, argv);
  ncache::bench::quiet_logs();
  int rc = write_report(opts);
  if (rc != 0) return rc;
  // Wall-clock suite: skipped in smoke mode (slow, nondeterministic, and
  // its numbers never enter the JSON report).
  if (!opts.smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
