// ATP-style trace replay (§5.3): the paper drives its microbenchmarks
// with synthetic traces and an Active Trace Player. This example builds a
// synthetic trace, prints it in the text format, replays it closed-loop
// and open-loop against an NCache NFS server, and reports per-op latency.
//
// Build & run:  ./build/examples/trace_replay
#include <cstdio>

#include "common/logging.h"
#include "fs/image_builder.h"
#include "testbed/testbed.h"
#include "workload/trace.h"

using namespace ncache;

namespace {

/// Prints one replay's totals; false if an op failed or a read came back
/// with the wrong bytes.
bool report(const char* name, const workload::Stream& s, sim::Duration took) {
  using workload::OpClass;
  std::printf("%s: %llu ops, %llu bytes, %llu bad reads, read %s, meta %s, "
              "took %.1f ms\n",
              name, (unsigned long long)s.ops, (unsigned long long)s.bytes,
              (unsigned long long)s.verify_failures,
              s.latency(OpClass::Read).summary().c_str(),
              s.latency(OpClass::Meta).summary().c_str(), double(took) / 1e6);
  return s.errors == 0 && s.verify_failures == 0;
}

}  // namespace

int main() {
  ncache::log::set_level(ncache::log::Level::Error);

  testbed::TestbedConfig config;
  config.mode = core::PassMode::NCache;
  testbed::Testbed tb(config);
  std::uint32_t ino = tb.image().add_file("data.bin", 2 << 20);
  tb.start_nfs();

  // A sequential-read trace of the whole file, one 32 KB request per ms,
  // with a couple of metadata ops mixed in.
  auto ops = workload::TracePlayer::synth_sequential_read(
      ino, 2 << 20, 32768, sim::kMillisecond);
  ops.push_back({ops.back().at + sim::kMillisecond,
                 workload::TraceOpType::Getattr, ino, 0, 0, ""});
  ops.push_back({ops.back().at + sim::kMillisecond,
                 workload::TraceOpType::Lookup, 0, 0, 0, "data.bin"});

  std::string text = workload::TracePlayer::format(ops);
  std::printf("trace (%zu ops), first lines:\n%.*s...\n\n", ops.size(), 120,
              text.c_str());

  // Round-trip through the text format, as if loaded from a trace file.
  auto loaded = workload::TracePlayer::parse(text);
  bool ok = true;

  {
    workload::TracePlayer player(tb.loop(), tb.nfs_client(0), loaded);
    workload::Stream stream;
    auto t = [&]() -> Task<void> { co_await player.play_closed(&stream); };
    sim::Time t0 = tb.loop().now();
    sim::sync_wait(tb.loop(), t());
    ok = report("closed-loop", stream, tb.loop().now() - t0) && ok;
  }
  {
    workload::TracePlayer player(tb.loop(), tb.nfs_client(1), loaded);
    workload::Stream stream;
    auto t = [&]() -> Task<void> {
      co_await player.play_open(&stream, /*speedup=*/4.0);
    };
    sim::Time t0 = tb.loop().now();
    sim::sync_wait(tb.loop(), t());
    ok = report("open-loop x4", stream, tb.loop().now() - t0) && ok;
  }
  return ok ? 0 : 1;
}
