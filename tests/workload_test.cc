// Tests for the workload library: the Stream sink (verification, digest,
// per-class latency), trace round-trip + replay semantics, web file-set
// construction (sizes, Zipf skew), the readers, SPECsfs mix behaviour, and
// the measurement driver.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/zipf.h"
#include "http/khttpd.h"
#include "netbuf/msg_buffer.h"
#include "testbed/testbed.h"
#include "workload/nfs_workloads.h"
#include "workload/trace.h"
#include "workload/web_workloads.h"
#include "test_util.h"

namespace ncache::workload {
namespace {

using core::PassMode;
using netbuf::MsgBuffer;
using testbed::Testbed;
using testbed::TestbedConfig;

/// The content of file `ino` over [offset, offset + len) as one segment.
MsgBuffer content(std::uint32_t ino, std::uint64_t offset, std::size_t len) {
  std::vector<std::byte> bytes(len);
  fs::fill_content(ino, offset, bytes);
  return MsgBuffer::from_bytes(bytes);
}

TEST(Stream, FlippedByteCountsOneVerifyFailure) {
  std::vector<std::byte> bytes(8192);
  fs::fill_content(5, 4096, bytes);
  bytes[5000] ^= std::byte{0x01};
  Stream s;
  s.read(5, 4096, MsgBuffer::from_bytes(bytes), 10, true);
  EXPECT_EQ(s.ops, 1u);
  EXPECT_EQ(s.bytes, 8192u);
  EXPECT_EQ(s.verify_failures, 1u);
  EXPECT_EQ(s.errors, 0u);
}

TEST(Stream, JunkSegmentFails) {
  MsgBuffer m = content(5, 0, 4096);
  m.append(MsgBuffer::junk(4096));
  EXPECT_FALSE(verify_payload(5, 0, m));
  EXPECT_FALSE(verify_payload(5, 0, MsgBuffer::junk(4096)));
  Stream s;
  s.read(5, 0, m, 10, true);
  EXPECT_EQ(s.verify_failures, 1u);
}

TEST(Stream, CorrectMultiSegmentChainPasses) {
  // Three segments (one past the inline pair), split mid-block.
  MsgBuffer m = content(9, 1000, 3000);
  m.append(content(9, 4000, 5000));
  m.append(content(9, 9000, 7000));
  ASSERT_EQ(m.segments().size(), 3u);
  Stream s;
  s.read(9, 1000, m, 10, true);
  EXPECT_EQ(s.verify_failures, 0u);
  EXPECT_EQ(s.bytes, 15000u);
  // The right bytes at the wrong offset, or of the wrong file, fail.
  EXPECT_FALSE(verify_payload(9, 1001, m));
  EXPECT_FALSE(verify_payload(8, 1000, m));
}

TEST(Stream, DigestIsOrderSensitive) {
  MsgBuffer a = content(3, 0, 4096);
  MsgBuffer b = content(3, 4096, 4096);
  Stream ab, ba, ab2;
  ab.read(3, 0, a, 10, true);
  ab.read(3, 4096, b, 20, true);
  ba.read(3, 4096, b, 20, true);
  ba.read(3, 0, a, 10, true);
  ab2.read(3, 0, a, 99, true);  // latency is not part of the key
  ab2.read(3, 4096, b, 1, true);
  EXPECT_NE(ab.digest, ba.digest);
  EXPECT_EQ(ab.digest, ab2.digest);
  EXPECT_NE(ab.digest, Stream::kDigestBasis);
  std::vector<Stream> one{ab, ba}, other{ba, ab};
  EXPECT_NE(fold_digests(one), fold_digests(other));
}

TEST(Stream, ErrorsAndVerifyFailuresStaySeparate) {
  Stream s;
  s.read(4, 0, MsgBuffer::junk(4096), 10, /*ok=*/false);  // failed status
  s.read(4, 0, MsgBuffer::junk(4096), 10, /*ok=*/true);   // OK, wrong bytes
  s.write(4, 0, 4096, 30, /*ok=*/false);
  s.meta(4, 40, /*ok=*/true);
  EXPECT_EQ(s.errors, 2u);
  EXPECT_EQ(s.verify_failures, 1u);
  EXPECT_EQ(s.ops, 2u);
  EXPECT_EQ(s.bytes, 4096u);
  // Only OK ops are timed, each in its own class.
  EXPECT_EQ(s.latency(OpClass::Read).count(), 1u);
  EXPECT_EQ(s.latency(OpClass::Write).count(), 0u);
  EXPECT_EQ(s.latency(OpClass::Meta).count(), 1u);
  EXPECT_EQ(s.latency(OpClass::Meta).min_ns(), 40u);
}

TEST(Trace, FormatParseRoundTrip) {
  std::vector<TraceOp> ops = {
      {0, TraceOpType::Read, 5, 0, 32768, ""},
      {1000 * sim::kMicrosecond, TraceOpType::Write, 5, 32768, 4096, ""},
      {2000 * sim::kMicrosecond, TraceOpType::Getattr, 5, 0, 0, ""},
      {2500 * sim::kMicrosecond, TraceOpType::Lookup, 0, 0, 0, "file.txt"},
  };
  std::string text = TracePlayer::format(ops);
  auto parsed = TracePlayer::parse(text);
  EXPECT_EQ(parsed, ops);
}

TEST(Trace, ParseSkipsCommentsRejectsGarbage) {
  auto ops = TracePlayer::parse("# comment\n\n10 read 1 0 4096\n");
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].at, 10 * sim::kMicrosecond);
  EXPECT_THROW(TracePlayer::parse("10 chmod 1\n"), std::invalid_argument);
  EXPECT_THROW(TracePlayer::parse("nonsense\n"), std::invalid_argument);
}

TEST(Trace, SynthSequentialCoversFile) {
  auto ops = TracePlayer::synth_sequential_read(7, 100'000, 32768,
                                                sim::kMillisecond);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[3].len, 100'000u - 3 * 32768);
  std::uint64_t total = 0;
  for (auto& op : ops) total += op.len;
  EXPECT_EQ(total, 100'000u);
  EXPECT_EQ(ops[2].at, 2 * sim::kMillisecond);
}

TEST(Trace, ClosedLoopReplayAgainstServer) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  Testbed tb(cfg);
  auto ino = tb.image().add_file("t.bin", 256 * 1024);
  tb.start_nfs();

  auto ops = TracePlayer::synth_sequential_read(ino, 256 * 1024, 32768,
                                                100 * sim::kMicrosecond);
  TracePlayer player(tb.loop(), tb.nfs_client(0), ops);
  Stream stream;
  sim::sync_wait(tb.loop(), player.play_closed(&stream));
  EXPECT_EQ(stream.ops, 8u);
  EXPECT_EQ(stream.bytes, 256u * 1024);
  expect_clean(stream);
  EXPECT_GT(stream.latency(OpClass::Read).mean_ns(), 0.0);
}

TEST(Trace, OpenLoopReplayCompletesAllOps) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  auto ino = tb.image().add_file("t.bin", 512 * 1024);
  tb.start_nfs();

  auto ops = TracePlayer::synth_sequential_read(ino, 512 * 1024, 16384,
                                                50 * sim::kMicrosecond);
  TracePlayer player(tb.loop(), tb.nfs_client(0), ops);
  Stream stream;
  sim::sync_wait(tb.loop(), player.play_open(&stream, /*speedup=*/2.0));
  EXPECT_EQ(stream.ops, 32u);
  EXPECT_EQ(stream.bytes, 512u * 1024);
  expect_clean(stream);
}

TEST(WebPages, RespectsWorkingSetAndMean) {
  sim::EventLoop loop;
  sim::CostModel costs;
  blockdev::BlockStore store(loop, costs, "st", 64 * 1024);
  fs::FsImageBuilder image(store, 64 * 1024, 8192);
  FileSet set = build_web_fileset(image, 20 << 20, 75 * 1024, 1);

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < set.entries.size(); ++i) {
    EXPECT_NE(set.entries[i].ino, 0u);
    EXPECT_EQ(set.entries[i].name, "p" + std::to_string(i));
    total += set.entries[i].size;
  }
  EXPECT_GE(total, 20u << 20);
  double mean = double(total) / double(set.entries.size());
  // Mean within 2x either way of the target (the class mix is coarse).
  EXPECT_GT(mean, 75 * 1024 / 2.0);
  EXPECT_LT(mean, 75 * 1024 * 2.0);
}

TEST(WebPages, DeterministicPerSeed) {
  sim::EventLoop loop;
  sim::CostModel costs;
  blockdev::BlockStore s1(loop, costs, "a", 32 * 1024);
  blockdev::BlockStore s2(loop, costs, "b", 32 * 1024);
  fs::FsImageBuilder i1(s1, 32 * 1024, 4096);
  fs::FsImageBuilder i2(s2, 32 * 1024, 4096);
  FileSet a = build_web_fileset(i1, 5 << 20, 75 * 1024, 9);
  FileSet b = build_web_fileset(i2, 5 << 20, 75 * 1024, 9);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].size, b.entries[i].size);
  }
}

TEST(Workers, RandomReaderAccumulates) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  auto hot = std::make_shared<FileSet>();
  hot->add(tb.image(), "hot", 1, 5 << 20);  // the 5 MB hot set
  tb.start_nfs();

  // Warm the caches with one sequential pass (the all-hit workload is
  // measured against a resident file).
  Stream warm;
  sim::sync_wait(tb.loop(), read_file(tb.nfs_client(0), hot->entries[0].ino,
                                      0, 5 << 20, 32768, &warm));
  EXPECT_EQ(warm.ops, 160u);
  expect_clean(warm);

  StopFlag stop;
  Stream stream;
  random_reader(tb.nfs_client(0), hot, nullptr, Pcg32(1), 32768, &stop,
                &stream)
      .detach();
  random_reader(tb.nfs_client(1), hot, nullptr, Pcg32(2), 32768, &stop,
                &stream)
      .detach();
  run_measurement(tb.loop(), stop, 200 * sim::kMillisecond);

  EXPECT_EQ(stop.live_workers, 0);
  EXPECT_GT(stream.ops, 100u);
  expect_clean(stream);
  EXPECT_GT(stream.latency(OpClass::Read).min_ns(), 0u);
}

TEST(Workers, SequentialReaderWrapsAround) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.fs_cache_blocks = 64;
  Testbed tb(cfg);
  auto ino = tb.image().add_file("seq.bin", 1 << 20);
  tb.start_nfs();

  StopFlag stop;
  Stream stream;
  sequential_reader(tb.nfs_client(0), ino, 1 << 20, 32768,
                    std::make_shared<std::uint64_t>(0), &stop, &stream)
      .detach();
  run_measurement(tb.loop(), stop, 300 * sim::kMillisecond);
  // 1 MB / 32 KB = 32 requests per pass; at GbE speeds several passes fit.
  EXPECT_GT(stream.ops, 32u);
  expect_clean(stream);
}

/// Runs two SPECsfs workers (data_op_fraction 0.5) for 300 ms over
/// `prefix`0..19, 64 KB each.
Stream run_specsfs(Testbed& tb, std::string_view prefix) {
  auto files = std::make_shared<FileSet>();
  files->add(tb.image(), prefix, 20, 64 * 1024);
  tb.start_nfs();

  StopFlag stop;
  Stream stream;
  SpecSfsConfig sc;
  sc.data_op_fraction = 0.5;
  specsfs_worker(tb.nfs_client(0), files, sc, 0, &stop, &stream).detach();
  specsfs_worker(tb.nfs_client(1), files, sc, 1, &stop, &stream).detach();
  run_measurement(tb.loop(), stop, 300 * sim::kMillisecond);
  return stream;
}

TEST(Workers, SpecSfsMixProducesBothKinds) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  Stream stream = run_specsfs(tb, "sfs");

  EXPECT_GT(stream.ops, 50u);
  // Reads after the mix's writes still verify: writes store the pattern.
  expect_clean(stream);
  // Server saw reads, writes AND metadata ops.
  EXPECT_GT(tb.nfs_server().stats().reads, 0u);
  EXPECT_GT(tb.nfs_server().stats().writes, 0u);
  EXPECT_GT(tb.nfs_server().stats().metadata_ops, 0u);
}

TEST(Workers, SpecSfsLookupsNameTheSetsFiles) {
  // The active set is named after the caller's prefix, not "sfs<N>":
  // every LOOKUP must still resolve.
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  Testbed tb(cfg);
  Stream stream = run_specsfs(tb, "z");
  EXPECT_GT(tb.nfs_server().stats().metadata_ops, 0u);
  EXPECT_EQ(stream.errors, 0u);
}

TEST(Workers, SpecSfsTimesMetadataOps) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  Testbed tb(cfg);
  Stream stream = run_specsfs(tb, "sfs");
  for (OpClass c : {OpClass::Read, OpClass::Write, OpClass::Meta}) {
    EXPECT_GT(stream.latency(c).count(), 0u) << int(c);
    EXPECT_GT(stream.latency(c).min_ns(), 0u) << int(c);
  }
  EXPECT_EQ(stream.latency(OpClass::Read).count() +
                stream.latency(OpClass::Write).count() +
                stream.latency(OpClass::Meta).count(),
            stream.ops);
}

TEST(Trace, RecordedZipfTraceReplaysDeterministically) {
  // Record: sample a Zipf-popular op sequence into a trace, push it
  // through the text format (as a file on disk would), and replay the
  // parsed copy on two fresh same-config testbeds. Everything observable
  // must match run-to-run: op/byte/error counts, latency distribution,
  // and the server-side counters.
  auto record = [](const std::vector<std::uint64_t>& fhs) {
    ZipfSampler zipf(fhs.size(), 0.9);
    Pcg32 rng(/*seed=*/4242, /*stream=*/7);
    std::vector<TraceOp> ops;
    for (int i = 0; i < 200; ++i) {
      TraceOp op;
      op.at = sim::Duration(i) * 500 * sim::kMicrosecond;
      op.type = TraceOpType::Read;
      op.fh = fhs[zipf.sample(rng)];
      op.offset = 32768ull * rng.below(2);
      op.len = 32768;
      ops.push_back(op);
    }
    return ops;
  };

  struct Replay {
    Stream stream;
    std::uint64_t server_reads = 0;
    std::uint64_t server_read_bytes = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
  };
  auto replay = [&](const std::string& text) {
    TestbedConfig cfg;
    cfg.mode = PassMode::NCache;
    Testbed tb(cfg);
    std::vector<std::uint64_t> fhs;
    for (int i = 0; i < 16; ++i) {
      fhs.push_back(tb.image().add_file("t" + std::to_string(i), 64 * 1024));
    }
    tb.start_nfs();
    // The trace was recorded against the same deterministic image, so the
    // file handles in the text match this run's inodes.
    TracePlayer player(tb.loop(), tb.nfs_client(0), TracePlayer::parse(text));
    Replay r;
    sim::sync_wait(tb.loop(), player.play_closed(&r.stream));
    r.server_reads = tb.nfs_server().stats().reads;
    r.server_read_bytes = tb.nfs_server().stats().read_bytes;
    r.p50 = r.stream.latency(OpClass::Read).quantile_ns(0.5);
    r.p99 = r.stream.latency(OpClass::Read).quantile_ns(0.99);
    return r;
  };

  // The recorded handles come from the deterministic image builder: build
  // one throwaway testbed just to learn them.
  std::vector<std::uint64_t> fhs;
  {
    TestbedConfig cfg;
    Testbed tb(cfg);
    for (int i = 0; i < 16; ++i) {
      fhs.push_back(tb.image().add_file("t" + std::to_string(i), 64 * 1024));
    }
  }
  std::string text = TracePlayer::format(record(fhs));
  EXPECT_EQ(TracePlayer::parse(text), record(fhs));  // record round-trips

  Replay a = replay(text);
  Replay b = replay(text);
  EXPECT_EQ(a.stream.ops, 200u);
  expect_clean(a.stream);
  EXPECT_EQ(a.stream.ops, b.stream.ops);
  EXPECT_EQ(a.stream.bytes, b.stream.bytes);
  EXPECT_EQ(a.stream.digest, b.stream.digest);
  const LatencyHistogram& la = a.stream.latency(OpClass::Read);
  const LatencyHistogram& lb = b.stream.latency(OpClass::Read);
  EXPECT_EQ(la.count(), lb.count());
  EXPECT_EQ(la.mean_ns(), lb.mean_ns());
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.server_reads, b.server_reads);
  EXPECT_EQ(a.server_read_bytes, b.server_read_bytes);
}

TEST(Driver, RunMeasurementStopsWorkers) {
  sim::EventLoop loop;
  StopFlag stop;
  int iterations = 0;
  auto worker_fn = [](sim::EventLoop& l, StopFlag* s, int* iters) -> Task<void> {
    ++s->live_workers;
    while (!s->stopped) {
      co_await sim::sleep_for(l, sim::kMillisecond);
      ++*iters;
    }
    --s->live_workers;
  };
  worker_fn(loop, &stop, &iterations).detach();
  auto window = run_measurement(loop, stop, 100 * sim::kMillisecond);
  EXPECT_EQ(window, 100 * sim::kMillisecond);
  EXPECT_EQ(stop.live_workers, 0);
  EXPECT_NEAR(iterations, 100, 2);
}

}  // namespace
}  // namespace ncache::workload
