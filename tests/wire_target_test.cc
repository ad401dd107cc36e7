// Tests for the §6 extension: wire-format block cache on the iSCSI
// target. Correctness (byte-identical data with the extension enabled in
// every app-server mode), target-side copy elimination (2 -> 1 cold,
// 2 -> 0 warm), disk-traffic elimination on warm reads, and write-path
// ingestion.
#include <gtest/gtest.h>

#include "fs/image_builder.h"
#include "testbed/testbed.h"

namespace ncache {
namespace {

using core::PassMode;
using nfs::Status;
using testbed::Testbed;
using testbed::TestbedConfig;

template <typename F>
void run_on(Testbed& tb, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(tb.loop(), t_fn());
}

class WireTargetModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(WireTargetModes, EndToEndIntegrityWithExtension) {
  TestbedConfig cfg;
  cfg.mode = GetParam();
  cfg.wire_format_target = true;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 1 << 20);
  tb.start_nfs();
  if (GetParam() == PassMode::Baseline) GTEST_SKIP() << "junk by design";

  run_on(tb, [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    for (int pass = 0; pass < 2; ++pass) {  // cold pass, then warm
      co_await tb.fs().cache().drop_all();
      if (tb.ncache()) tb.ncache()->cache().clear();
      for (std::uint64_t off = 0; off < (1u << 20); off += 32768) {
        auto r = co_await client.read(ino, off, 32768);
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()),
                  std::size_t(-1))
            << "pass " << pass << " offset " << off;
      }
    }
  });
  EXPECT_GT(tb.target().stats().wire_cache_misses, 0u);
  EXPECT_GT(tb.target().stats().wire_cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, WireTargetModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(WireTarget, ColdReadIsOneCopyWarmReadIsZero) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.wire_format_target = true;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 256 * 1024);
  tb.start_nfs();

  run_on(tb, [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    (void)co_await client.getattr(ino);  // warm server metadata

    // Cold block: one disk-to-wire copy on the target.
    tb.reset_stats();
    (void)co_await client.read(ino, 0, fs::kBlockSize);
    EXPECT_EQ(tb.storage_node().copier.stats().data_copy_ops, 1u);

    // Warm block via a different fs offset (app-server caches would hide
    // repeats of the same block): evict app caches, reread.
    co_await tb.fs().cache().drop_all();
    tb.reset_stats();
    (void)co_await client.read(ino, 0, fs::kBlockSize);
    EXPECT_EQ(tb.storage_node().copier.stats().data_copy_ops, 0u);
  });
}

TEST(WireTarget, WarmReadsSkipTheDisks) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.fs_cache_blocks = 64;  // tiny app cache: rereads reach the target
  cfg.wire_format_target = true;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 1 << 20);
  tb.start_nfs();

  run_on(tb, [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    for (std::uint64_t off = 0; off < (1u << 20); off += 32768) {
      (void)co_await client.read(ino, off, 32768);
    }
    std::uint64_t disk_reads = tb.store().reads();
    co_await tb.fs().cache().drop_all();
    for (std::uint64_t off = 0; off < (1u << 20); off += 32768) {
      auto r = co_await client.read(ino, off, 32768);
      EXPECT_EQ(fs::verify_content(ino, off, r.data.to_bytes()),
                std::size_t(-1));
    }
    // The second sweep was served from the target's wire cache: at most a
    // couple of metadata re-reads touched the disks.
    EXPECT_LE(tb.store().reads(), disk_reads + 2);
  });
}

TEST(WireTarget, WritesAreIngestedForFreeReads) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.fs_cache_blocks = 64;
  cfg.wire_format_target = true;
  Testbed tb(cfg);
  tb.start_nfs();

  run_on(tb, [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "w.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(32768);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);
    co_await tb.fs().sync();  // flush: the write chain lands in the target

    // Drop app caches, reread: the target serves from its wire cache
    // without reading the disks.
    co_await tb.fs().cache().drop_all();
    std::uint64_t disk_reads = tb.store().reads();
    auto r = co_await client.read(*fh, 0, 32768);
    EXPECT_EQ(r.data.to_bytes(), data);
    // Data blocks came from the wire cache (metadata may still re-read).
    EXPECT_LE(tb.store().reads(), disk_reads + 2);
    EXPECT_GT(tb.target().stats().wire_cache_hits, 0u);
  });
}

TEST(WireTarget, DisabledByDefault) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  EXPECT_EQ(tb.wire_target(), nullptr);
  EXPECT_FALSE(tb.target().wire_cache_attached());
}

}  // namespace
}  // namespace ncache
