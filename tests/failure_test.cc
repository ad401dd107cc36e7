// Failure injection and cross-mode equivalence.
//
//  * Frame loss on every hop of the NFS and iSCSI paths: the protocols
//    (UDP retransmission, TCP recovery) must deliver correct data anyway.
//  * Substitution miss: a key evicted before egress becomes junk, never a
//    dropped frame or a crash.
//  * Resource exhaustion: fs out of space, cache pool too small.
//  * Equivalence: the same mixed workload against Original and NCache
//    servers must leave byte-identical client-visible state.
#include <gtest/gtest.h>

#include "fs/image_builder.h"
#include "testbed/testbed.h"
#include "workload/nfs_workloads.h"
#include "test_util.h"

namespace ncache {
namespace {

using core::PassMode;
using netbuf::MsgBuffer;
using nfs::Status;
using testbed::Testbed;
using testbed::TestbedConfig;

// ---------------------------------------------------------------------------
// Loss on every hop
// ---------------------------------------------------------------------------

struct LossPoint {
  const char* name;
  int node;  // 0=client0, 1=server, 2=storage
};

class LossyHops : public ::testing::TestWithParam<int> {};

TEST_P(LossyHops, NfsReadSurvivesPeriodicLoss) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 512 * 1024);
  tb.start_nfs();

  // Install a periodic drop filter at the chosen hop. For the server the
  // NCache egress filter must keep running, so chain it. The server hop
  // uses a gentler rate: each 32 KB UDP reply is ~23 fragments and losing
  // ANY fragment loses the datagram, so a per-frame drop rate of p makes
  // replies survive with only (1-p)^23 — the reason lossy networks forced
  // small NFS transfer sizes.
  auto drop_filter = [counter = 0](proto::Frame&) mutable {
    return ++counter % 13 != 0;
  };
  switch (GetParam()) {
    case 0:
      tb.client_node(0).stack.nic(0).set_egress_filter(drop_filter);
      break;
    case 1:
      tb.server_node().stack.nic(0).set_egress_filter(
          [counter = 0, &tb](proto::Frame& f) mutable {
            if (++counter % 201 == 0) return false;
            return tb.ncache()->egress_filter(f);
          });
      break;
    case 2:
      tb.storage_node().stack.nic(0).set_egress_filter(drop_filter);
      break;
  }

  workload::Stream s;
  sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                512 * 1024, 32768, &s));
  EXPECT_EQ(s.ops, 16u);
  expect_clean(s);
  // UDP retransmissions must have happened when the drop was on the
  // client<->server leg; TCP recovery covers the iSCSI leg.
  if (GetParam() != 2) {
    EXPECT_GT(tb.nfs_client(0).stats().retransmits, 0u);
  }
}

std::string hop_name(const ::testing::TestParamInfo<int>& info) {
  const char* names[] = {"client", "server", "storage"};
  return names[info.param];
}
INSTANTIATE_TEST_SUITE_P(Hops, LossyHops, ::testing::Values(0, 1, 2),
                         hop_name);

TEST(Failure, WritePathSurvivesLoss) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.fs_cache_blocks = 64;  // force flush traffic through lossy iSCSI
  Testbed tb(cfg);
  tb.start_nfs();

  int counter = 0;
  tb.storage_node().stack.nic(0).set_egress_filter(
      [&](proto::Frame&) { return ++counter % 17 != 0; });

  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "w.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(64 * 1024);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    std::span<const std::byte> d(data);
    EXPECT_EQ(co_await client.write(*fh, 0, d.subspan(0, 32768)), Status::Ok);
    EXPECT_EQ(co_await client.write(*fh, 32768, d.subspan(32768)), Status::Ok);
    co_await tb.fs().sync();
    auto r1 = co_await client.read(*fh, 0, 32768);
    auto r2 = co_await client.read(*fh, 32768, 32768);
    MsgBuffer all;
    all.append(std::move(r1.data));
    all.append(std::move(r2.data));
    EXPECT_EQ(all.to_bytes(), data);
  });
}

// ---------------------------------------------------------------------------
// Substitution miss
// ---------------------------------------------------------------------------

TEST(Failure, EvictedKeyBecomesJunkNotCrash) {
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.ncache_budget_bytes = 1 << 20;  // tiny pool: constant eviction
  cfg.fs_cache_blocks = 2048;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 4 << 20);
  tb.start_nfs();

  int junk = 0, ok = 0;
  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    for (std::uint64_t off = 0; off < (4u << 20); off += 32768) {
      auto r = co_await client.read(ino, off, 32768);
      EXPECT_EQ(r.status, Status::Ok);
      EXPECT_EQ(r.data.size(), 32768u);
      if (r.junk) {
        ++junk;  // key evicted between reply construction and egress
      } else {
        EXPECT_TRUE(workload::verify_payload(ino, off, r.data));
        ++ok;
      }
    }
  });
  // The protocol never wedges; most replies are still intact.
  EXPECT_GT(ok, 0);
  EXPECT_EQ(tb.ncache()->stats().substitution_misses > 0, junk > 0);
}

// ---------------------------------------------------------------------------
// Resource exhaustion
// ---------------------------------------------------------------------------

TEST(Failure, VolumeFullPartialWrite) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.volume_blocks = 600;  // tiny volume (metadata eats a chunk of it)
  cfg.inode_count = 64;
  Testbed tb(cfg);
  tb.start_nfs();

  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "big");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    // Try to write far more than the volume holds: the server reports
    // NoSpace instead of corrupting anything.
    std::vector<std::byte> chunk(32 * 1024);
    bool saw_enospc = false;
    for (int i = 0; i < 200 && !saw_enospc; ++i) {
      Status s = co_await client.write(*fh, std::uint64_t(i) * chunk.size(),
                                       chunk);
      if (s == Status::NoSpace) saw_enospc = true;
      else EXPECT_EQ(s, Status::Ok);
    }
    EXPECT_TRUE(saw_enospc);
    // The file system still works afterwards.
    auto attr = co_await client.getattr(*fh);
    EXPECT_TRUE(attr);
  });
}

TEST(Failure, InodeExhaustion) {
  TestbedConfig cfg;
  cfg.mode = PassMode::Original;
  cfg.inode_count = 40;  // tiny table
  Testbed tb(cfg);
  tb.start_nfs();

  run_on(tb.loop(), [&]() -> Task<void> {
    auto& client = tb.nfs_client(0);
    int created = 0;
    for (int i = 0; i < 60; ++i) {
      auto fh = co_await client.create(fs::kRootIno, "f" + std::to_string(i));
      if (fh) ++created;
    }
    EXPECT_GT(created, 30);
    EXPECT_LT(created, 40);  // inode 0 + root + table limit
    // Removing one frees an inode for reuse.
    EXPECT_EQ(co_await client.remove(fs::kRootIno, "f0"), Status::Ok);
    auto again = co_await client.create(fs::kRootIno, "reuse");
    EXPECT_TRUE(again);
  });
}

// ---------------------------------------------------------------------------
// Cross-mode equivalence
// ---------------------------------------------------------------------------

Task<std::vector<std::byte>> mixed_workload(Testbed& tb) {
  auto& client = tb.nfs_client(0);
  std::vector<std::byte> observed;

  auto fh = co_await client.lookup(fs::kRootIno, "data.bin");
  auto wfh = co_await client.create(fs::kRootIno, "out.bin");

  // Interleave reads, writes, overwrites, metadata.
  for (int round = 0; round < 4; ++round) {
    auto r = co_await client.read(*fh, std::uint64_t(round) * 65536, 32768);
    auto bytes = r.data.to_bytes();
    observed.insert(observed.end(), bytes.begin(), bytes.end());

    std::vector<std::byte> w(16384);
    fs::fill_content(std::uint32_t(*wfh), std::uint64_t(round) * 16384, w);
    (void)co_await client.write(*wfh, std::uint64_t(round) * 16384, w);

    auto attr = co_await client.getattr(*wfh);
    observed.push_back(std::byte(attr->size & 0xff));

    // Read back what we wrote (possibly served from the FHO cache).
    auto rb = co_await client.read(*wfh, std::uint64_t(round) * 16384, 16384);
    auto rb_bytes = rb.data.to_bytes();
    observed.insert(observed.end(), rb_bytes.begin(), rb_bytes.end());
  }
  co_await tb.fs().sync();
  co_return observed;
}

TEST(Equivalence, OriginalAndNCacheAgreeByteForByte) {
  std::vector<std::byte> results[2];
  std::vector<std::byte> storage_after[2];
  PassMode modes[2] = {PassMode::Original, PassMode::NCache};
  for (int i = 0; i < 2; ++i) {
    TestbedConfig cfg;
    cfg.mode = modes[i];
    Testbed tb(cfg);
    std::uint32_t ino = tb.image().add_file("data.bin", 1 << 20);
    (void)ino;
    tb.start_nfs();
    auto t_fn = [&]() -> Task<void> {
      results[i] = co_await mixed_workload(tb);
    };
    sim::sync_wait(tb.loop(), t_fn());
    // Compare a slice of the raw storage volume too (the flushed file).
    storage_after[i] = tb.store().peek(tb.fs().superblock().data_start, 64);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(storage_after[0], storage_after[1]);
}

TEST(Equivalence, DeterministicAcrossRuns) {
  // Two identical NCache runs are bit-for-bit identical, including timing.
  sim::Time finish[2];
  for (int i = 0; i < 2; ++i) {
    TestbedConfig cfg;
    cfg.mode = PassMode::NCache;
    Testbed tb(cfg);
    std::uint32_t ino = tb.image().add_file("data.bin", 1 << 20);
    tb.start_nfs();
    sim::sync_wait(tb.loop(), workload::read_file(tb.nfs_client(0), ino, 0,
                                                  1 << 20, 32768, nullptr));
    finish[i] = tb.loop().now();
  }
  EXPECT_EQ(finish[0], finish[1]);
}

}  // namespace
}  // namespace ncache
