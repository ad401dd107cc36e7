// NFS end-to-end tests over the full 4-node testbed: protocol codecs,
// data integrity in every server mode, Table-2 copy counts, the FHO
// write/remap pipeline, second-level-cache behaviour, metadata operations,
// and UDP retransmission.
#include <gtest/gtest.h>

#include "fs/image_builder.h"
#include "nfs/client.h"
#include "nfs/protocol.h"
#include "testbed/testbed.h"
#include "workload/nfs_workloads.h"
#include "test_util.h"

namespace ncache::nfs {
namespace {

using core::PassMode;
using netbuf::MsgBuffer;
using testbed::Testbed;
using testbed::TestbedConfig;

TEST(NfsProtocol, HeaderRoundTrips) {
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  CallHeader{77, kNfsProgram, kNfsVersion, Proc::Read}.serialize(w);
  ASSERT_EQ(buf.size(), kCallHeaderBytes);
  ByteReader r(buf);
  auto h = CallHeader::parse(r);
  ASSERT_TRUE(h);
  EXPECT_EQ(h->xid, 77u);
  EXPECT_EQ(h->proc, Proc::Read);

  std::vector<std::byte> rbuf;
  ByteWriter rw(rbuf);
  ReplyHeader{77, Status::NoEnt}.serialize(rw);
  ASSERT_EQ(rbuf.size(), kReplyHeaderBytes);
  ByteReader rr(rbuf);
  auto rh = ReplyHeader::parse(rr);
  ASSERT_TRUE(rh);
  EXPECT_EQ(rh->status, Status::NoEnt);
}

TEST(NfsProtocol, CallRejectsReplyTag) {
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  ReplyHeader{5, Status::Ok}.serialize(w);
  w.zeros(8);
  ByteReader r(buf);
  EXPECT_FALSE(CallHeader::parse(r));
}

TEST(NfsProtocol, ArgsRoundTrip) {
  {
    std::vector<std::byte> b;
    ByteWriter w(b);
    LookupArgs{7, "file.txt"}.serialize(w);
    ByteReader r(b);
    auto a = LookupArgs::parse(r);
    EXPECT_EQ(a.dir_fh, 7u);
    EXPECT_EQ(a.name, "file.txt");
  }
  {
    std::vector<std::byte> b;
    ByteWriter w(b);
    ReadArgs{9, 65536, 32768}.serialize(w);
    ByteReader r(b);
    auto a = ReadArgs::parse(r);
    EXPECT_EQ(a.fh, 9u);
    EXPECT_EQ(a.offset, 65536u);
    EXPECT_EQ(a.count, 32768u);
  }
  {
    std::vector<std::byte> b;
    ByteWriter w(b);
    serialize_dir_entries(
        w, {{1, fs::InodeType::File, "a"}, {2, fs::InodeType::Directory, "b"}});
    ByteReader r(b);
    auto es = parse_dir_entries(r);
    ASSERT_EQ(es.size(), 2u);
    EXPECT_EQ(es[0].name, "a");
    EXPECT_EQ(es[1].fh, 2u);
  }
}

TEST(NfsProtocol, EncodeWritesExactlyWireBytes) {
  // encode() sizes its output from wire_bytes(); it must produce the same
  // bytes as serializing into a growing vector, padding included.
  auto same = [](const auto& msg) {
    std::vector<std::byte> grown;
    ByteWriter w(grown);
    msg.serialize(w);
    EXPECT_EQ(encode(msg), grown);
  };
  same(GetattrArgs{3});
  same(LookupArgs{7, ""});
  same(LookupArgs{7, "abcd"});
  same(LookupArgs{7, "file.txt!"});
  same(ReadArgs{9, 65536, 32768});
  same(WriteArgs{9, 4096, 8192});
  same(RenameArgs{1, "a", 2, "bcdefg"});
  same(SetattrArgs{5, 100});
  same(CreateArgs{1, "new", fs::InodeType::Directory});
  same(Fattr{fs::InodeType::File, 123, 1});
}

// ---------------------------------------------------------------------------
// End-to-end fixture
// ---------------------------------------------------------------------------

struct EndToEnd {
  explicit EndToEnd(PassMode mode, TestbedConfig base = {}) {
    base.mode = mode;
    tb = std::make_unique<Testbed>(base);
    file_ino = tb->image().add_file("data.bin", kFileSize);
    tb->start_nfs();
  }

  static constexpr std::uint64_t kFileSize = 4 * 1024 * 1024;

  template <typename F>
  void run(F&& body) {
    auto t_fn = [&]() -> Task<void> { co_await body(); };
    sim::sync_wait(tb->loop(), t_fn());
  }

  std::unique_ptr<Testbed> tb;
  std::uint32_t file_ino = 0;
};

class NfsModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(NfsModes, LookupAndGetattr) {
  EndToEnd e(GetParam());
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto fh = co_await client.lookup(fs::kRootIno, "data.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    EXPECT_EQ(*fh, e.file_ino);
    auto attr = co_await client.getattr(*fh);
    EXPECT_TRUE(attr);
    if (!attr) co_return;
    EXPECT_EQ(attr->size, EndToEnd::kFileSize);
    EXPECT_EQ(attr->type, fs::InodeType::File);
  });
}

TEST_P(NfsModes, ReadsAreSizedAndShaped) {
  EndToEnd e(GetParam());
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto r = co_await client.read(e.file_ino, 32768, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.data.size(), 32768u);
    if (GetParam() == PassMode::Baseline) {
      EXPECT_TRUE(r.junk);  // §5.1: baseline payloads are random bits
    } else {
      EXPECT_FALSE(r.junk);
      auto bytes = r.data.to_bytes();
      EXPECT_EQ(fs::verify_content(e.file_ino, 32768, bytes), std::size_t(-1));
    }
  });
}

TEST_P(NfsModes, SequentialReadWholeFileIntegrity) {
  EndToEnd e(GetParam());
  if (GetParam() == PassMode::Baseline) GTEST_SKIP() << "junk by design";
  workload::Stream s;
  sim::sync_wait(e.tb->loop(), workload::read_file(e.tb->nfs_client(0),
                                                   e.file_ino, 0, 512 * 1024,
                                                   32768, &s));
  EXPECT_EQ(s.ops, 16u);
  expect_clean(s);
}

TEST_P(NfsModes, WriteThenReadBack) {
  EndToEnd e(GetParam());
  if (GetParam() == PassMode::Baseline) GTEST_SKIP() << "junk by design";
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "new.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(32768);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);
    auto r = co_await client.read(*fh, 0, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(r.data.to_bytes(), data);
  });
}

TEST_P(NfsModes, MetadataOps) {
  EndToEnd e(GetParam());
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto dir = co_await client.create(fs::kRootIno, "dir", /*directory=*/true);
    EXPECT_TRUE(dir);
    if (!dir) co_return;
    auto f1 = co_await client.create(*dir, "x");
    auto f2 = co_await client.create(*dir, "y");
    EXPECT_TRUE(f1 && f2);
    auto entries = co_await client.readdir(*dir);
    EXPECT_EQ(entries.size(), 2u);
    EXPECT_EQ(co_await client.remove(*dir, "x"), Status::Ok);
    entries = co_await client.readdir(*dir);
    EXPECT_EQ(entries.size(), 1u);
    EXPECT_EQ(co_await client.remove(*dir, "x"), Status::NoEnt);
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, NfsModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache,
                                           PassMode::Baseline),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// Copy accounting (Table 2) and NCache-specific behaviour
// ---------------------------------------------------------------------------

TEST(NfsCopyCounts, OriginalReadMissIsThreeCopies) {
  EndToEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    // Warm metadata so only the data path is measured.
    (void)co_await client.getattr(e.file_ino);
    e.tb->reset_stats();
    auto r = co_await client.read(e.file_ino, 0, fs::kBlockSize);
    EXPECT_EQ(r.status, Status::Ok);
    // Miss: iSCSI->buffer cache, cache->daemon, daemon->stack.
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 3u);

    e.tb->reset_stats();
    r = co_await client.read(e.file_ino, 0, fs::kBlockSize);
    EXPECT_EQ(r.status, Status::Ok);
    // Hit: cache->daemon, daemon->stack.
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 2u);
  });
}

TEST(NfsCopyCounts, OriginalWritePaths) {
  TestbedConfig cfg;
  cfg.fs_cache_blocks = 64;  // small: flushes happen quickly
  EndToEnd e(PassMode::Original, cfg);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "w.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    e.tb->reset_stats();
    std::vector<std::byte> block(fs::kBlockSize);
    EXPECT_EQ(co_await client.write(*fh, 0, block), Status::Ok);
    // Overwritten-in-cache path: one copy (socket -> page cache).
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 1u);

    // Force the flush: the second copy (page cache -> iSCSI socket).
    co_await e.tb->fs().sync();
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 2u);
  });
}

TEST(NfsCopyCounts, NCacheMovesNoDataBytes) {
  EndToEnd e(PassMode::NCache);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    (void)co_await client.getattr(e.file_ino);
    e.tb->reset_stats();
    auto r = co_await client.read(e.file_ino, 0, 32768);
    EXPECT_EQ(r.status, Status::Ok);
    EXPECT_FALSE(r.junk);
    EXPECT_EQ(fs::verify_content(e.file_ino, 0, r.data.to_bytes()),
              std::size_t(-1));
    // Zero physical copies of regular data on the server; only logical
    // copies of keys.
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 0u);
    EXPECT_GT(e.tb->server_node().copier.stats().logical_copy_ops, 0u);
    EXPECT_GT(e.tb->ncache()->stats().frames_substituted, 0u);
  });
}

TEST(NfsNCache, WriteFlushRemapsIntoLbnCache) {
  TestbedConfig cfg;
  cfg.fs_cache_blocks = 64;
  EndToEnd e(PassMode::NCache, cfg);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "w.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(8 * fs::kBlockSize);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);
    EXPECT_GT(e.tb->ncache()->cache().stats().fho_inserts, 0u);

    co_await e.tb->fs().sync();
    EXPECT_GE(e.tb->ncache()->cache().stats().remaps, 8u);

    // Storage must hold the real bytes (egress substitution materialized
    // the iSCSI write payload).
    auto attr = co_await e.tb->fs().getattr(std::uint32_t(*fh));
    EXPECT_EQ(attr.size, data.size());
    auto r = co_await client.read(*fh, 0, std::uint32_t(data.size() / 2));
    EXPECT_EQ(r.data.to_bytes(),
              std::vector<std::byte>(data.begin(),
                                     data.begin() + long(data.size() / 2)));
  });
}

TEST(NfsNCache, ActsAsSecondLevelCache) {
  TestbedConfig cfg;
  cfg.fs_cache_blocks = 64;  // tiny fs cache, big NCache
  EndToEnd e(PassMode::NCache, cfg);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    // Read 1 MB: populates the LBN cache.
    co_await workload::read_file(client, e.file_ino, 0, 1 << 20, 32768,
                                 nullptr);
    // Evict the (tiny) fs cache, then re-read: the LBN cache absorbs the
    // misses without new storage traffic.
    co_await e.tb->fs().cache().drop_all();
    std::uint64_t target_reads = e.tb->target().stats().reads;
    auto probe_hits = e.tb->ncache()->stats().second_level_hits;
    workload::Stream s;
    co_await workload::read_file(client, e.file_ino, 0, 1 << 20, 32768, &s);
    EXPECT_EQ(s.ops, 32u);
    expect_clean(s);
    // Metadata blocks (inode table, indirect) may be refetched — they are
    // not in the network-centric cache — but no *data* re-reads happen.
    EXPECT_LE(e.tb->target().stats().reads, target_reads + 2);
    EXPECT_GT(e.tb->ncache()->stats().second_level_hits, probe_hits);
  });
}

TEST(NfsClientBehaviour, RetransmitsAndRecovers) {
  EndToEnd e(PassMode::Original);
  // Drop one request frame at the client's egress.
  int dropped = 0;
  e.tb->client_node(0).stack.nic(0).set_egress_filter([&](proto::Frame&) {
    if (dropped == 0) {
      ++dropped;
      return false;
    }
    return true;
  });
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto attr = co_await client.getattr(e.file_ino);
    EXPECT_TRUE(attr);
    EXPECT_EQ(client.stats().retransmits, 1u);
  });
  EXPECT_EQ(dropped, 1);
}

TEST(NfsClientBehaviour, TimesOutAgainstDeadServer) {
  EndToEnd e(PassMode::Original);
  e.tb->nfs_server().stop();
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto attr = co_await client.getattr(e.file_ino);
    EXPECT_FALSE(attr);
    EXPECT_EQ(client.stats().timeouts, 1u);
  });
}

TEST(NfsServerBehaviour, ManyConcurrentClients) {
  TestbedConfig cfg;
  cfg.client_count = 2;
  EndToEnd e(PassMode::NCache, cfg);

  workload::Stream streams[2];
  for (int ci = 0; ci < 2; ++ci) {
    workload::read_file(e.tb->nfs_client(ci), e.file_ino, 0, 256 * 1024,
                        16384, &streams[ci])
        .detach();
  }
  e.tb->loop().run();
  for (const auto& s : streams) {
    EXPECT_EQ(s.ops, 16u);
    expect_clean(s);
  }
}


TEST(NfsServerBehaviour, RenameAcrossDirectories) {
  EndToEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto dir = co_await client.create(fs::kRootIno, "sub", /*directory=*/true);
    EXPECT_TRUE(dir);
    if (!dir) co_return;
    auto fh = co_await client.create(fs::kRootIno, "old.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(8192);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);

    // Move into the subdirectory under a new name.
    EXPECT_EQ(co_await client.rename(fs::kRootIno, "old.bin", *dir, "new.bin"),
              Status::Ok);
    EXPECT_FALSE(co_await client.lookup(fs::kRootIno, "old.bin"));
    auto moved = co_await client.lookup(*dir, "new.bin");
    EXPECT_TRUE(moved);
    if (!moved) co_return;
    EXPECT_EQ(*moved, *fh);  // same inode: contents intact
    auto r = co_await client.read(*moved, 0, 8192);
    EXPECT_EQ(r.data.to_bytes(), data);

    // Error paths: missing source, occupied destination.
    EXPECT_EQ(co_await client.rename(fs::kRootIno, "ghost", *dir, "x"),
              Status::NoEnt);
    auto clash = co_await client.create(*dir, "clash");
    EXPECT_TRUE(clash);
    EXPECT_EQ(co_await client.rename(*dir, "new.bin", *dir, "clash"),
              Status::NoEnt);
  });
}

TEST(NfsServerBehaviour, SetattrTruncateAndExtend) {
  EndToEnd e(PassMode::NCache);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto fh = co_await client.create(fs::kRootIno, "t.bin");
    EXPECT_TRUE(fh);
    if (!fh) co_return;
    std::vector<std::byte> data(4 * fs::kBlockSize);
    fs::fill_content(std::uint32_t(*fh), 0, data);
    EXPECT_EQ(co_await client.write(*fh, 0, data), Status::Ok);

    EXPECT_EQ(co_await client.setattr_size(*fh, fs::kBlockSize), Status::Ok);
    auto attr = co_await client.getattr(*fh);
    EXPECT_EQ(attr->size, fs::kBlockSize);
    // Surviving prefix intact.
    auto r = co_await client.read(*fh, 0, fs::kBlockSize);
    EXPECT_EQ(fs::verify_content(std::uint32_t(*fh), 0, r.data.to_bytes()),
              std::size_t(-1));

    // Extend: reads past the old end are clamped to the new size.
    EXPECT_EQ(co_await client.setattr_size(*fh, 2 * fs::kBlockSize),
              Status::Ok);
    attr = co_await client.getattr(*fh);
    EXPECT_EQ(attr->size, 2 * fs::kBlockSize);
  });
}

TEST(NfsServerBehaviour, StaleFileHandle) {
  EndToEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    auto& client = e.tb->nfs_client(0);
    auto attr = co_await client.getattr(9999);  // beyond inode table
    EXPECT_FALSE(attr);
  });
}

}  // namespace
}  // namespace ncache::nfs
