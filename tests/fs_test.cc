// Tests for SimpleFS: on-disk codecs, the buffer cache (LRU, writeback,
// read-ahead coalescing, capacity budget), file operations end-to-end over
// a local block client, image-builder/mount interop, and large-file
// (indirect/double-indirect) mapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>

#include "fs/buffer_cache.h"
#include "fs/image_builder.h"
#include "fs/simple_fs.h"

namespace ncache::fs {
namespace {

using netbuf::MsgBuffer;

TEST(Layout, SuperBlockRoundTrip) {
  SuperBlock sb = SuperBlock::make(100'000, 4096);
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  sb.serialize(w);
  ByteReader r(buf);
  EXPECT_EQ(SuperBlock::parse(r), sb);
}

TEST(Layout, SuperBlockLayoutIsConsistent) {
  SuperBlock sb = SuperBlock::make(1 << 20, 65536);
  EXPECT_EQ(sb.inode_bitmap_start, 1u);
  EXPECT_LE(sb.inode_bitmap_start + sb.inode_bitmap_blocks,
            sb.block_bitmap_start);
  EXPECT_LE(sb.block_bitmap_start + sb.block_bitmap_blocks,
            sb.inode_table_start);
  EXPECT_LE(sb.inode_table_start + sb.inode_table_blocks, sb.data_start);
  EXPECT_LT(sb.data_start, sb.total_blocks);
  // Enough bitmap bits for every block.
  EXPECT_GE(std::uint64_t(sb.block_bitmap_blocks) * kBlockSize * 8,
            sb.total_blocks);
}

TEST(Layout, SuperBlockRejectsTinyVolume) {
  EXPECT_THROW(SuperBlock::make(4, 1024), std::invalid_argument);
}

TEST(Layout, BadMagicRejected) {
  std::vector<std::byte> buf(64);
  ByteReader r(buf);
  EXPECT_THROW(SuperBlock::parse(r), std::runtime_error);
}

TEST(Layout, DiskInodeRoundTripExactSize) {
  DiskInode in;
  in.type = InodeType::File;
  in.nlink = 3;
  in.size = 0x123456789aULL;
  in.block_count = 77;
  for (std::size_t i = 0; i < kDirectBlocks; ++i) {
    in.direct[i] = std::uint32_t(100 + i);
  }
  in.indirect = 500;
  in.double_indirect = 501;

  std::vector<std::byte> buf;
  ByteWriter w(buf);
  in.serialize(w);
  EXPECT_EQ(buf.size(), kInodeSize);
  ByteReader r(buf);
  EXPECT_EQ(DiskInode::parse(r), in);
}

TEST(Layout, DirentRoundTripAndLimits) {
  Dirent d{42, InodeType::File, "hello.txt"};
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  d.serialize(w);
  EXPECT_EQ(buf.size(), kDirentSize);
  ByteReader r(buf);
  Dirent q = Dirent::parse(r);
  EXPECT_EQ(q.ino, 42u);
  EXPECT_EQ(q.name, "hello.txt");

  Dirent too_long{1, InodeType::File, std::string(kMaxNameLen + 1, 'x')};
  std::vector<std::byte> buf2;
  ByteWriter w2(buf2);
  EXPECT_THROW(too_long.serialize(w2), std::invalid_argument);
}

TEST(Layout, BitmapOps) {
  std::vector<std::byte> bits(16);
  EXPECT_FALSE(bitmap_test(bits, 9));
  bitmap_set(bits, 9, true);
  EXPECT_TRUE(bitmap_test(bits, 9));
  bitmap_set(bits, 9, false);
  EXPECT_FALSE(bitmap_test(bits, 9));

  for (int i = 0; i < 5; ++i) bitmap_set(bits, i, true);
  auto found = bitmap_find_clear(bits, 0, 128);
  EXPECT_TRUE(found);
  EXPECT_EQ(*found, 5u);
  // Rotor wrap-around.
  auto wrapped = bitmap_find_clear(bits, 100, 101);
  EXPECT_TRUE(wrapped);
  EXPECT_EQ(*wrapped, 100u);
}

TEST(Layout, LocateInode) {
  SuperBlock sb = SuperBlock::make(10'000, 1024);
  auto loc0 = locate_inode(sb, 1);
  EXPECT_EQ(loc0.block, sb.inode_table_start);
  EXPECT_EQ(loc0.offset, kInodeSize);
  auto loc33 = locate_inode(sb, 33);
  EXPECT_EQ(loc33.block, sb.inode_table_start + 1);
  EXPECT_EQ(loc33.offset, kInodeSize);
  EXPECT_THROW(locate_inode(sb, 0), std::out_of_range);
  EXPECT_THROW(locate_inode(sb, 1024), std::out_of_range);
}

TEST(Content, DeterministicAndVerifiable) {
  std::vector<std::byte> buf(1000);
  fill_content(7, 123, buf);
  EXPECT_EQ(verify_content(7, 123, buf), std::size_t(-1));
  buf[500] ^= std::byte{1};
  EXPECT_EQ(verify_content(7, 123, buf), 500u);
  // Different inode -> different content.
  std::vector<std::byte> other(1000);
  fill_content(8, 123, other);
  EXPECT_NE(buf, other);
}

TEST(Content, KernelMatchesReferenceByte) {
  // Offsets straddle 256-byte periods and 4 KB blocks, and reach past the
  // 32-bit truncation content_byte applies to the offset.
  const std::uint32_t inos[] = {0, 1, 7, 65537, 0x9e3779b9u, 0xffffffffu};
  const std::uint64_t offsets[] = {0,    1,    200,  255,   256,
                                   3000, 4000, 4095, 12290, (1ull << 32) + 4000,
                                   (1ull << 44) + 12345};
  const std::size_t lengths[] = {0, 1, 255, 257, 4095, 4097, 9000};
  for (std::uint32_t ino : inos) {
    for (std::uint64_t off : offsets) {
      for (std::size_t len : lengths) {
        std::vector<std::byte> buf(len);
        fill_content(ino, off, buf);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(buf[i], content_byte(ino, off + i))
              << "ino " << ino << " offset " << off << " + " << i;
        }
        ASSERT_EQ(verify_content(ino, off, buf), std::size_t(-1))
            << "ino " << ino << " offset " << off << " length " << len;
      }
    }
  }
}

TEST(Content, VerifyReportsExactlyTheFlippedByte) {
  const std::uint32_t ino = 4000000007u;
  const std::uint64_t off = 3796;  // 44 bytes before a period boundary,
                                   // 300 before a block boundary
  std::vector<std::byte> ref(9000);
  fill_content(ino, off, ref);
  for (std::size_t at : {std::size_t(0), std::size_t(1234), std::size_t(44),
                         std::size_t(299), std::size_t(300),
                         std::size_t(8999)}) {
    std::vector<std::byte> bad = ref;
    bad[at] ^= std::byte{0x10};
    EXPECT_EQ(verify_content(ino, off, bad), at);
  }
}

// ---------------------------------------------------------------------------
// Fixture: SimpleFS over a local block client
// ---------------------------------------------------------------------------

class FsTest : public ::testing::Test {
 protected:
  FsTest()
      : cpu_(loop_, "cpu"),
        copier_(cpu_, costs_),
        store_(loop_, costs_, "disk", 16384),  // 64 MB volume
        client_(store_, copier_),
        fs_(loop_, client_, /*cache_blocks=*/256) {}

  void mkfs_mount() {
    auto t_fn = [&]() -> Task<void> {
      co_await fs_.mkfs(16384, 1024);
      co_await fs_.mount();
    };
    sim::sync_wait(loop_, t_fn());
  }

  template <typename F>
  void run(F&& body) {
    auto t_fn = [&]() -> Task<void> { co_await body(); };
    sim::sync_wait(loop_, t_fn());
  }

  sim::EventLoop loop_;
  sim::CostModel costs_{};
  sim::CpuModel cpu_;
  netbuf::CopyEngine copier_;
  blockdev::BlockStore store_;
  iscsi::LocalBlockClient client_;
  SimpleFs fs_;
};

TEST_F(FsTest, MkfsMountRoundTrip) {
  mkfs_mount();
  EXPECT_TRUE(fs_.mounted());
  EXPECT_EQ(fs_.superblock().total_blocks, 16384u);
  run([&]() -> Task<void> {
    FileAttr root = co_await fs_.getattr(kRootIno);
    EXPECT_EQ(root.type, InodeType::Directory);
  });
}

TEST_F(FsTest, CreateLookupGetattr) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "a.dat", InodeType::File);
    EXPECT_NE(ino, 0u);
    auto found = co_await fs_.lookup(kRootIno, "a.dat");
    EXPECT_TRUE(found);
    if (!found) co_return;
    EXPECT_EQ(*found, ino);
    EXPECT_FALSE(co_await fs_.lookup(kRootIno, "missing"));
    FileAttr attr = co_await fs_.getattr(ino);
    EXPECT_EQ(attr.type, InodeType::File);
    EXPECT_EQ(attr.size, 0u);
  });
}

TEST_F(FsTest, CreateDuplicateFails) {
  mkfs_mount();
  run([&]() -> Task<void> {
    EXPECT_NE(co_await fs_.create(kRootIno, "x", InodeType::File), 0u);
    EXPECT_EQ(co_await fs_.create(kRootIno, "x", InodeType::File), 0u);
  });
}

TEST_F(FsTest, WriteReadBackSmall) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "f", InodeType::File);
    std::vector<std::byte> data(1000);
    fill_content(99, 0, data);
    std::uint32_t n =
        co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data));
    EXPECT_EQ(n, 1000u);
    FileAttr attr = co_await fs_.getattr(ino);
    EXPECT_EQ(attr.size, 1000u);
    MsgBuffer got = co_await fs_.read(ino, 0, 2000);  // clamped at EOF
    EXPECT_EQ(got.size(), 1000u);
    EXPECT_EQ(got.to_bytes(), data);
  });
}

TEST_F(FsTest, WriteAcrossBlockBoundaries) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "f", InodeType::File);
    std::vector<std::byte> data(3 * kBlockSize + 500);
    fill_content(5, 0, data);
    EXPECT_EQ(co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data)),
              data.size());
    // Overwrite a range straddling blocks 1-2.
    std::vector<std::byte> patch(kBlockSize);
    fill_content(77, 0, patch);
    EXPECT_EQ(co_await fs_.write(ino, kBlockSize + 100,
                                 MsgBuffer::from_bytes(patch)),
              patch.size());
    std::memcpy(data.data() + kBlockSize + 100, patch.data(), patch.size());
    MsgBuffer got = co_await fs_.read(ino, 0, std::uint32_t(data.size()));
    EXPECT_EQ(got.to_bytes(), data);
  });
}

TEST_F(FsTest, SparseWriteReadsHoleAsFiller) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "s", InodeType::File);
    std::vector<std::byte> tail(100);
    fill_content(3, 0, tail);
    // Write at 3 blocks in; blocks 0-2 become holes.
    co_await fs_.write(ino, 3 * kBlockSize, MsgBuffer::from_bytes(tail));
    FileAttr attr = co_await fs_.getattr(ino);
    EXPECT_EQ(attr.size, 3 * kBlockSize + 100);
    MsgBuffer got = co_await fs_.read(ino, 0, std::uint32_t(attr.size));
    EXPECT_EQ(got.size(), attr.size);
    // The hole region is junk/filler; the tail bytes must be exact.
    MsgBuffer tail_got = co_await fs_.read(ino, 3 * kBlockSize, 100);
    EXPECT_EQ(tail_got.to_bytes(), tail);
  });
}

TEST_F(FsTest, LargeFileThroughIndirects) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "big", InodeType::File);
    // 13 MB: direct (48 KB) + indirect (4 MB) + into double-indirect.
    const std::uint64_t size = 13ull * 1024 * 1024;
    std::vector<std::byte> chunk(64 * 1024);
    for (std::uint64_t off = 0; off < size; off += chunk.size()) {
      fill_content(ino, off, chunk);
      EXPECT_EQ(co_await fs_.write(ino, off, MsgBuffer::from_bytes(chunk)),
                chunk.size());
    }
    FileAttr attr = co_await fs_.getattr(ino);
    EXPECT_EQ(attr.size, size);

    // Spot-check reads at each mapping tier.
    for (std::uint64_t off : {0ull, 40ull * 1024, 1000ull * 1024,
                              5000ull * 1024, 12ull * 1024 * 1024}) {
      MsgBuffer got = co_await fs_.read(ino, off, 8192);
      auto bytes = got.to_bytes();
      EXPECT_EQ(verify_content(ino, off, bytes), std::size_t(-1))
          << "mismatch at offset " << off;
    }
  });
}

TEST_F(FsTest, RemoveFreesAndForgets) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "gone", InodeType::File);
    std::vector<std::byte> data(2 * kBlockSize);
    co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data));
    EXPECT_TRUE(co_await fs_.remove(kRootIno, "gone"));
    EXPECT_FALSE(co_await fs_.lookup(kRootIno, "gone"));
    EXPECT_FALSE(co_await fs_.remove(kRootIno, "gone"));
    // Freed space is reusable: create a new file of the same size.
    std::uint32_t again = co_await fs_.create(kRootIno, "new", InodeType::File);
    EXPECT_EQ(co_await fs_.write(again, 0, MsgBuffer::from_bytes(data)),
              data.size());
  });
}

TEST_F(FsTest, ReaddirListsEntries) {
  mkfs_mount();
  run([&]() -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      EXPECT_NE(co_await fs_.create(kRootIno, "file" + std::to_string(i),
                                    InodeType::File),
                0u);
    }
    auto entries = co_await fs_.readdir(kRootIno);
    EXPECT_EQ(entries.size(), 100u);
  });
}

TEST_F(FsTest, TruncateShrinkAndRegrow) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "t", InodeType::File);
    std::vector<std::byte> data(4 * kBlockSize);
    fill_content(ino, 0, data);
    co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data));
    EXPECT_TRUE(co_await fs_.truncate(ino, kBlockSize));
    FileAttr attr = co_await fs_.getattr(ino);
    EXPECT_EQ(attr.size, kBlockSize);
    // Regrow: new blocks must be freshly allocated, old bytes intact.
    std::vector<std::byte> more(kBlockSize);
    fill_content(ino, kBlockSize, more);
    co_await fs_.write(ino, kBlockSize, MsgBuffer::from_bytes(more));
    MsgBuffer got = co_await fs_.read(ino, 0, 2 * kBlockSize);
    EXPECT_EQ(verify_content(ino, 0, got.to_bytes()), std::size_t(-1));
  });
}

TEST_F(FsTest, SyncPersistsThroughRemount) {
  mkfs_mount();
  std::uint32_t ino = 0;
  run([&]() -> Task<void> {
    ino = co_await fs_.create(kRootIno, "p", InodeType::File);
    std::vector<std::byte> data(kBlockSize * 2);
    fill_content(ino, 0, data);
    co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data));
    co_await fs_.sync();
  });

  // A second fs instance over the same store must see everything.
  SimpleFs fs2(loop_, client_, 64);
  run([&]() -> Task<void> {
    co_await fs2.mount();
    auto found = co_await fs2.lookup(kRootIno, "p");
    EXPECT_TRUE(found);
    if (!found) co_return;
    EXPECT_EQ(*found, ino);
    MsgBuffer got = co_await fs2.read(*found, 0, 2 * kBlockSize);
    EXPECT_EQ(verify_content(ino, 0, got.to_bytes()), std::size_t(-1));
  });
}

TEST_F(FsTest, ImageBuilderMountsAndVerifies) {
  FsImageBuilder builder(store_, 16384, 1024);
  std::uint32_t f1 = builder.add_file("data1.bin", 100'000);
  std::uint32_t f2 = builder.add_file("data2.bin", 5'000'000);  // indirect
  std::uint32_t sub = builder.add_dir("subdir");
  std::uint32_t f3 = builder.add_file("nested.bin", 5'000, sub);
  EXPECT_NE(f1, 0u);
  EXPECT_NE(f2, 0u);
  EXPECT_NE(f3, 0u);
  builder.finish();

  run([&]() -> Task<void> {
    co_await fs_.mount();
    auto i1 = co_await fs_.lookup(kRootIno, "data1.bin");
    EXPECT_TRUE(i1);
    if (!i1) co_return;
    FileAttr a1 = co_await fs_.getattr(*i1);
    EXPECT_EQ(a1.size, 100'000u);
    MsgBuffer got = co_await fs_.read(*i1, 12'345, 4'000);
    EXPECT_EQ(verify_content(*i1, 12'345, got.to_bytes()), std::size_t(-1));

    auto i2 = co_await fs_.lookup(kRootIno, "data2.bin");
    EXPECT_TRUE(i2);
    if (!i2) co_return;
    MsgBuffer deep = co_await fs_.read(*i2, 4'900'000, 8'192);
    EXPECT_EQ(verify_content(*i2, 4'900'000, deep.to_bytes()), std::size_t(-1));

    auto isub = co_await fs_.lookup(kRootIno, "subdir");
    EXPECT_TRUE(isub);
    if (!isub) co_return;
    auto i3 = co_await fs_.lookup(*isub, "nested.bin");
    EXPECT_TRUE(i3);
    if (!i3) co_return;
    EXPECT_EQ(*i3, f3);
  });
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) h = (h ^ std::uint64_t(b)) * 0x100000001b3ull;
  return h;
}

// Hash of every block of a fixed image as read back, pinned across
// commits. It was recorded from a builder that wrote every data byte, so
// extents synthesized on read plus the poked metadata must reproduce that
// image byte for byte.
constexpr std::uint64_t kGoldenImageHash = 7189959404795162962ull;

TEST_F(FsTest, ImageBuilderBytesArePinned) {
  FsImageBuilder builder(store_, 16384, 1024);
  // 2100 full blocks + a tail: direct -> single-indirect -> two
  // double-indirect L1 blocks (the second L1 starts at file block 2060).
  const std::uint64_t big_size = 2100ull * kBlockSize + 1234;
  std::uint32_t big = builder.add_file("big.bin", big_size);
  ASSERT_NE(big, 0u);
  // 70 more root entries: the root directory spans two blocks.
  for (int i = 0; i < 70; ++i) {
    ASSERT_NE(builder.add_file("f" + std::to_string(i), std::uint64_t(i) * 300),
              0u);
  }
  std::uint32_t sub = builder.add_dir("sub");
  ASSERT_NE(sub, 0u);
  ASSERT_NE(builder.add_file("nested.bin", 3 * kBlockSize, sub), 0u);
  std::vector<std::byte> explicit_bytes(5000);
  for (std::size_t i = 0; i < explicit_bytes.size(); ++i) {
    explicit_bytes[i] = std::byte((i * 31 + 5) & 0xff);
  }
  ASSERT_NE(builder.add_file_with_content("explicit.bin", explicit_bytes, sub),
            0u);
  builder.finish();

  const std::uint64_t used = builder.blocks_used();
  auto image = store_.peek(0, std::uint32_t(used));
  EXPECT_EQ(fnv1a(image), kGoldenImageHash) << "image of " << used << " blocks";

  // The first file's data starts at data_start: its direct blocks are the
  // first twelve blocks of the data area.
  const std::uint64_t data_lbn = builder.superblock().data_start;
  std::vector<std::byte> poked(kBlockSize, std::byte{0xA5});
  store_.poke(data_lbn + 3, poked);
  EXPECT_EQ(store_.peek(data_lbn + 3, 1), poked);
  std::vector<std::byte> written(kBlockSize, std::byte{0x5A});
  run([&]() -> Task<void> {
    co_await store_.write(data_lbn + 5, written);
    auto got = co_await store_.read(data_lbn + 3, 4);
    EXPECT_TRUE(got.ok);
    std::span<const std::byte> all(got.data);
    EXPECT_TRUE(std::equal(poked.begin(), poked.end(), all.begin()));
    EXPECT_EQ(verify_content(big, 4 * kBlockSize, all.subspan(kBlockSize,
                                                              kBlockSize)),
              std::size_t(-1));
    EXPECT_TRUE(std::equal(written.begin(), written.end(),
                           all.begin() + 2 * kBlockSize));
    EXPECT_EQ(verify_content(big, 6 * kBlockSize, all.subspan(3 * kBlockSize)),
              std::size_t(-1));

    // Past the image: never mapped, never written.
    auto beyond = co_await store_.read(used, 2);
    EXPECT_TRUE(beyond.ok);
    EXPECT_TRUE(std::all_of(beyond.data.begin(), beyond.data.end(),
                            [](std::byte b) { return b == std::byte{0}; }));
  });
}

TEST_F(FsTest, ImageBuilderManyFilesInRoot) {
  FsImageBuilder builder(store_, 16384, 4096);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_NE(builder.add_file("f" + std::to_string(i), 128), 0u);
  }
  builder.finish();
  run([&]() -> Task<void> {
    co_await fs_.mount();
    auto entries = co_await fs_.readdir(kRootIno);
    EXPECT_EQ(entries.size(), 2000u);
    auto found = co_await fs_.lookup(kRootIno, "f1999");
    EXPECT_TRUE(found);
  });
}

// ---------------------------------------------------------------------------
// Buffer cache behaviour
// ---------------------------------------------------------------------------

TEST_F(FsTest, CacheHitsAfterFirstRead) {
  mkfs_mount();
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "h", InodeType::File);
    std::vector<std::byte> data(8 * kBlockSize);
    co_await fs_.write(ino, 0, MsgBuffer::from_bytes(data));
    co_await fs_.sync();
    const auto hits_before = fs_.cache().stats().hits;
    (void)co_await fs_.read(ino, 0, 8 * kBlockSize);
    auto first_misses = fs_.cache().stats().misses;
    (void)co_await fs_.read(ino, 0, 8 * kBlockSize);
    EXPECT_EQ(fs_.cache().stats().misses, first_misses);
    EXPECT_GE(fs_.cache().stats().hits - hits_before, 8u);
  });
}

TEST_F(FsTest, CacheCapacityTriggersEvictionAndWriteback) {
  mkfs_mount();
  fs_.cache().set_capacity(32);
  run([&]() -> Task<void> {
    std::uint32_t ino = co_await fs_.create(kRootIno, "e", InodeType::File);
    // Write 128 dirty blocks through a 32-block cache: evictions must
    // flush dirty data, and reading everything back must still verify.
    std::vector<std::byte> chunk(kBlockSize);
    for (std::uint64_t fb = 0; fb < 128; ++fb) {
      fill_content(ino, fb * kBlockSize, chunk);
      co_await fs_.write(ino, fb * kBlockSize, MsgBuffer::from_bytes(chunk));
    }
    EXPECT_GT(fs_.cache().stats().writebacks, 0u);
    EXPECT_GT(fs_.cache().stats().evictions, 0u);
    EXPECT_LE(fs_.cache().size(), 40u);  // small transient overflow allowed

    for (std::uint64_t fb : {0ull, 64ull, 127ull}) {
      MsgBuffer got = co_await fs_.read(ino, fb * kBlockSize, kBlockSize);
      EXPECT_EQ(verify_content(ino, fb * kBlockSize, got.to_bytes()),
                std::size_t(-1));
    }
  });
}

TEST_F(FsTest, ReadCoalescesContiguousBlocks) {
  FsImageBuilder builder(store_, 16384, 256);
  std::uint32_t ino = builder.add_file("c.bin", 64 * kBlockSize);
  builder.finish();
  run([&]() -> Task<void> {
    co_await fs_.mount();
    (void)co_await fs_.getattr(ino);  // warm the inode-table block
    const auto misses_before = fs_.cache().stats().misses;
    std::uint64_t reads_before = store_.reads();
    // 8 contiguous blocks -> one block-client command.
    (void)co_await fs_.read(ino, 0, 8 * kBlockSize);
    EXPECT_EQ(store_.reads() - reads_before, 1u);
    EXPECT_EQ(fs_.cache().stats().misses - misses_before, 8u);
  });
}

TEST_F(FsTest, ReadaheadPrefetchesBeyondRequest) {
  FsImageBuilder builder(store_, 16384, 256);
  std::uint32_t ino = builder.add_file("ra.bin", 64 * kBlockSize);
  builder.finish();
  fs_.cache().set_readahead(4);
  run([&]() -> Task<void> {
    co_await fs_.mount();
    const auto ra_before = fs_.cache().stats().readahead_blocks;
    (void)co_await fs_.read(ino, 0, 4 * kBlockSize);
    EXPECT_GE(fs_.cache().stats().readahead_blocks - ra_before, 4u);
    // The next sequential read is served entirely from the cache: its
    // blocks were prefetched, so no new *required* misses appear (the
    // extension itself prefetches further, counting as read-ahead only).
    auto misses = fs_.cache().stats().misses;
    (void)co_await fs_.read(ino, 4 * kBlockSize, 4 * kBlockSize);
    EXPECT_EQ(fs_.cache().stats().misses, misses);
    EXPECT_GE(fs_.cache().stats().readahead_blocks - ra_before, 8u);
  });
}

// Free coroutine (not a capturing lambda) so the frame owns its arguments
// and nothing dangles once the for-loop iteration ends.
Task<void> read_and_verify(SimpleFs& fs, std::uint32_t ino, int* done) {
  MsgBuffer got = co_await fs.read(ino, 0, 8 * kBlockSize);
  EXPECT_EQ(verify_content(ino, 0, got.to_bytes()), std::size_t(-1));
  ++*done;
}

TEST_F(FsTest, ConcurrentReadersDedupFetches) {
  FsImageBuilder builder(store_, 16384, 256);
  std::uint32_t ino = builder.add_file("d.bin", 16 * kBlockSize);
  builder.finish();
  run([&]() -> Task<void> {
    co_await fs_.mount();
    (void)co_await fs_.getattr(ino);  // warm the inode-table block
  });

  std::uint64_t reads_before = store_.reads();
  int done = 0;
  for (int r = 0; r < 4; ++r) {
    read_and_verify(fs_, ino, &done).detach();
  }
  loop_.run();
  EXPECT_EQ(done, 4);
  // All four readers share one fetch of the 8 blocks.
  EXPECT_EQ(store_.reads() - reads_before, 1u);
}

}  // namespace
}  // namespace ncache::fs
