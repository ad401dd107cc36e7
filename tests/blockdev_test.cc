// Tests for the disk subsystem: spindle timing, RAID-0 striping and
// parallelism, and the sparse block store contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "blockdev/block_store.h"

namespace ncache::blockdev {
namespace {

std::vector<std::byte> block_pattern(std::size_t blocks, int seed) {
  std::vector<std::byte> v(blocks * kBlockSize);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::byte((i * 7 + seed) & 0xff);
  }
  return v;
}

TEST(Disk, SequentialSkipsSeek) {
  sim::EventLoop loop;
  sim::CostModel costs;
  DiskModel d(loop, costs, "d0");
  d.access(0, 65536, nullptr);      // head starts at 0: sequential
  d.access(65536, 65536, nullptr);  // sequential successor
  d.access(500 << 20, 65536, nullptr);  // far jump: full seek
  d.access((500 << 20) + 65536 + 4096, 65536, nullptr);  // near band: no seek
  loop.run();
  EXPECT_EQ(d.requests(), 4u);
  EXPECT_EQ(d.seeks(), 1u);
}

TEST(Disk, TimingMatchesModel) {
  sim::EventLoop loop;
  sim::CostModel costs;
  DiskModel d(loop, costs, "d0");
  sim::Time done = 0;
  d.access(0, 65536, [&] { done = loop.now(); });
  loop.run();
  // No seek (sequential from 0): command + transfer.
  sim::Duration expect =
      costs.disk_command_ns +
      sim::Duration(65536.0 * 8e9 / double(costs.disk_bandwidth_bps));
  EXPECT_EQ(done, expect);
}

TEST(Disk, QueueingSerializes) {
  sim::EventLoop loop;
  sim::CostModel costs;
  DiskModel d(loop, costs, "d0");
  sim::Time t1 = 0, t2 = 0;
  d.access(0, 65536, [&] { t1 = loop.now(); });
  d.access(65536, 65536, [&] { t2 = loop.now(); });
  loop.run();
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(double(t2), 2.0 * double(t1), double(t1) * 0.01);
}

TEST(Raid0, StripesAcrossDisksInParallel) {
  sim::EventLoop loop;
  sim::CostModel costs;
  Raid0 raid(loop, costs, "r", 4, 64 * 1024);
  sim::Time raid_done = 0;
  raid.access(0, 256 * 1024, [&] { raid_done = loop.now(); });  // 4 stripes
  loop.run();

  DiskModel single(loop, costs, "s");
  sim::Time single_start = loop.now();
  sim::Time single_done = 0;
  single.access(0, 256 * 1024, [&] { single_done = loop.now(); });
  loop.run();

  // 4-way parallel must be well under the single-disk time.
  EXPECT_LT(raid_done, (single_done - single_start) / 2);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(raid.disk(i).requests(), 1u);
  }
}

TEST(Raid0, SmallRequestHitsOneDisk) {
  sim::EventLoop loop;
  sim::CostModel costs;
  Raid0 raid(loop, costs, "r", 4, 64 * 1024);
  bool done = false;
  raid.access(64 * 1024, 4096, [&] { done = true; });  // second stripe
  loop.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(raid.disk(0).requests(), 0u);
  EXPECT_EQ(raid.disk(1).requests(), 1u);
}

TEST(BlockStore, ReadBackWhatWasWritten) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 1024);
  auto data = block_pattern(3, 5);

  auto task_fn = [&]() -> Task<void> {
    co_await store.write(10, data);
    auto got = co_await store.read(10, 3);
    EXPECT_TRUE(got.ok);
    EXPECT_EQ(got.data, data);
  };
  sim::sync_wait(loop, task_fn());
  EXPECT_EQ(store.writes(), 1u);
  EXPECT_EQ(store.reads(), 1u);
}

TEST(BlockStore, UnwrittenBlocksReadZero) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 64);
  auto got = store.peek(5, 1);
  EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

TEST(BlockStore, PokePeekBypassTiming) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 64);
  auto data = block_pattern(1, 9);
  store.poke(7, data);
  EXPECT_EQ(store.peek(7, 1), data);
  EXPECT_EQ(loop.now(), 0u);  // no simulated time consumed
}

TEST(BlockStore, RangeChecks) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 8);
  EXPECT_THROW(store.peek(8, 1), std::out_of_range);
  EXPECT_THROW(store.peek(7, 2), std::out_of_range);
  EXPECT_THROW(store.poke(0, std::vector<std::byte>(100)),
               std::invalid_argument);
}

/// Procedural content for extent tests: distinct per (ino, byte offset).
void test_content(std::uint32_t ino, std::uint64_t offset,
                  std::span<std::byte> out) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::byte(((offset + i) * 7 + ino * 29 + (offset + i) / 4096) &
                       0xff);
  }
}

std::vector<std::byte> test_block(std::uint32_t ino, std::uint64_t offset) {
  std::vector<std::byte> v(kBlockSize);
  test_content(ino, offset, v);
  return v;
}

TEST(BlockStore, ExtentsSynthesizeUntilWritten) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 64);
  store.map_extent(10, 4, 3, 8192, &test_content);
  store.map_extent(20, 2, 5, 0, &test_content);
  EXPECT_THROW(store.map_extent(13, 2, 9, 0, &test_content),
               std::invalid_argument);
  EXPECT_THROW(store.map_extent(8, 3, 9, 0, &test_content),
               std::invalid_argument);

  auto run = store.peek(9, 6);  // zeros, the extent, zeros
  std::vector<std::byte> zero(kBlockSize);
  EXPECT_TRUE(std::equal(zero.begin(), zero.end(), run.begin()));
  for (std::uint64_t i = 0; i < 4; ++i) {
    auto want = test_block(3, 8192 + i * kBlockSize);
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           run.begin() + (1 + i) * kBlockSize))
        << "block " << 10 + i;
  }
  EXPECT_TRUE(std::equal(zero.begin(), zero.end(), run.begin() + 5 * kBlockSize));
  EXPECT_EQ(store.peek(21, 1), test_block(5, kBlockSize));

  auto data = block_pattern(1, 3);
  store.poke(11, data);
  auto task_fn = [&]() -> Task<void> {
    co_await store.write(12, block_pattern(1, 4));
    auto got = co_await store.read(10, 4);
    EXPECT_TRUE(got.ok);
    std::vector<std::byte> want = test_block(3, 8192);
    want.insert(want.end(), data.begin(), data.end());
    auto written = block_pattern(1, 4);
    want.insert(want.end(), written.begin(), written.end());
    auto last = test_block(3, 8192 + 3 * kBlockSize);
    want.insert(want.end(), last.begin(), last.end());
    EXPECT_EQ(got.data, want);
  };
  sim::sync_wait(loop, task_fn());
}

TEST(BlockStore, ChecksumFaultCaughtOnEveryKindOfBlock) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 64);
  store.map_extent(10, 4, 3, 0, &test_content);
  store.poke(20, block_pattern(1, 6));
  const std::vector<std::byte> want[] = {test_block(3, kBlockSize),
                                         block_pattern(1, 6),
                                         std::vector<std::byte>(kBlockSize)};
  const std::uint64_t lbns[] = {11, 20, 30};  // synthesized, poked, unwritten
  for (int k = 0; k < 3; ++k) {
    store.inject_read_fault(lbns[k], 1, DiskFaultKind::ChecksumMismatch);
    std::uint64_t mismatches = store.checksum_mismatches();
    std::uint64_t errors = store.read_errors();
    auto task_fn = [&]() -> Task<void> {
      auto bad = co_await store.read(lbns[k], 1);
      EXPECT_FALSE(bad.ok) << "lbn " << lbns[k];
      EXPECT_EQ(store.checksum_mismatches(), mismatches + 1);
      EXPECT_EQ(store.read_errors(), errors + 1);
      auto healed = co_await store.read(lbns[k], 1);
      EXPECT_TRUE(healed.ok) << "lbn " << lbns[k];
      EXPECT_EQ(healed.data, want[k]);
      // The healed range stays verified and clean alongside its neighbours.
      auto wide = co_await store.read(lbns[k] - 1, 3);
      EXPECT_TRUE(wide.ok);
    };
    sim::sync_wait(loop, task_fn());
    EXPECT_EQ(store.checksum_mismatches(), mismatches + 1);
  }
}

TEST(BlockStore, WritesRefreshArmedChecksums) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 64);
  store.map_extent(0, 16, 1, 0, &test_content);
  store.inject_read_fault(4, 4, DiskFaultKind::ChecksumMismatch);
  auto task_fn = [&]() -> Task<void> {
    // Asynchronous and synchronous writes over synthesized blocks of the
    // armed range, then the fault's one real shot, then clean reads.
    co_await store.write(4, block_pattern(2, 8));
    store.poke(7, block_pattern(1, 9));
    auto failed = co_await store.read(4, 4);
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(store.checksum_mismatches(), 1u);
    auto got = co_await store.read(3, 6);
    EXPECT_TRUE(got.ok);
    auto written = block_pattern(2, 8);
    EXPECT_TRUE(std::equal(written.begin(), written.end(),
                           got.data.begin() + kBlockSize));
    co_await store.write(5, block_pattern(1, 10));
    EXPECT_TRUE((co_await store.read(4, 4)).ok);
  };
  sim::sync_wait(loop, task_fn());
  EXPECT_EQ(store.read_errors(), 1u);
  EXPECT_EQ(store.checksum_mismatches(), 1u);
}

TEST(BlockStore, ReadTimingScalesWithSize) {
  sim::EventLoop loop;
  sim::CostModel costs;
  BlockStore store(loop, costs, "st", 4096);

  auto t_small_fn = [&]() -> Task<void> { (void)co_await store.read(0, 1); };
  sim::sync_wait(loop, t_small_fn());
  sim::Time small = loop.now();

  BlockStore store2(loop, costs, "st2", 4096);
  auto t_big_fn = [&]() -> Task<void> { (void)co_await store2.read(0, 256); };
  sim::Time before = loop.now();
  sim::sync_wait(loop, t_big_fn());
  EXPECT_GT(loop.now() - before, small / 2);
}

}  // namespace
}  // namespace ncache::blockdev
