// Unit tests for the netbuf module: sk_buff-style buffers, pinned pools,
// cache keys, MsgBuffer segment algebra, and the copy engine's
// accounting (which Table 2 is regenerated from).
#include <gtest/gtest.h>

#include <cstring>

#include "netbuf/cache_key.h"
#include "netbuf/copy_engine.h"
#include "netbuf/msg_buffer.h"
#include "netbuf/net_buffer.h"
#include "netbuf/slab_cache.h"

namespace ncache::netbuf {
namespace {

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::byte((i * 31 + seed) & 0xff);
  return v;
}

TEST(NetBuffer, PushPullPutTrim) {
  NetBuffer b(64, 256);
  EXPECT_EQ(b.headroom(), 64u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.tailroom(), 256u);

  auto pat = pattern(100);
  b.append(pat);
  EXPECT_EQ(b.size(), 100u);

  std::byte* hdr = b.push(14);
  EXPECT_EQ(b.headroom(), 50u);
  EXPECT_EQ(b.size(), 114u);
  std::memset(hdr, 0xee, 14);

  std::byte* old = b.pull(14);
  EXPECT_EQ(std::to_integer<int>(*old), 0xee);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(std::equal(pat.begin(), pat.end(), b.data().begin()));

  b.trim(10);
  EXPECT_EQ(b.size(), 10u);
}

TEST(NetBuffer, BoundsViolationsThrow) {
  NetBuffer b(8, 16);
  EXPECT_THROW(b.push(9), std::length_error);
  EXPECT_THROW(b.pull(1), std::length_error);
  EXPECT_THROW(b.put(17), std::length_error);
  b.put(4);
  EXPECT_THROW(b.trim(5), std::length_error);
}

TEST(BufferPool, BudgetEnforced) {
  BufferPool pool("p", 3 * (4096 + 128 + BufferPool::kPerBufferOverhead));
  auto a = pool.allocate(4096);
  auto b = pool.allocate(4096);
  auto c = pool.allocate(4096);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(pool.allocate(4096), nullptr);
  EXPECT_EQ(pool.failures(), 1u);

  // Releasing one makes room again.
  a.reset();
  EXPECT_NE(pool.allocate(4096), nullptr);
}

TEST(BufferPool, InUseTracksLifetime) {
  BufferPool pool("p", 1 << 20);
  EXPECT_EQ(pool.in_use(), 0u);
  {
    auto a = pool.allocate(1000, 100);
    EXPECT_EQ(pool.in_use(), 1100 + BufferPool::kPerBufferOverhead);
  }
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(BufferPool, AdoptChargesAndMoves) {
  BufferPool pool("p", 1 << 20);
  auto buf = make_buffer(2048, 0);
  ASSERT_TRUE(pool.adopt(*buf));
  EXPECT_EQ(pool.in_use(), 2048 + BufferPool::kPerBufferOverhead);
  buf.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(BufferPool, AdoptRejectsWhenFull) {
  BufferPool pool("p", 100);
  auto buf = make_buffer(2048, 0);
  EXPECT_FALSE(pool.adopt(*buf));
  EXPECT_EQ(buf->pool(), nullptr);
}

TEST(BufferPool, AdoptAfterReleaseRebalancesInUse) {
  BufferPool a("a", 1 << 20);
  BufferPool b("b", 1 << 20);
  auto buf = a.allocate(1000, 100);
  ASSERT_TRUE(buf);
  std::size_t charge = 1100 + BufferPool::kPerBufferOverhead;
  EXPECT_EQ(a.in_use(), charge);
  ASSERT_TRUE(b.adopt(*buf));  // moves the charge from a to b
  EXPECT_EQ(a.in_use(), 0u);
  EXPECT_EQ(b.in_use(), charge);
  buf.reset();
  EXPECT_EQ(b.in_use(), 0u);
}

TEST(SlabRecycling, PoolReusesReleasedStorage) {
  BufferPool pool("p", 1 << 20);
  SlabCache::process().drain();  // isolate from other tests' leftovers
  auto a = pool.allocate(3333);  // odd size: class not shared with others
  ASSERT_TRUE(a);
  std::uint64_t miss0 = pool.slab_misses();
  a.reset();
  auto b = pool.allocate(3333);
  ASSERT_TRUE(b);
  EXPECT_GE(pool.recycled(), 1u);
  EXPECT_EQ(pool.slab_misses(), miss0);  // second allocation hit the slab
  EXPECT_EQ(pool.recycled() + pool.slab_misses(), pool.allocations());
}

TEST(SlabRecycling, MakeBufferReusesThroughProcessSlab) {
  SlabCache& slab = SlabCache::process();
  slab.drain();
  auto a = make_buffer(7777, 0);
  std::uint64_t hits0 = slab.hits();
  a.reset();
  auto b = make_buffer(7777, 0);
  EXPECT_EQ(slab.hits(), hits0 + 1);
}

TEST(SlabRecycling, RecycledStorageComesBackZeroed) {
  SlabCache::process().drain();
  auto a = make_buffer(512, 16);
  std::memset(a->put(512), 0xab, 512);
  a.reset();
  auto b = make_buffer(512, 16);  // same size class: recycles a's storage
  const std::byte* raw = b->put(512);
  for (std::size_t i = 0; i < 512; ++i) {
    ASSERT_EQ(std::to_integer<int>(raw[i]), 0) << "offset " << i;
  }
}

TEST(SlabRecycling, LogicalCapacityDecoupledFromSlabClass) {
  // 3000 bytes lands in the 4096-byte slab class, but the buffer's
  // capacity — and the pool's accounting — must stay at the requested
  // logical size.
  BufferPool pool("p", 1 << 20);
  auto buf = pool.allocate(3000, 0);
  ASSERT_TRUE(buf);
  EXPECT_EQ(buf->capacity(), 3000u);
  EXPECT_EQ(buf->tailroom(), 3000u);
  EXPECT_EQ(pool.in_use(), 3000 + BufferPool::kPerBufferOverhead);
  buf->put(3000);
  EXPECT_THROW(buf->put(1), std::length_error);  // class slack unreachable
}

TEST(CacheKey, EqualityAndHashing) {
  CacheKey a = LbnKey{0, 42};
  CacheKey b = LbnKey{0, 42};
  CacheKey c = LbnKey{1, 42};
  CacheKey d = FhoKey{42, 0};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);  // LBN and FHO never compare equal
  EXPECT_EQ(CacheKeyHash{}(a), CacheKeyHash{}(b));
  EXPECT_TRUE(is_lbn(a));
  EXPECT_TRUE(is_fho(d));
  EXPECT_EQ(to_string(a), "LBN(t0,42)");
  EXPECT_EQ(to_string(d), "FHO(fh42,0)");
}

TEST(MsgBuffer, FromBytesRoundTrip) {
  auto pat = pattern(300);
  MsgBuffer m = MsgBuffer::from_bytes(pat);
  EXPECT_EQ(m.size(), 300u);
  EXPECT_TRUE(m.fully_physical());
  EXPECT_EQ(m.to_bytes(), pat);
}

TEST(MsgBuffer, SliceSharesBuffers) {
  auto pat = pattern(1000);
  MsgBuffer m = MsgBuffer::from_bytes(pat);
  MsgBuffer s = m.slice(100, 200);
  EXPECT_EQ(s.size(), 200u);
  auto expect = std::vector<std::byte>(pat.begin() + 100, pat.begin() + 300);
  EXPECT_EQ(s.to_bytes(), expect);
  // Shared, not copied: same underlying NetBuffer.
  const auto* orig = std::get_if<ByteSeg>(&m.segments()[0]);
  const auto* sub = std::get_if<ByteSeg>(&s.segments()[0]);
  ASSERT_TRUE(orig && sub);
  EXPECT_EQ(orig->buf.get(), sub->buf.get());
}

TEST(MsgBuffer, SliceAcrossSegments) {
  MsgBuffer m;
  m.append(MsgBuffer::from_bytes(pattern(100, 1)));
  m.append(MsgBuffer::from_bytes(pattern(100, 2)));
  m.append(MsgBuffer::from_bytes(pattern(100, 3)));
  ASSERT_EQ(m.size(), 300u);
  MsgBuffer s = m.slice(50, 200);
  EXPECT_EQ(s.size(), 200u);
  auto whole = m.to_bytes();
  auto expect = std::vector<std::byte>(whole.begin() + 50, whole.begin() + 250);
  EXPECT_EQ(s.to_bytes(), expect);
  EXPECT_EQ(s.segments().size(), 3u);
}

TEST(MsgBuffer, SliceOutOfRangeThrows) {
  MsgBuffer m = MsgBuffer::from_bytes(pattern(10));
  EXPECT_THROW(m.slice(5, 6), std::out_of_range);
  EXPECT_NO_THROW(m.slice(5, 5));
  EXPECT_EQ(m.slice(10, 0).size(), 0u);
}

TEST(MsgBuffer, KeyAndJunkSegments) {
  MsgBuffer m;
  m.append(MsgBuffer::from_bytes(pattern(64)));
  m.append(MsgBuffer::from_key(LbnKey{0, 7}, 0, 4096));
  m.append(MsgBuffer::junk(100));
  EXPECT_EQ(m.size(), 64u + 4096 + 100);
  EXPECT_FALSE(m.fully_physical());
  EXPECT_TRUE(m.has_keys());
  EXPECT_TRUE(m.has_junk());
  EXPECT_EQ(m.key_count(), 1u);
  EXPECT_EQ(m.logical_bytes(), 4196u);

  // Slicing a key segment re-ranges it.
  MsgBuffer s = m.slice(64 + 1000, 2000);
  ASSERT_EQ(s.segments().size(), 1u);
  const auto* k = std::get_if<KeySeg>(&s.segments()[0]);
  ASSERT_TRUE(k);
  EXPECT_EQ(k->off, 1000u);
  EXPECT_EQ(k->len, 2000u);
  EXPECT_EQ(k->key, CacheKey(LbnKey{0, 7}));
}

TEST(MsgBuffer, PeekBytesPhysicalPrefix) {
  MsgBuffer m;
  m.append(MsgBuffer::from_bytes(pattern(32)));
  m.append(MsgBuffer::junk(10));
  auto head = m.peek_bytes(32);
  EXPECT_EQ(head, pattern(32));
  EXPECT_THROW(m.peek_bytes(33), std::logic_error);
  EXPECT_THROW(m.peek_bytes(100), std::out_of_range);
}

TEST(MsgBuffer, AppendSplicesWithoutCopy) {
  MsgBuffer a = MsgBuffer::from_bytes(pattern(10, 1));
  const auto* buf_before = std::get_if<ByteSeg>(&a.segments()[0])->buf.get();
  MsgBuffer b;
  b.append(std::move(a));
  EXPECT_EQ(std::get_if<ByteSeg>(&b.segments()[0])->buf.get(), buf_before);
}

// ---- inline segment storage ---------------------------------------------------

/// n one-byte-pattern segments of `len` bytes each, seeds 1..n.
MsgBuffer chain_of(int n, std::size_t len = 100) {
  MsgBuffer m;
  for (int i = 0; i < n; ++i) {
    m.append(MsgBuffer::from_bytes(pattern(len, i + 1)));
  }
  return m;
}

std::vector<std::byte> concat(int n, std::size_t len = 100) {
  std::vector<std::byte> out;
  for (int i = 0; i < n; ++i) {
    auto p = pattern(len, i + 1);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

TEST(MsgBufferStorage, GrowsPastInlineSegments) {
  const int n = int(MsgBuffer::kInlineSegments) * 4 + 1;
  MsgBuffer m;
  for (int i = 0; i < n; ++i) {
    m.append(MsgBuffer::from_bytes(pattern(100, i + 1)));
    ASSERT_EQ(m.segments().size(), std::size_t(i + 1));
    ASSERT_EQ(m.size(), std::size_t(100 * (i + 1)));
  }
  EXPECT_EQ(m.to_bytes(), concat(n));
  // Keys and junk survive the spill with their ranges intact.
  m.append(MsgBuffer::from_key(LbnKey{0, 3}, 8, 64));
  m.append(MsgBuffer::junk(5));
  ASSERT_EQ(m.segments().size(), std::size_t(n + 2));
  const auto* k = std::get_if<KeySeg>(&m.segments()[std::size_t(n)]);
  ASSERT_TRUE(k);
  EXPECT_EQ(k->off, 8u);
  EXPECT_EQ(k->len, 64u);
  EXPECT_TRUE(std::holds_alternative<JunkSeg>(m.segments().back()));
}

TEST(MsgBufferStorage, CopyAndMoveInBothStorageStates) {
  for (int n : {int(MsgBuffer::kInlineSegments), 7}) {
    SCOPED_TRACE(n);
    MsgBuffer src = chain_of(n);
    auto bytes = concat(n);

    MsgBuffer copy(src);
    EXPECT_EQ(copy.to_bytes(), bytes);
    EXPECT_EQ(src.to_bytes(), bytes);  // the source is untouched
    // A copy shares the NetBuffers but owns its segment array.
    EXPECT_EQ(std::get<ByteSeg>(copy.segments()[0]).buf,
              std::get<ByteSeg>(src.segments()[0]).buf);
    EXPECT_NE(copy.segments().data(), src.segments().data());

    MsgBuffer assigned = MsgBuffer::junk(3);
    assigned = copy;
    EXPECT_EQ(assigned.to_bytes(), bytes);

    const Segment* storage = src.segments().data();
    MsgBuffer moved(std::move(src));
    EXPECT_EQ(moved.to_bytes(), bytes);
    EXPECT_TRUE(src.empty());
    EXPECT_TRUE(src.segments().empty());
    // Heap chains hand over their array; inline ones cannot.
    EXPECT_EQ(moved.segments().data() == storage,
              n > int(MsgBuffer::kInlineSegments));

    MsgBuffer target = chain_of(5);
    target = std::move(moved);
    EXPECT_EQ(target.to_bytes(), bytes);
    EXPECT_TRUE(moved.empty());

    // Self-assignment in either form leaves the chain intact.
    MsgBuffer& alias = target;
    target = alias;
    EXPECT_EQ(target.to_bytes(), bytes);
    target = std::move(alias);
    EXPECT_EQ(target.to_bytes(), bytes);

    // A moved-from buffer is reusable.
    src.append(MsgBuffer::from_bytes(pattern(4, 9)));
    EXPECT_EQ(src.to_bytes(), pattern(4, 9));
  }
}

TEST(MsgBufferStorage, ConsumeInsideFirstSegment) {
  for (int n : {1, 6}) {
    SCOPED_TRACE(n);
    MsgBuffer m = chain_of(n);
    auto bytes = concat(n);
    m.consume(30);
    EXPECT_EQ(m.size(), bytes.size() - 30);
    EXPECT_EQ(m.segments().size(), std::size_t(n));
    EXPECT_EQ(m.to_bytes(),
              std::vector<std::byte>(bytes.begin() + 30, bytes.end()));
    EXPECT_EQ(std::get<ByteSeg>(m.segments()[0]).off, 30u);
    m.consume(0);  // a no-op, not a self-move of every segment
    EXPECT_EQ(m.to_bytes(),
              std::vector<std::byte>(bytes.begin() + 30, bytes.end()));
  }
  // Key and junk segments are re-ranged the same way.
  MsgBuffer k = MsgBuffer::from_key(FhoKey{1, 0}, 100, 400);
  k.append(MsgBuffer::junk(50));
  k.consume(150);
  const auto* key = std::get_if<KeySeg>(&k.segments()[0]);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->off, 250u);
  EXPECT_EQ(key->len, 250u);
  k.consume(270);
  ASSERT_EQ(k.segments().size(), 1u);
  EXPECT_EQ(std::get<JunkSeg>(k.segments()[0]).len, 30u);
}

TEST(MsgBufferStorage, ConsumeAtSegmentBoundary) {
  for (int n : {2, 6}) {
    SCOPED_TRACE(n);
    MsgBuffer m = chain_of(n);
    auto bytes = concat(n);
    m.consume(100);
    EXPECT_EQ(m.segments().size(), std::size_t(n - 1));
    EXPECT_EQ(m.to_bytes(),
              std::vector<std::byte>(bytes.begin() + 100, bytes.end()));
    EXPECT_EQ(std::get<ByteSeg>(m.segments()[0]).off, 0u);
    // Consumed-then-appended chains keep their order and contents.
    m.append(MsgBuffer::from_bytes(pattern(100, 42)));
    auto tail = pattern(100, 42);
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    EXPECT_EQ(m.to_bytes(),
              std::vector<std::byte>(bytes.begin() + 100, bytes.end()));
    EXPECT_EQ(m.slice(0, m.size()).to_bytes(), m.to_bytes());
  }
}

TEST(MsgBufferStorage, ConsumeWholeBufferEmptiesIt) {
  for (int n : {1, 6}) {
    SCOPED_TRACE(n);
    MsgBuffer m = chain_of(n);
    m.consume(m.size());
    EXPECT_TRUE(m.empty());
    EXPECT_TRUE(m.segments().empty());
    EXPECT_THROW(m.consume(1), std::out_of_range);
    m.append(MsgBuffer::from_bytes(pattern(8, 3)));
    EXPECT_EQ(m.to_bytes(), pattern(8, 3));
  }
  MsgBuffer m = chain_of(3);
  EXPECT_THROW(m.consume(301), std::out_of_range);
  EXPECT_EQ(m.size(), 300u);
}

TEST(MsgBufferStorage, ConsumeMatchesSlice) {
  // consume(k) leaves exactly what slice(k, rest) would, segment by
  // segment, at every offset of a mixed chain.
  MsgBuffer m = chain_of(3, 7);
  m.append(MsgBuffer::from_key(LbnKey{0, 1}, 4, 9));
  m.append(MsgBuffer::junk(6));
  for (std::size_t k = 0; k <= m.size(); ++k) {
    SCOPED_TRACE(k);
    MsgBuffer c = m;
    c.consume(k);
    MsgBuffer s = m.slice(k, m.size() - k);
    ASSERT_EQ(c.size(), s.size());
    ASSERT_EQ(c.segments().size(), s.segments().size());
    for (std::size_t i = 0; i < c.segments().size(); ++i) {
      EXPECT_EQ(seg_len(c.segments()[i]), seg_len(s.segments()[i]));
      EXPECT_EQ(c.segments()[i].index(), s.segments()[i].index());
    }
    EXPECT_EQ(c.to_bytes(), s.to_bytes());
  }
}

TEST(MsgBufferStorage, AppendIntoEmptyTakesOverStorage) {
  MsgBuffer big = chain_of(6);
  const Segment* storage = big.segments().data();
  MsgBuffer dst;
  dst.append(std::move(big));
  EXPECT_EQ(dst.segments().data(), storage);
  EXPECT_EQ(dst.to_bytes(), concat(6));
  EXPECT_TRUE(big.empty());

  // Into a non-empty buffer the segments are spliced after the existing
  // ones, spilling past the inline array as needed.
  MsgBuffer two = chain_of(2);
  two.append(chain_of(3));
  ASSERT_EQ(two.segments().size(), 5u);
  auto expect = concat(2);
  auto more = concat(3);
  expect.insert(expect.end(), more.begin(), more.end());
  EXPECT_EQ(two.to_bytes(), expect);

  // An empty append changes nothing.
  two.append(MsgBuffer{});
  EXPECT_EQ(two.segments().size(), 5u);
}

TEST(MsgBufferStorage, RefusesMessagesOfFourGigabytes) {
  MsgBuffer m = MsgBuffer::junk(0xffffffffu);
  EXPECT_THROW(m.append(MsgBuffer::junk(1)), std::length_error);
  EXPECT_THROW(m.append(JunkSeg{1}), std::length_error);
  EXPECT_EQ(m.size(), 0xffffffffu);
  EXPECT_EQ(m.segments().size(), 1u);
}

TEST(MsgBufferStorage, ClearReleasesAndResets) {
  MsgBuffer m = chain_of(9);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.segments().empty());
  m.append(MsgBuffer::from_bytes(pattern(3)));
  EXPECT_EQ(m.size(), 3u);
}

class CopyEngineTest : public ::testing::Test {
 protected:
  sim::EventLoop loop_;
  sim::CpuModel cpu_{loop_, "cpu"};
  sim::CostModel costs_{};
  CopyEngine eng_{cpu_, costs_};
};

TEST_F(CopyEngineTest, PhysicalCopyCountsAndCharges) {
  auto pat = pattern(4096);
  MsgBuffer src = MsgBuffer::from_bytes(pat);
  MsgBuffer dst = eng_.copy_message(src, CopyClass::RegularData);
  EXPECT_EQ(dst.to_bytes(), pat);
  EXPECT_EQ(eng_.stats().data_copy_ops, 1u);
  EXPECT_EQ(eng_.stats().data_copy_bytes, 4096u);
  EXPECT_EQ(eng_.stats().meta_copy_ops, 0u);
  EXPECT_EQ(cpu_.busy_ns(), costs_.copy_cost(4096));
}

TEST_F(CopyEngineTest, MetadataClassSeparated) {
  auto pat = pattern(128);
  eng_.copy_bytes_in(pat, CopyClass::Metadata);
  EXPECT_EQ(eng_.stats().meta_copy_ops, 1u);
  EXPECT_EQ(eng_.stats().data_copy_ops, 0u);
}

TEST_F(CopyEngineTest, LogicalCopySharesAndIsCheap) {
  MsgBuffer src;
  src.append(MsgBuffer::from_key(FhoKey{9, 4096}, 0, 4096));
  src.append(MsgBuffer::from_key(FhoKey{9, 8192}, 0, 4096));
  MsgBuffer dst = eng_.logical_copy(src);
  EXPECT_EQ(dst.size(), 8192u);
  EXPECT_EQ(dst.key_count(), 2u);
  EXPECT_EQ(eng_.stats().logical_copy_ops, 1u);
  EXPECT_EQ(eng_.stats().logical_copy_keys, 2u);
  EXPECT_EQ(eng_.stats().data_copy_ops, 0u);
  // Orders of magnitude cheaper than a physical copy of the same bytes.
  EXPECT_LT(cpu_.busy_ns(), costs_.copy_cost(8192) / 50);
}

TEST_F(CopyEngineTest, CopyBytesOutGathers) {
  MsgBuffer m;
  m.append(MsgBuffer::from_bytes(pattern(100, 1)));
  m.append(MsgBuffer::from_bytes(pattern(100, 2)));
  std::vector<std::byte> out(200);
  eng_.copy_bytes_out(m, out, CopyClass::RegularData);
  EXPECT_EQ(out, m.to_bytes());
  EXPECT_EQ(eng_.stats().data_copy_ops, 1u);
}

TEST_F(CopyEngineTest, CopyRawValidatesSize) {
  auto src = pattern(64);
  std::vector<std::byte> dst(32);
  EXPECT_THROW(eng_.copy_raw(src, dst, CopyClass::RegularData),
               std::length_error);
}

TEST_F(CopyEngineTest, ChecksumCharging) {
  eng_.charge_checksum(1000);
  EXPECT_EQ(eng_.stats().checksum_ops, 1u);
  EXPECT_EQ(eng_.stats().checksum_bytes, 1000u);
  EXPECT_EQ(cpu_.busy_ns(), costs_.checksum_cost(1000));
}

TEST_F(CopyEngineTest, ResetStats) {
  eng_.copy_bytes_in(pattern(10), CopyClass::RegularData);
  eng_.reset_stats();
  EXPECT_EQ(eng_.stats().data_copy_ops, 0u);
}

}  // namespace
}  // namespace ncache::netbuf
