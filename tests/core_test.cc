// Tests for the network-centric cache: both indexes, LRU eviction under
// the pinned-memory budget, the FHO->LBN remapping protocol with
// forwarding, the freshness rule (FHO before LBN), and the module's
// egress substitution filter.
#include <gtest/gtest.h>

#include "core/ncache_module.h"
#include "core/net_centric_cache.h"
#include "proto/switch.h"

namespace ncache::core {
namespace {

using netbuf::ByteSeg;
using netbuf::CacheKey;
using netbuf::FhoKey;
using netbuf::LbnKey;
using netbuf::MsgBuffer;

MsgBuffer chain_of(std::size_t bytes, int seed) {
  // Mimic a wire chain: MTU-ish fragments.
  MsgBuffer m;
  std::size_t left = bytes;
  while (left > 0) {
    std::size_t take = std::min<std::size_t>(1460, left);
    auto buf = netbuf::make_buffer(take);
    auto span = buf->put(take);
    for (std::size_t i = 0; i < take; ++i) {
      span[i] = std::byte((i * 17 + seed) & 0xff);
    }
    m.append(netbuf::ByteSeg{std::move(buf), 0, std::uint32_t(take)});
    left -= take;
  }
  return m;
}

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : cpu_(loop_, "cpu") {}

  NetCentricCache make_cache(std::size_t budget) {
    return NetCentricCache(cpu_, costs_, {budget, 4096});
  }

  sim::EventLoop loop_;
  sim::CostModel costs_{};
  sim::CpuModel cpu_;
};

TEST_F(CacheTest, InsertAndLookupLbn) {
  auto cache = make_cache(1 << 20);
  MsgBuffer chain = chain_of(4096, 1);
  auto expected = chain.to_bytes();
  ASSERT_TRUE(cache.insert_lbn(LbnKey{0, 7}, std::move(chain)));
  EXPECT_EQ(cache.chunk_count(), 1u);
  EXPECT_TRUE(cache.contains_lbn(7, 0));
  EXPECT_FALSE(cache.contains_lbn(7, 1));  // different target

  const MsgBuffer* got = cache.lookup(CacheKey(LbnKey{0, 7}));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->to_bytes(), expected);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.lookup(CacheKey(LbnKey{0, 8})), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(CacheTest, LookupPointsAtTheCachedChain) {
  // lookup() hands out the chunk's own chain, not a copy: every lookup of
  // a key sees the same object, sharing the inserted buffers.
  auto cache = make_cache(1 << 20);
  MsgBuffer chain = chain_of(4096, 2);
  const auto* buf = std::get<ByteSeg>(chain.segments()[0]).buf.get();
  ASSERT_TRUE(cache.insert_lbn(LbnKey{0, 9}, std::move(chain)));
  ASSERT_TRUE(cache.insert_fho(FhoKey{4, 0}, chain_of(4096, 3)));
  const MsgBuffer* a = cache.lookup(CacheKey(LbnKey{0, 9}));
  const MsgBuffer* b = cache.lookup(CacheKey(LbnKey{0, 9}));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_EQ(std::get<ByteSeg>(a->segments()[0]).buf.get(), buf);
  // Remap forwarding resolves to the LBN chunk's chain itself.
  ASSERT_TRUE(cache.remap(FhoKey{4, 0}, LbnKey{0, 10}));
  EXPECT_EQ(cache.lookup(CacheKey(FhoKey{4, 0})),
            cache.lookup(CacheKey(LbnKey{0, 10})));
  EXPECT_EQ(cache.stats().hits, 4u);
}

TEST_F(CacheTest, PinnedBytesIncludeOverhead) {
  auto cache = make_cache(1 << 20);
  cache.insert_lbn(LbnKey{0, 1}, chain_of(4096, 1));
  // 3 fragments of ~1460B each + headroom + descriptor overhead: the
  // chunk must cost measurably more than its 4096 payload bytes — the
  // §6(a) metadata overhead.
  EXPECT_GT(cache.pinned_bytes(), 4096u + 300);
}

TEST_F(CacheTest, LruEvictionUnderBudget) {
  // Budget for roughly 4 chunks.
  auto cache = make_cache(4 * 5200);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(cache.insert_lbn(LbnKey{0, i}, chain_of(4096, int(i))));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  // Oldest blocks evicted; newest retained.
  EXPECT_FALSE(cache.contains_lbn(0, 0));
  EXPECT_TRUE(cache.contains_lbn(7, 0));
}

TEST_F(CacheTest, LookupTouchProtectsHotChunks) {
  auto cache = make_cache(4 * 5200);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert_lbn(LbnKey{0, i}, chain_of(4096, int(i)));
  }
  // Touch block 0 so block 1 becomes the LRU victim.
  (void)cache.lookup(CacheKey(LbnKey{0, 0}));
  cache.insert_lbn(LbnKey{0, 100}, chain_of(4096, 9));
  EXPECT_TRUE(cache.contains_lbn(0, 0));
  EXPECT_FALSE(cache.contains_lbn(1, 0));
}

TEST_F(CacheTest, FhoFreshnessBeatsLbn) {
  auto cache = make_cache(1 << 20);
  // Same logical block: old LBN copy and a newer FHO write.
  cache.insert_lbn(LbnKey{0, 5}, chain_of(4096, 1));
  MsgBuffer newer = chain_of(4096, 2);
  auto newer_bytes = newer.to_bytes();
  cache.insert_fho(FhoKey{42, 0}, std::move(newer));

  auto got = cache.lookup(CacheKey(FhoKey{42, 0}));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->to_bytes(), newer_bytes);
}

TEST_F(CacheTest, FhoOverwriteKeepsLatest) {
  auto cache = make_cache(1 << 20);
  cache.insert_fho(FhoKey{1, 0}, chain_of(4096, 1));
  MsgBuffer v2 = chain_of(4096, 2);
  auto v2_bytes = v2.to_bytes();
  cache.insert_fho(FhoKey{1, 0}, std::move(v2));
  EXPECT_EQ(cache.stats().fho_overwrites, 1u);
  EXPECT_EQ(cache.chunk_count(), 1u);
  auto got = cache.lookup(CacheKey(FhoKey{1, 0}));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->to_bytes(), v2_bytes);
}

TEST_F(CacheTest, RemapMovesToLbnWithForwarding) {
  auto cache = make_cache(1 << 20);
  MsgBuffer data = chain_of(4096, 3);
  auto bytes = data.to_bytes();
  cache.insert_fho(FhoKey{9, 8192}, std::move(data));

  ASSERT_TRUE(cache.remap(FhoKey{9, 8192}, LbnKey{0, 55}));
  EXPECT_EQ(cache.stats().remaps, 1u);
  EXPECT_TRUE(cache.contains_lbn(55, 0));

  // Both the new LBN key and the old FHO key resolve (§3.4: replies can
  // carry both).
  auto by_lbn = cache.lookup(CacheKey(LbnKey{0, 55}));
  ASSERT_TRUE(by_lbn);
  EXPECT_EQ(by_lbn->to_bytes(), bytes);
  auto by_fho = cache.lookup(CacheKey(FhoKey{9, 8192}));
  ASSERT_TRUE(by_fho);
  EXPECT_EQ(by_fho->to_bytes(), bytes);
  EXPECT_EQ(cache.stats().forward_hits, 1u);

  // Remapping something absent fails.
  EXPECT_FALSE(cache.remap(FhoKey{9, 0}, LbnKey{0, 56}));
}

TEST_F(CacheTest, RemapOverwritesStaleLbnEntry) {
  auto cache = make_cache(1 << 20);
  cache.insert_lbn(LbnKey{0, 30}, chain_of(4096, 1));  // stale
  MsgBuffer fresh = chain_of(4096, 2);
  auto fresh_bytes = fresh.to_bytes();
  cache.insert_fho(FhoKey{7, 0}, std::move(fresh));
  ASSERT_TRUE(cache.remap(FhoKey{7, 0}, LbnKey{0, 30}));
  EXPECT_EQ(cache.stats().remap_overwrites, 1u);
  auto got = cache.lookup(CacheKey(LbnKey{0, 30}));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->to_bytes(), fresh_bytes);
  EXPECT_EQ(cache.chunk_count(), 1u);
}

TEST_F(CacheTest, DirtyFhoChunksSurviveEviction) {
  auto cache = make_cache(4 * 5200);
  cache.insert_fho(FhoKey{1, 0}, chain_of(4096, 1));  // dirty, unflushed
  for (std::uint64_t i = 0; i < 8; ++i) {
    cache.insert_lbn(LbnKey{0, i}, chain_of(4096, int(i)));
  }
  // The dirty chunk must never have been reclaimed.
  EXPECT_TRUE(cache.lookup(CacheKey(FhoKey{1, 0})));
  EXPECT_GT(cache.stats().dirty_skips, 0u);
}

TEST_F(CacheTest, RewriteAfterRemapDropsForwarding) {
  auto cache = make_cache(1 << 20);
  cache.insert_fho(FhoKey{3, 0}, chain_of(4096, 1));
  cache.remap(FhoKey{3, 0}, LbnKey{0, 77});
  // A second write to the same file offset.
  MsgBuffer v2 = chain_of(4096, 9);
  auto v2_bytes = v2.to_bytes();
  cache.insert_fho(FhoKey{3, 0}, std::move(v2));
  // FHO lookups now see the new dirty data, not the remapped old chunk.
  auto got = cache.lookup(CacheKey(FhoKey{3, 0}));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->to_bytes(), v2_bytes);
}

TEST_F(CacheTest, ClearDropsEverything) {
  auto cache = make_cache(1 << 20);
  cache.insert_lbn(LbnKey{0, 1}, chain_of(4096, 1));
  cache.insert_fho(FhoKey{1, 0}, chain_of(4096, 2));
  cache.clear();
  EXPECT_EQ(cache.chunk_count(), 0u);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Module: ingestion + egress substitution
// ---------------------------------------------------------------------------

class ModuleTest : public ::testing::Test {
 protected:
  ModuleTest()
      : book_(std::make_shared<proto::AddressBook>()),
        cpu_(loop_, "cpu"),
        copier_(cpu_, costs_),
        stack_(loop_, cpu_, copier_, costs_, "host", book_),
        module_(stack_, {1 << 20, 4096}) {
    stack_.add_nic(0xaa, proto::make_ipv4(10, 0, 0, 1));
  }

  sim::EventLoop loop_;
  sim::CostModel costs_{};
  std::shared_ptr<proto::AddressBook> book_;
  sim::CpuModel cpu_;
  netbuf::CopyEngine copier_;
  proto::NetworkStack stack_;
  NCacheModule module_;
};

TEST_F(ModuleTest, IngestLbnReturnsKeys) {
  MsgBuffer chain = chain_of(4096, 4);
  auto bytes = chain.to_bytes();
  MsgBuffer keys = module_.ingest_lbn(0, 123, std::move(chain));
  EXPECT_EQ(keys.size(), 4096u);
  EXPECT_TRUE(keys.has_keys());
  EXPECT_EQ(keys.key_count(), 1u);
  auto cached = module_.cache().lookup(CacheKey(LbnKey{0, 123}));
  ASSERT_TRUE(cached);
  EXPECT_EQ(cached->to_bytes(), bytes);
}

TEST_F(ModuleTest, EgressSubstitutesKeysWithRealBytes) {
  MsgBuffer chain = chain_of(4096, 5);
  auto bytes = chain.to_bytes();
  module_.ingest_lbn(0, 9, std::move(chain));

  proto::Frame f;
  f.payload.append(MsgBuffer::from_bytes(std::vector<std::byte>(32)));  // hdr
  f.payload.append(MsgBuffer::from_key(CacheKey(LbnKey{0, 9}), 1000, 1460));
  ASSERT_TRUE(module_.egress_filter(f));

  EXPECT_TRUE(f.payload.fully_physical());
  EXPECT_TRUE(f.l4_checksum_inherited);
  auto out = f.payload.to_bytes();
  std::vector<std::byte> tail(out.begin() + 32, out.end());
  std::vector<std::byte> expect(bytes.begin() + 1000, bytes.begin() + 2460);
  EXPECT_EQ(tail, expect);
  EXPECT_EQ(module_.stats().frames_substituted, 1u);
  EXPECT_EQ(module_.stats().keys_substituted, 1u);
}

TEST_F(ModuleTest, EgressPassesMetadataFramesUntouched) {
  proto::Frame f;
  f.payload = MsgBuffer::from_string("metadata only");
  ASSERT_TRUE(module_.egress_filter(f));
  EXPECT_EQ(module_.stats().frames_passed, 1u);
  EXPECT_FALSE(f.l4_checksum_inherited);
}

TEST_F(ModuleTest, EgressMissBecomesJunkNotDrop) {
  proto::Frame f;
  f.payload.append(MsgBuffer::from_key(CacheKey(LbnKey{0, 404}), 0, 1460));
  ASSERT_TRUE(module_.egress_filter(f));  // frame must not be dropped
  EXPECT_TRUE(f.payload.has_junk());
  EXPECT_EQ(module_.stats().substitution_misses, 1u);
}

TEST_F(ModuleTest, RemapOnFlushWalksKeySegments) {
  module_.ingest_fho(FhoKey{11, 0}, chain_of(4096, 1));
  module_.ingest_fho(FhoKey{11, 4096}, chain_of(4096, 2));

  MsgBuffer payload;
  payload.append(MsgBuffer::from_key(CacheKey(FhoKey{11, 0}), 0, 4096));
  module_.remap_on_flush(0, 500, payload);
  EXPECT_TRUE(module_.cache().contains_lbn(500, 0));
  // Second block untouched.
  EXPECT_FALSE(module_.cache().contains_lbn(501, 0));
  EXPECT_TRUE(module_.cache().lookup(CacheKey(FhoKey{11, 4096})));
}

TEST_F(ModuleTest, SubstitutionChargesCpu) {
  module_.ingest_lbn(0, 9, chain_of(4096, 5));
  auto busy_before = cpu_.busy_ns();
  proto::Frame f;
  f.payload.append(MsgBuffer::from_key(CacheKey(LbnKey{0, 9}), 0, 1460));
  module_.egress_filter(f);
  EXPECT_GE(cpu_.busy_ns() - busy_before, costs_.ncache_substitute_ns);
}

}  // namespace
}  // namespace ncache::core
