// Unit tests for src/common: byte codecs, checksums, RNG/Zipf, stats,
// intrusive list, and the coroutine Task plumbing.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/intrusive_list.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/task.h"
#include "common/zipf.h"

namespace ncache {
namespace {

TEST(Bytes, RoundTripScalars) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  ASSERT_EQ(out.size(), 1u + 2 + 4 + 8);

  ByteReader r(out);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, BigEndianLayout) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.u16(0x0102);
  EXPECT_EQ(std::to_integer<int>(out[0]), 1);
  EXPECT_EQ(std::to_integer<int>(out[1]), 2);
}

TEST(Bytes, UnderrunThrows) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.u16(7);
  ByteReader r(out);
  r.u8();
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Bytes, XdrOpaquePadsToFourBytes) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.xdr_opaque("abcde");  // 4 len + 5 data + 3 pad
  EXPECT_EQ(out.size(), 12u);
  ByteReader r(out);
  EXPECT_EQ(r.xdr_opaque(), "abcde");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, XdrOpaqueEmptyAndAligned) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  w.xdr_opaque("");
  w.xdr_opaque("abcd");
  ByteReader r(out);
  EXPECT_EQ(r.xdr_opaque(), "");
  EXPECT_EQ(r.xdr_opaque(), "abcd");
}

TEST(Checksum, Rfc1071KnownVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  std::vector<std::byte> data = {std::byte{0x00}, std::byte{0x01},
                                 std::byte{0xf2}, std::byte{0x03},
                                 std::byte{0xf4}, std::byte{0xf5},
                                 std::byte{0xf6}, std::byte{0xf7}};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Checksum, ValidatesToZero) {
  std::vector<std::byte> data;
  for (int i = 0; i < 17; ++i) data.push_back(std::byte(i * 13 + 1));
  std::uint16_t c = internet_checksum(data);
  // Appending the checksum (padded) makes the whole thing sum to 0.
  data.push_back(std::byte(c >> 8));
  data.push_back(std::byte(c & 0xff));
  // Odd-length original means the checksum bytes shifted; recompute
  // directly instead: accumulate(data) with checksum folded in == 0 only
  // for even-length. Use even-length input for the invariant.
  std::vector<std::byte> even;
  for (int i = 0; i < 20; ++i) even.push_back(std::byte(i * 7 + 3));
  std::uint16_t c2 = internet_checksum(even);
  even.push_back(std::byte(c2 >> 8));
  even.push_back(std::byte(c2 & 0xff));
  EXPECT_EQ(internet_checksum(even), 0);
}

TEST(Checksum, AccumulateSplitsEquivalent) {
  std::vector<std::byte> data;
  for (int i = 0; i < 64; ++i) data.push_back(std::byte(i));
  std::uint16_t whole = internet_checksum(data);
  std::span<const std::byte> s(data);
  std::uint32_t acc = checksum_accumulate(s.subspan(0, 10), 0);
  acc = checksum_accumulate(s.subspan(10, 30), acc);
  acc = checksum_accumulate(s.subspan(40), acc);
  EXPECT_EQ(checksum_finish(acc), whole);
}

TEST(Checksum, Crc32KnownVector) {
  // CRC32("123456789") == 0xCBF43926
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
}

TEST(Rng, DeterministicPerSeed) {
  Pcg32 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Pcg32 a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Pcg32 rng(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
  }
  EXPECT_EQ(rng.range(3, 3), 3u);
}

TEST(Rng, UniformInUnitInterval) {
  Pcg32 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Zipf, PmfSumsToOneAndIsMonotone) {
  ZipfSampler z(100, 0.8);
  double sum = 0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    sum += z.pmf(i);
    if (i > 0) {
      EXPECT_LE(z.pmf(i), z.pmf(i - 1) + 1e-12);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SamplesFollowRankBias) {
  ZipfSampler z(50, 1.0);
  Pcg32 rng(123);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.sample(rng)]++;
  // Rank 0 should be sampled roughly 1/H(50) of the time (~22%).
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 8000);
  double expected = z.pmf(0) * 50000;
  EXPECT_NEAR(counts[0], expected, expected * 0.15);
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(z.pmf(i), 0.1, 1e-9);
}

TEST(Zipf, RejectsDegenerateArgs) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(Stats, ByteMeterRate) {
  ByteMeter m;
  m.add(1'000'000);  // 1 MB over 0.5 s -> 2 MB/s
  EXPECT_DOUBLE_EQ(m.mb_per_sec(500'000'000), 2.0);
  EXPECT_DOUBLE_EQ(m.mb_per_sec(0), 0.0);
}

TEST(Stats, LatencyHistogramBasics) {
  LatencyHistogram h;
  h.record(500);
  h.record(1'500);
  h.record(1'000'000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min_ns(), 500u);
  EXPECT_EQ(h.max_ns(), 1'000'000u);
  EXPECT_NEAR(h.mean_ns(), (500 + 1500 + 1'000'000) / 3.0, 1.0);
  EXPECT_GE(h.quantile_ns(1.0), 1'000'000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, ByteMeterZeroIntervalYieldsZeroRate) {
  ByteMeter m;
  EXPECT_DOUBLE_EQ(m.mb_per_sec(0), 0.0);  // empty meter, empty window
  m.add(1'000'000);
  EXPECT_DOUBLE_EQ(m.mb_per_sec(0), 0.0);  // bytes but a zero window
}

TEST(Stats, LatencyHistogramQuantileEmpty) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile_ns(0.0), 0u);
  EXPECT_EQ(h.quantile_ns(0.5), 0u);
  EXPECT_EQ(h.quantile_ns(1.0), 0u);
}

TEST(Stats, LatencyHistogramQuantileEndpoints) {
  LatencyHistogram h;
  h.record(500);
  h.record(1'500);
  h.record(1'000'000);
  // q<=0 pins to the minimum, q>=1 to the maximum — exactly, not to a
  // bucket boundary.
  EXPECT_EQ(h.quantile_ns(0.0), h.min_ns());
  EXPECT_EQ(h.quantile_ns(-1.0), h.min_ns());
  EXPECT_EQ(h.quantile_ns(1.0), h.max_ns());
  EXPECT_EQ(h.quantile_ns(2.0), h.max_ns());
  // Interior quantiles are monotone between the endpoints.
  EXPECT_GE(h.quantile_ns(0.5), h.min_ns());
  EXPECT_LE(h.quantile_ns(0.5), h.max_ns());
}

TEST(Stats, LatencyHistogramQuantileSingleSample) {
  LatencyHistogram h;
  h.record(777);
  EXPECT_EQ(h.quantile_ns(0.0), 777u);
  EXPECT_EQ(h.quantile_ns(1.0), 777u);
  EXPECT_GE(h.quantile_ns(0.5), 777u);  // bucket upper bound >= sample
}

TEST(Stats, RunningStatSingleSample) {
  RunningStat s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  // Sample variance of one observation is undefined; it must report 0,
  // not NaN or a division-by-zero artifact.
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Stats, RunningStatEmpty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Stats, RunningStatMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

struct Item : ListHook {
  explicit Item(int v) : value(v) {}
  int value;
};

TEST(IntrusiveList, PushRemoveOrder) {
  IntrusiveList<Item> list;
  Item a(1), b(2), c(3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.front()->value, 1);
  EXPECT_EQ(list.back()->value, 3);

  list.move_to_back(a);  // LRU touch
  EXPECT_EQ(list.front()->value, 2);
  EXPECT_EQ(list.back()->value, 1);

  list.remove(b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.front()->value, 3);

  Item* popped = list.pop_front();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->value, 3);
  EXPECT_EQ(list.size(), 1u);
  list.remove(a);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.pop_front(), nullptr);
}

TEST(IntrusiveList, Iteration) {
  IntrusiveList<Item> list;
  Item a(1), b(2), c(3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  int sum = 0;
  for (auto& it : list) sum += it.value;
  EXPECT_EQ(sum, 6);
  list.remove(a);
  list.remove(b);
  list.remove(c);
}

// --- Task / coroutine plumbing ---------------------------------------------

Task<int> answer() { co_return 42; }

Task<int> add(int x) {
  int a = co_await answer();
  co_return a + x;
}

TEST(Task, NestedAwaitPropagatesValue) {
  // Drive without an event loop: everything completes synchronously on
  // first resume.
  int out = 0;
  auto t_fn = [&]() -> Task<void> {
    out = co_await add(8);
  };
  auto t = t_fn();
  std::move(t).detach();
  EXPECT_EQ(out, 50);
}

Task<int> thrower() {
  throw std::runtime_error("boom");
  co_return 0;
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  bool caught = false;
  auto t_fn = [&]() -> Task<void> {
    try {
      (void)co_await thrower();
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  };
  auto t = t_fn();
  std::move(t).detach();
  EXPECT_TRUE(caught);
}

TEST(Task, VoidTaskCompletes) {
  bool ran = false;
  auto inner = [&]() -> Task<void> {
    ran = true;
    co_return;
  };
  auto t_fn = [&]() -> Task<void> { co_await inner(); };
  auto t = t_fn();
  std::move(t).detach();
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace ncache
