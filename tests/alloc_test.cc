// Heap-allocation budgets of steady-state request paths.
//
// This binary links the counting global operator new (bench/heap_counter.h;
// it is its own executable so the counter touches no other test), warms a
// testbed until every cache and free list it uses is populated, then
// counts heap allocations per request over a steady window:
//
//   * kHTTPd serving a hot page set, one TCP connection per request, in
//     NCache mode: TCP segmentation, egress substitution and the NIC and
//     switch hops;
//   * NFS 32 KB reads of a cached file in NCache mode: UDP, IP
//     fragmentation and reassembly, XDR headers and egress substitution;
//   * a resident SPECsfs-style mix in NCache mode (LOOKUP, GETATTR, READ,
//     WRITE): the NFS call and daemon hand-off, the file system's
//     resident-block reads, the FHO ingest and the post-op attributes.
//
// Budgets are per request, not per dispatched event: cancelled timers
// are not events, so an events denominator would move with timer
// housekeeping rather than with allocation. Each budget is about twice
// what its window measures today.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "bench/heap_counter.h"
#include "http/client.h"
#include "http/khttpd.h"
#include "testbed/testbed.h"

namespace ncache {
namespace {

using core::PassMode;
using testbed::Testbed;
using testbed::TestbedConfig;

/// Heap allocations over one window, per request the window served.
struct Window {
  std::uint64_t allocs0 = bench::heap_allocs();

  double allocs_per(std::uint64_t requests) const {
    return requests ? double(bench::heap_allocs() - allocs0) / double(requests)
                    : 0.0;
  }
};

TEST(AllocBudget, KhttpdHotHitsOverTcp) {
  constexpr int kPages = 8;
  constexpr std::uint64_t kPageBytes = 64 * 1024;
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  std::vector<std::string> paths;
  for (int i = 0; i < kPages; ++i) {
    std::string name = "p" + std::to_string(i) + ".html";
    tb.image().add_file(name, kPageBytes);
    paths.push_back("/" + name);
  }
  tb.start_base();
  http::KHttpd::Config hc;
  hc.mode = PassMode::NCache;
  http::KHttpd server(tb.server_node().stack, tb.fs(), hc, tb.ncache());
  server.start();
  http::HttpClient client(tb.client_node(0).stack, tb.client_ip(0),
                          tb.server_ip(0));
  client.set_connection_per_request(true);

  int ok = 0;
  auto sweep = [&](int passes) -> Task<void> {
    for (int p = 0; p < passes; ++p) {
      for (const auto& path : paths) {
        auto r = co_await client.get(path);
        if (r.status == 200 && r.content_length == kPageBytes) ++ok;
      }
    }
  };
  // Warm-up: the first pass fills the caches, the rest fill every free
  // list and slab class the frame path draws from.
  sim::sync_wait(tb.loop(), sweep(4));
  Window w;
  sim::sync_wait(tb.loop(), sweep(4));
  double per_request = w.allocs_per(4 * kPages);
  std::printf("kHTTPd hot hits: %.2f allocs/request\n", per_request);
  EXPECT_EQ(ok, 8 * kPages);
  // Measured 38.2 (97.2 before the fs hit path, flat indexes and
  // cancelled timers): a connection's setup and teardown plus the
  // coroutine frames of the request path.
  EXPECT_LT(per_request, 80.0);
}

TEST(AllocBudget, NfsNcacheReadsOverUdp) {
  constexpr std::uint64_t kFileBytes = 1 << 20;
  constexpr std::uint32_t kRead = 32 * 1024;
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("data.bin", kFileBytes);
  tb.start_nfs();

  std::uint64_t bytes = 0;
  auto sweep = [&](int passes) -> Task<void> {
    for (int p = 0; p < passes; ++p) {
      for (std::uint64_t off = 0; off < kFileBytes; off += kRead) {
        auto r = co_await tb.nfs_client(0).read(ino, off, kRead);
        if (r.status == nfs::Status::Ok) bytes += r.data.size();
      }
    }
  };
  sim::sync_wait(tb.loop(), sweep(3));
  Window w;
  bytes = 0;
  sim::sync_wait(tb.loop(), sweep(3));
  double per_request = w.allocs_per(3 * kFileBytes / kRead);
  std::printf("NFS NCache reads: %.2f allocs/request\n", per_request);
  EXPECT_EQ(bytes, 3 * kFileBytes);
  // Measured 5.05 (117 before, when every mapped block cost frames, a
  // std::function and a vector): coroutine frames on both ends.
  EXPECT_LT(per_request, 10.0);
}

TEST(AllocBudget, NfsNcacheResidentMixOverUdp) {
  constexpr int kFiles = 8;
  constexpr std::uint64_t kFileBytes = 64 * 1024;
  constexpr std::uint32_t kRead = 16 * 1024;
  TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  Testbed tb(cfg);
  std::vector<std::string> names;
  std::vector<std::uint32_t> inos;
  for (int i = 0; i < kFiles; ++i) {
    names.push_back("f" + std::to_string(i) + ".dat");
    inos.push_back(tb.image().add_file(names.back(), kFileBytes));
  }
  tb.start_nfs();
  nfs::NfsClient& c = tb.nfs_client(0);
  const std::vector<std::byte> block(fs::kBlockSize, std::byte{0x5a});

  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  auto mix = [&](int passes) -> Task<void> {
    for (int p = 0; p < passes; ++p) {
      for (int i = 0; i < kFiles; ++i) {
        auto fh = co_await c.lookup(fs::kRootIno, names[i]);
        ok += fh && *fh == inos[i];
        auto attr = co_await c.getattr(inos[i]);
        ok += attr && attr->size == kFileBytes;
        for (std::uint64_t off = 0; off < kFileBytes; off += kRead) {
          auto r = co_await c.read(inos[i], off, kRead);
          ok += r.status == nfs::Status::Ok && r.data.size() == kRead;
        }
        // An aligned overwrite: the NCache server ingests it as an FHO
        // chunk; the file keeps its size and its blocks.
        std::uint64_t at = std::uint64_t(p % 16) * fs::kBlockSize;
        auto st = co_await c.write(inos[i], at, block);
        ok += st == nfs::Status::Ok;
        requests += 3 + kFileBytes / kRead;
      }
    }
  };
  sim::sync_wait(tb.loop(), mix(3));
  Window w;
  requests = ok = 0;
  sim::sync_wait(tb.loop(), mix(3));
  double per_request = w.allocs_per(requests);
  std::printf("NFS NCache resident mix: %.2f allocs/request\n", per_request);
  EXPECT_EQ(ok, requests);
  // Measured 5.18 (52.9 before): the client's and server's coroutine
  // frames; resident lookups, attributes and pointer reads take none.
  EXPECT_LT(per_request, 11.0);
}

}  // namespace
}  // namespace ncache
