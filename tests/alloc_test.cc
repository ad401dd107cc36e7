// Heap-allocation budget of the steady-state frame path.
//
// This binary links the counting global operator new (bench/heap_counter.h;
// it is its own executable so the counter touches no other test), warms a
// testbed until every cache and free list it uses is populated, then
// counts heap allocations per dispatched event over a steady window:
//
//   * kHTTPd serving a hot page set, one TCP connection per request, in
//     NCache mode: TCP segmentation, egress substitution and the NIC and
//     switch hops;
//   * NFS 32 KB reads of a cached file in NCache mode: UDP, IP
//     fragmentation and reassembly, XDR headers and egress substitution.
//
// The budgets are about twice what these windows measure today. The
// frame path they replaced (a segment vector per slice, a shared box per
// frame hop, a map node per TCP segment, header serializers growing
// vectors) made 4.0 and 4.9 allocations per event here.
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

/// Heap allocations and dispatched events over one window.
struct Window {
  std::uint64_t allocs0 = bench::heap_allocs();
  std::uint64_t events0 = sim::EventLoop::process_dispatched();

  double allocs_per_event() const {
    std::uint64_t events = sim::EventLoop::process_dispatched() - events0;
    return events ? double(bench::heap_allocs() - allocs0) / double(events)
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
  double per_event = w.allocs_per_event();
  std::printf("kHTTPd hot hits: %.4f allocs/event\n", per_event);
  EXPECT_EQ(ok, 8 * kPages);
  // Measured 0.29; the allocations left are the file system's (block
  // cache continuations, coroutine frames), not the frame path's.
  EXPECT_LT(per_event, 0.6);
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
  double per_event = w.allocs_per_event();
  std::printf("NFS NCache reads: %.4f allocs/event\n", per_event);
  EXPECT_EQ(bytes, 3 * kFileBytes);
  // Measured 1.21, most of it in the server's file system read path.
  EXPECT_LT(per_event, 2.5);
}

}  // namespace
}  // namespace ncache
