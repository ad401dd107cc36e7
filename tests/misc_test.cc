// Coverage for surfaces the larger suites exercise only incidentally:
// switch learning/flooding, NIC filters and meters, stack demux errors,
// HTTP parsing pathologies, image-builder edges, and CPU/link meter
// windows under load.
#include <gtest/gtest.h>

#include "fs/image_builder.h"
#include "http/client.h"
#include "http/khttpd.h"
#include "netbuf/copy_engine.h"
#include "proto/stack.h"
#include "proto/switch.h"
#include "testbed/testbed.h"

namespace ncache {
namespace {

using netbuf::MsgBuffer;
using proto::make_ipv4;

struct Trio {
  Trio()
      : book(std::make_shared<proto::AddressBook>()),
        sw(loop, "sw", costs) {
    for (int i = 0; i < 3; ++i) {
      cpus.push_back(std::make_unique<sim::CpuModel>(loop, "cpu"));
      copiers.push_back(
          std::make_unique<netbuf::CopyEngine>(*cpus.back(), costs));
      stacks.push_back(std::make_unique<proto::NetworkStack>(
          loop, *cpus.back(), *copiers.back(), costs,
          "h" + std::to_string(i), book));
      stacks.back()->add_nic(0xa0 + std::uint64_t(i),
                             make_ipv4(10, 0, 0, std::uint8_t(1 + i)));
      sw.connect(stacks.back()->nic(0));
    }
  }
  sim::EventLoop loop;
  sim::CostModel costs;
  std::shared_ptr<proto::AddressBook> book;
  proto::EthernetSwitch sw;
  std::vector<std::unique_ptr<sim::CpuModel>> cpus;
  std::vector<std::unique_ptr<netbuf::CopyEngine>> copiers;
  std::vector<std::unique_ptr<proto::NetworkStack>> stacks;
};

TEST(Switch, ForwardsOnlyToDestination) {
  Trio t;
  int h2_count = 0, h1_count = 0;
  t.stacks[1]->udp_bind(5, [&](proto::Ipv4Addr, std::uint16_t,
                               proto::Ipv4Addr, std::uint16_t, MsgBuffer) {
    ++h1_count;
  });
  t.stacks[2]->udp_bind(5, [&](proto::Ipv4Addr, std::uint16_t,
                               proto::Ipv4Addr, std::uint16_t, MsgBuffer) {
    ++h2_count;
  });
  t.stacks[0]->udp_send(make_ipv4(10, 0, 0, 1), 5, make_ipv4(10, 0, 0, 2), 5,
                        MsgBuffer::from_string("x"));
  t.loop.run();
  EXPECT_EQ(h1_count, 1);
  EXPECT_EQ(h2_count, 0);
  EXPECT_GE(t.sw.forwarded(), 1u);
  EXPECT_EQ(t.sw.flooded(), 0u);  // static MAC table: no floods
}

TEST(Switch, CrossTrafficSharesDistinctPorts) {
  // h0->h1 and h2->h1 both deliver; h1's single downlink serializes them.
  Trio t;
  int got = 0;
  t.stacks[1]->udp_bind(5, [&](proto::Ipv4Addr, std::uint16_t,
                               proto::Ipv4Addr, std::uint16_t, MsgBuffer) {
    ++got;
  });
  for (int i = 0; i < 10; ++i) {
    t.stacks[0]->udp_send(make_ipv4(10, 0, 0, 1), 5, make_ipv4(10, 0, 0, 2),
                          5, MsgBuffer::from_bytes(std::vector<std::byte>(1000)));
    t.stacks[2]->udp_send(make_ipv4(10, 0, 0, 3), 5, make_ipv4(10, 0, 0, 2),
                          5, MsgBuffer::from_bytes(std::vector<std::byte>(1000)));
  }
  t.loop.run();
  EXPECT_EQ(got, 20);
}

TEST(Nic, IngressFilterDropsAndCounts) {
  Trio t;
  t.stacks[1]->set_ingress_filter([](proto::Frame&) { return false; });
  int got = 0;
  t.stacks[1]->udp_bind(5, [&](proto::Ipv4Addr, std::uint16_t,
                               proto::Ipv4Addr, std::uint16_t, MsgBuffer) {
    ++got;
  });
  t.stacks[0]->udp_send(make_ipv4(10, 0, 0, 1), 5, make_ipv4(10, 0, 0, 2), 5,
                        MsgBuffer::from_string("x"));
  t.loop.run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(t.stacks[1]->nic(0).stats().dropped, 1u);
  // The frame still counted as received at the NIC (it reached the host).
  EXPECT_EQ(t.stacks[1]->nic(0).stats().rx_frames, 1u);
}

TEST(Stack, SendFromUnknownSourceIpThrows) {
  Trio t;
  EXPECT_THROW(t.stacks[0]->udp_send(make_ipv4(9, 9, 9, 9), 5,
                                     make_ipv4(10, 0, 0, 2), 5,
                                     MsgBuffer::from_string("x")),
               std::invalid_argument);
  EXPECT_THROW(t.stacks[0]->udp_send(make_ipv4(10, 0, 0, 1), 5,
                                     make_ipv4(10, 9, 9, 9), 5,
                                     MsgBuffer::from_string("x")),
               std::invalid_argument);
}

TEST(Stack, OversizeDatagramRejected) {
  Trio t;
  EXPECT_THROW(
      t.stacks[0]->udp_send(make_ipv4(10, 0, 0, 1), 5, make_ipv4(10, 0, 0, 2),
                            5, MsgBuffer::junk(70000)),
      std::length_error);
}

TEST(Stack, DoubleBindRejected) {
  Trio t;
  auto h = [](proto::Ipv4Addr, std::uint16_t, proto::Ipv4Addr, std::uint16_t,
              MsgBuffer) {};
  t.stacks[0]->udp_bind(7, h);
  EXPECT_THROW(t.stacks[0]->udp_bind(7, h), std::invalid_argument);
  t.stacks[0]->udp_unbind(7);
  EXPECT_NO_THROW(t.stacks[0]->udp_bind(7, h));
}

TEST(Stack, FrameForOtherHostDropped) {
  // Deliver a frame whose IP dst is not local: counted, not dispatched.
  Trio t;
  proto::Frame f;
  f.eth.dst = 0xa1;
  f.eth.src = 0xa0;
  f.ip.src = make_ipv4(10, 0, 0, 1);
  f.ip.dst = make_ipv4(10, 0, 0, 99);
  f.ip.protocol = proto::IpProto::Udp;
  f.udp = proto::UdpHeader{1, 2, 8, 0};
  t.stacks[1]->nic(0).deliver(proto::box_frame(std::move(f)));
  t.loop.run();
  EXPECT_EQ(t.stacks[1]->stats().not_mine_drops, 1u);
}

// ---------------------------------------------------------------------------
// HTTP parsing pathologies
// ---------------------------------------------------------------------------

struct WebRig {
  WebRig() {
    cfg.mode = core::PassMode::Original;
    tb = std::make_unique<testbed::Testbed>(cfg);
    tb->image().add_file("a.html", 5000);
    tb->start_base();
    http::KHttpd::Config hc;
    server = std::make_unique<http::KHttpd>(tb->server_node().stack,
                                            tb->fs(), hc, nullptr);
    server->start();
  }
  testbed::TestbedConfig cfg;
  std::unique_ptr<testbed::Testbed> tb;
  std::unique_ptr<http::KHttpd> server;
};

TEST(HttpParsing, HeaderSplitAcrossSegments) {
  WebRig rig;
  auto fn = [&]() -> Task<void> {
    auto conn = co_await rig.tb->client_node(0).stack.tcp_connect(
        rig.tb->client_ip(0), rig.tb->server_ip(0), 80);
    std::vector<std::byte> got;
    conn->set_data_handler([&](MsgBuffer m) {
      auto b = m.to_bytes();
      got.insert(got.end(), b.begin(), b.end());
    });
    // Drip the request one byte... in three fragments with the terminator
    // straddling the boundary.
    std::string req = "GET /a.html HTTP/1.1\r\nHost: h\r\n\r\n";
    conn->send(MsgBuffer::from_string(req.substr(0, 10)));
    co_await sim::sleep_for(rig.tb->loop(), 5 * sim::kMillisecond);
    conn->send(MsgBuffer::from_string(req.substr(10, req.size() - 12)));
    co_await sim::sleep_for(rig.tb->loop(), 5 * sim::kMillisecond);
    conn->send(MsgBuffer::from_string(req.substr(req.size() - 2)));
    co_await sim::sleep_for(rig.tb->loop(), 100 * sim::kMillisecond);
    std::string text(reinterpret_cast<const char*>(got.data()), got.size());
    EXPECT_NE(text.find("200 OK"), std::string::npos);
    EXPECT_NE(text.find("Content-Length: 5000"), std::string::npos);
  };
  sim::sync_wait(rig.tb->loop(), fn());
}

TEST(HttpParsing, ClientHandlesSplitHeaderAndBody) {
  WebRig rig;
  http::HttpClient client(rig.tb->client_node(0).stack, rig.tb->client_ip(0),
                          rig.tb->server_ip(0));
  auto fn = [&]() -> Task<void> {
    co_await client.connect();
    for (int i = 0; i < 3; ++i) {
      auto r = co_await client.get("/a.html");
      EXPECT_EQ(r.status, 200);
      EXPECT_EQ(r.content_length, 5000u);
    }
  };
  sim::sync_wait(rig.tb->loop(), fn());
  EXPECT_EQ(client.stats().ok, 3u);
}

// ---------------------------------------------------------------------------
// Image builder edges
// ---------------------------------------------------------------------------

TEST(ImageBuilder, RejectsAfterFinishAndBadNames) {
  sim::EventLoop loop;
  sim::CostModel costs;
  blockdev::BlockStore store(loop, costs, "st", 4096);
  fs::FsImageBuilder b(store, 4096, 256);
  EXPECT_EQ(b.add_file("", 100), 0u);
  EXPECT_EQ(b.add_file(std::string(200, 'x'), 100), 0u);
  EXPECT_NE(b.add_file("ok", 100), 0u);
  b.finish();
  EXPECT_TRUE(b.finished());
  EXPECT_THROW(b.add_file("late", 100), std::logic_error);
  EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(ImageBuilder, ZeroByteFile) {
  sim::EventLoop loop;
  sim::CostModel costs;
  blockdev::BlockStore store(loop, costs, "st", 4096);
  fs::FsImageBuilder b(store, 4096, 256);
  std::uint32_t ino = b.add_file("empty", 0);
  ASSERT_NE(ino, 0u);
  b.finish();

  sim::CpuModel cpu(loop, "cpu");
  netbuf::CopyEngine copier(cpu, costs);
  iscsi::LocalBlockClient client(store, copier);
  fs::SimpleFs fsys(loop, client, 64);
  auto fn = [&]() -> Task<void> {
    co_await fsys.mount();
    auto attr = co_await fsys.getattr(ino);
    EXPECT_EQ(attr.size, 0u);
    auto data = co_await fsys.read(ino, 0, 4096);
    EXPECT_TRUE(data.empty());
  };
  sim::sync_wait(loop, fn());
}

TEST(ImageBuilder, ContentBytesDistinctAcrossFilesAndOffsets) {
  // The deterministic pattern must differ between files and along a file,
  // or integrity checks would pass vacuously.
  int same_file = 0, same_offset = 0;
  for (int i = 0; i < 256; ++i) {
    if (fs::content_byte(1, std::uint64_t(i)) ==
        fs::content_byte(2, std::uint64_t(i))) {
      ++same_offset;
    }
    if (fs::content_byte(1, std::uint64_t(i)) ==
        fs::content_byte(1, std::uint64_t(i) + 4096)) {
      ++same_file;
    }
  }
  EXPECT_LT(same_offset, 64);
  EXPECT_LT(same_file, 64);
}

// ---------------------------------------------------------------------------
// Copy engine / meters under the testbed
// ---------------------------------------------------------------------------

TEST(Meters, SnapshotWindowsAreConsistent) {
  testbed::TestbedConfig cfg;
  cfg.mode = core::PassMode::NCache;
  testbed::Testbed tb(cfg);
  std::uint32_t ino = tb.image().add_file("f.bin", 1 << 20);
  tb.start_nfs();

  auto fn = [&]() -> Task<void> {
    for (std::uint64_t off = 0; off < (1u << 20); off += 32768) {
      (void)co_await tb.nfs_client(0).read(ino, off, 32768);
    }
  };
  tb.reset_stats();
  sim::Time t0 = tb.loop().now();
  sim::sync_wait(tb.loop(), fn());
  auto snap = tb.snapshot(t0);

  EXPECT_GT(snap.elapsed_s, 0.0);
  EXPECT_GE(snap.server_cpu, 0.0);
  EXPECT_LE(snap.server_cpu, 1.0);
  EXPECT_GE(snap.storage_cpu, 0.0);
  EXPECT_LE(snap.server_link_util, 1.0);
  EXPECT_EQ(snap.server_data_copies, 0u);  // NCache mode
  EXPECT_GT(snap.server_logical_copies, 0u);
  EXPECT_EQ(snap.nfs_requests, 32u);
  EXPECT_EQ(snap.read_bytes_served, 1u << 20);
}

}  // namespace
}  // namespace ncache
