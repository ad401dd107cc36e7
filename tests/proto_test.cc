// Tests for the protocol stack: header codecs, IP fragmentation and
// reassembly, NIC/switch forwarding, UDP end-to-end, and TCP behaviour
// including loss recovery driven through the driver-boundary frame filter
// (the same hook NCache attaches to).
#include <gtest/gtest.h>

#include <memory>

#include "netbuf/copy_engine.h"
#include "proto/headers.h"
#include "proto/ip_reassembly.h"
#include "proto/stack.h"
#include "proto/switch.h"
#include "sim/cost_model.h"

namespace ncache::proto {
namespace {

using netbuf::MsgBuffer;

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::byte((i * 13 + seed) & 0xff);
  return v;
}

TEST(Headers, EthRoundTrip) {
  EthHeader h{0x001122334455ULL, 0x66778899aabbULL, kEtherTypeIpv4};
  std::vector<std::byte> buf;
  ByteWriter w(buf);
  h.serialize(w);
  ASSERT_EQ(buf.size(), kEthHeaderBytes);
  ByteReader r(buf);
  EXPECT_EQ(EthHeader::parse(r), h);
}

TEST(Headers, Ipv4RoundTripAndChecksum) {
  Ipv4Header h;
  h.total_length = 1500;
  h.id = 777;
  h.more_fragments = true;
  h.fragment_offset = 185;
  h.protocol = IpProto::Tcp;
  h.src = make_ipv4(10, 0, 0, 1);
  h.dst = make_ipv4(10, 0, 0, 2);
  auto bytes = h.serialize_with_checksum();
  ASSERT_EQ(bytes.size(), kIpv4HeaderBytes);
  EXPECT_TRUE(Ipv4Header::checksum_ok(bytes));

  ByteReader r(bytes);
  Ipv4Header parsed = Ipv4Header::parse(r);
  EXPECT_EQ(parsed.id, 777);
  EXPECT_TRUE(parsed.more_fragments);
  EXPECT_EQ(parsed.fragment_offset, 185);
  EXPECT_EQ(parsed.src, h.src);

  // Corruption is detected.
  bytes[8] ^= std::byte{0xff};
  EXPECT_FALSE(Ipv4Header::checksum_ok(bytes));
}

TEST(Headers, UdpTcpRoundTrip) {
  UdpHeader u{2049, 700, 1008, 0xabcd};
  std::vector<std::byte> b1;
  ByteWriter w1(b1);
  u.serialize(w1);
  ByteReader r1(b1);
  EXPECT_EQ(UdpHeader::parse(r1), u);

  TcpHeader t;
  t.src_port = 3260;
  t.dst_port = 49152;
  t.seq = 0xdeadbeef;
  t.ack = 0x01020304;
  t.flags = kTcpPsh | kTcpAck;
  t.window = 65535;
  std::vector<std::byte> b2;
  ByteWriter w2(b2);
  t.serialize(w2);
  ASSERT_EQ(b2.size(), kTcpHeaderBytes);
  ByteReader r2(b2);
  EXPECT_EQ(TcpHeader::parse(r2), t);
}

TEST(Headers, Ipv4ToString) {
  EXPECT_EQ(ipv4_to_string(make_ipv4(192, 168, 1, 10)), "192.168.1.10");
}

// ---------------------------------------------------------------------------
// Reassembly
// ---------------------------------------------------------------------------

Frame make_fragment(std::uint16_t id, std::uint32_t data_off,
                    MsgBuffer payload, bool more, bool with_udp) {
  Frame f;
  f.ip.id = id;
  f.ip.protocol = IpProto::Udp;
  f.ip.src = make_ipv4(10, 0, 0, 1);
  f.ip.dst = make_ipv4(10, 0, 0, 2);
  f.ip.fragment_offset = static_cast<std::uint16_t>(data_off / 8);
  f.ip.more_fragments = more;
  if (with_udp) f.udp = UdpHeader{1, 2, 0, 0};
  f.payload = std::move(payload);
  return f;
}

TEST(FrameBox, RecyclesStorageAndDestroysContents) {
  // A released box returns to the free list with its frame destroyed (the
  // payload's buffer reference dropped); the next box reuses the storage
  // and holds only the new frame.
  auto buf = netbuf::make_buffer(64);
  buf->put(64);
  Frame f;
  f.ip.id = 7;
  f.payload = MsgBuffer::wrap(buf);
  FrameBox a = box_frame(std::move(f));
  EXPECT_EQ(buf.use_count(), 2);
  const Frame* storage = a.get();
  a.reset();
  EXPECT_EQ(buf.use_count(), 1);

  Frame g;
  g.ip.id = 9;
  g.payload = MsgBuffer::junk(5);
  FrameBox b = box_frame(std::move(g));
  EXPECT_EQ(b.get(), storage);
  EXPECT_EQ(b->ip.id, 9);
  EXPECT_EQ(b->payload.size(), 5u);
  EXPECT_TRUE(b->payload.has_junk());
}

TEST(Reassembly, InOrderFragments) {
  sim::EventLoop loop;
  IpReassembler ra(loop);
  auto pat = pattern(3000);
  MsgBuffer whole = MsgBuffer::from_bytes(pat);

  EXPECT_FALSE(ra.feed(make_fragment(5, 0, whole.slice(0, 1472), true, true)));
  EXPECT_FALSE(
      ra.feed(make_fragment(5, 1472, whole.slice(1472, 1480), true, false)));
  auto done =
      ra.feed(make_fragment(5, 2952, whole.slice(2952, 48), false, false));
  ASSERT_TRUE(done);
  EXPECT_EQ(done->payload.to_bytes(), pat);
  ASSERT_TRUE(done->udp);
  EXPECT_EQ(ra.pending(), 0u);
}

TEST(Reassembly, OutOfOrderAndInterleavedFlows) {
  sim::EventLoop loop;
  IpReassembler ra(loop);
  auto pa = pattern(2000, 1);
  auto pb = pattern(2000, 2);
  MsgBuffer a = MsgBuffer::from_bytes(pa);
  MsgBuffer b = MsgBuffer::from_bytes(pb);

  EXPECT_FALSE(ra.feed(make_fragment(1, 1472, a.slice(1472, 528), false, false)));
  EXPECT_FALSE(ra.feed(make_fragment(2, 1472, b.slice(1472, 528), false, false)));
  EXPECT_EQ(ra.pending(), 2u);
  auto da = ra.feed(make_fragment(1, 0, a.slice(0, 1472), true, true));
  ASSERT_TRUE(da);
  EXPECT_EQ(da->payload.to_bytes(), pa);
  auto db = ra.feed(make_fragment(2, 0, b.slice(0, 1472), true, true));
  ASSERT_TRUE(db);
  EXPECT_EQ(db->payload.to_bytes(), pb);
}

TEST(Reassembly, DuplicateFragmentHarmless) {
  sim::EventLoop loop;
  IpReassembler ra(loop);
  auto pat = pattern(2000);
  MsgBuffer m = MsgBuffer::from_bytes(pat);
  EXPECT_FALSE(ra.feed(make_fragment(9, 0, m.slice(0, 1472), true, true)));
  EXPECT_FALSE(ra.feed(make_fragment(9, 0, m.slice(0, 1472), true, true)));
  auto done = ra.feed(make_fragment(9, 1472, m.slice(1472, 528), false, false));
  ASSERT_TRUE(done);
  EXPECT_EQ(done->payload.to_bytes(), pat);
}

TEST(Reassembly, ExpireDropsStalePartials) {
  sim::EventLoop loop;
  IpReassembler ra(loop, 1000);
  auto pat = pattern(2000);
  MsgBuffer m = MsgBuffer::from_bytes(pat);
  ra.feed(make_fragment(3, 0, m.slice(0, 1472), true, true));
  EXPECT_EQ(ra.pending(), 1u);
  loop.schedule_at(5000, [] {});
  loop.run();
  // The self-arming expiry timer evicted the stale partial during run();
  // a manual sweep finds nothing left.
  EXPECT_EQ(ra.pending(), 0u);
  EXPECT_EQ(ra.timeouts(), 1u);
  EXPECT_EQ(ra.expire(), 0u);
}

TEST(Reassembly, UnfragmentedPassThrough) {
  sim::EventLoop loop;
  IpReassembler ra(loop);
  auto done = ra.feed(make_fragment(1, 0, MsgBuffer::from_bytes(pattern(100)),
                                    false, true));
  ASSERT_TRUE(done);
  EXPECT_EQ(done->payload.size(), 100u);
}

// ---------------------------------------------------------------------------
// Two-host fixture: A and B on one switch
// ---------------------------------------------------------------------------

struct Host {
  Host(sim::EventLoop& loop, const sim::CostModel& costs,
       std::shared_ptr<AddressBook> book, std::string name, MacAddr mac,
       Ipv4Addr ip)
      : cpu(loop, name + ".cpu"),
        copier(cpu, costs),
        stack(loop, cpu, copier, costs, name, std::move(book)) {
    stack.add_nic(mac, ip);
  }
  sim::CpuModel cpu;
  netbuf::CopyEngine copier;
  NetworkStack stack;
};

class TwoHostTest : public ::testing::Test {
 protected:
  TwoHostTest()
      : book_(std::make_shared<AddressBook>()),
        sw_(loop_, "sw", costs_),
        a_(loop_, costs_, book_, "A", 0xaa, make_ipv4(10, 0, 0, 1)),
        b_(loop_, costs_, book_, "B", 0xbb, make_ipv4(10, 0, 0, 2)) {
    sw_.connect(a_.stack.nic(0));
    sw_.connect(b_.stack.nic(0));
  }

  sim::EventLoop loop_;
  sim::CostModel costs_{};
  std::shared_ptr<AddressBook> book_;
  EthernetSwitch sw_;
  Host a_;
  Host b_;
};

TEST_F(TwoHostTest, UdpSmallDatagram) {
  auto pat = pattern(512);
  MsgBuffer got;
  bool received = false;
  b_.stack.udp_bind(2049, [&](Ipv4Addr sip, std::uint16_t sport, Ipv4Addr dip,
                              std::uint16_t dport, MsgBuffer m) {
    EXPECT_EQ(sip, make_ipv4(10, 0, 0, 1));
    EXPECT_EQ(sport, 700);
    EXPECT_EQ(dip, make_ipv4(10, 0, 0, 2));
    EXPECT_EQ(dport, 2049);
    got = std::move(m);
    received = true;
  });
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 2049,
                    MsgBuffer::from_bytes(pat));
  loop_.run();
  ASSERT_TRUE(received);
  EXPECT_EQ(got.to_bytes(), pat);
  EXPECT_EQ(b_.stack.stats().bad_checksum_drops, 0u);
}

TEST_F(TwoHostTest, UdpFragmentedDatagramReassembles) {
  auto pat = pattern(32 * 1024);
  MsgBuffer got;
  b_.stack.udp_bind(2049, [&](Ipv4Addr, std::uint16_t, Ipv4Addr, std::uint16_t,
                              MsgBuffer m) { got = std::move(m); });
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 2049,
                    MsgBuffer::from_bytes(pat));
  loop_.run();
  EXPECT_EQ(got.to_bytes(), pat);
  // ~23 frames for 32 KB.
  EXPECT_GE(b_.stack.nic(0).rx_frames().value(), 22u);
}

TEST_F(TwoHostTest, UdpEchoRequestResponse) {
  b_.stack.udp_bind(53, [&](Ipv4Addr sip, std::uint16_t sport, Ipv4Addr dip,
                            std::uint16_t, MsgBuffer m) {
    b_.stack.udp_send(dip, 53, sip, sport, std::move(m));
  });
  auto pat = pattern(100);
  bool echoed = false;
  a_.stack.udp_bind(700, [&](Ipv4Addr, std::uint16_t, Ipv4Addr, std::uint16_t,
                             MsgBuffer m) {
    echoed = m.to_bytes() == pat;
  });
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 53,
                    MsgBuffer::from_bytes(pat));
  loop_.run();
  EXPECT_TRUE(echoed);
}

TEST_F(TwoHostTest, UdpUnboundPortDropped) {
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 9999,
                    MsgBuffer::from_bytes(pattern(10)));
  loop_.run();
  EXPECT_EQ(b_.stack.stats().no_handler_drops, 1u);
}

TEST_F(TwoHostTest, UdpLogicalPayloadTravelsAsKeys) {
  // A KeySeg payload that is never materialized (no egress filter): it must
  // arrive as keys with the checksum marked inherited, not as bytes.
  MsgBuffer got;
  b_.stack.udp_bind(2049, [&](Ipv4Addr, std::uint16_t, Ipv4Addr, std::uint16_t,
                              MsgBuffer m) { got = std::move(m); });
  MsgBuffer payload;
  payload.append(MsgBuffer::from_key(netbuf::LbnKey{0, 11}, 0, 4096));
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 2049,
                    std::move(payload));
  loop_.run();
  EXPECT_EQ(got.size(), 4096u);
  EXPECT_TRUE(got.has_keys());
  EXPECT_EQ(got.key_count(), 3u);  // sliced across 3 MTU fragments
}

TEST_F(TwoHostTest, TcpConnectTransfersBidirectional) {
  auto c2s = pattern(100 * 1000, 3);
  auto s2c = pattern(50 * 1000, 4);

  std::vector<std::byte> server_got, client_got;
  b_.stack.tcp_listen(3260, [&](TcpConnectionPtr conn) {
    conn->set_data_handler([&, conn](MsgBuffer m) {
      auto bytes = m.to_bytes();
      server_got.insert(server_got.end(), bytes.begin(), bytes.end());
      if (server_got.size() == c2s.size()) {
        conn->send(MsgBuffer::from_bytes(s2c));
      }
    });
  });

  bool done = false;
  auto driver_fn = [&]() -> Task<void> {
    auto conn = co_await a_.stack.tcp_connect(
        make_ipv4(10, 0, 0, 1), make_ipv4(10, 0, 0, 2), 3260);
    conn->set_data_handler([&](MsgBuffer m) {
      auto bytes = m.to_bytes();
      client_got.insert(client_got.end(), bytes.begin(), bytes.end());
      if (client_got.size() == s2c.size()) done = true;
    });
    conn->send(MsgBuffer::from_bytes(c2s));
  };
  auto driver = driver_fn();
  std::move(driver).detach();
  loop_.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(server_got, c2s);
  EXPECT_EQ(client_got, s2c);
}

TEST_F(TwoHostTest, TcpRecoversFromLoss) {
  // Drop ~3% of frames on A's egress via the driver-boundary filter — the
  // same attachment point NCache uses.
  int counter = 0;
  a_.stack.nic(0).set_egress_filter([&](Frame&) {
    ++counter;
    return counter % 31 != 0;
  });

  auto payload = pattern(200 * 1000, 9);
  std::vector<std::byte> got;
  b_.stack.tcp_listen(80, [&](TcpConnectionPtr conn) {
    conn->set_data_handler([&](MsgBuffer m) {
      auto bytes = m.to_bytes();
      got.insert(got.end(), bytes.begin(), bytes.end());
    });
  });

  TcpConnectionPtr client;
  auto driver_fn = [&]() -> Task<void> {
    client = co_await a_.stack.tcp_connect(make_ipv4(10, 0, 0, 1),
                                           make_ipv4(10, 0, 0, 2), 80);
    client->send(MsgBuffer::from_bytes(payload));
  };
  auto driver = driver_fn();
  std::move(driver).detach();
  loop_.run();

  EXPECT_EQ(got, payload);
  ASSERT_TRUE(client);
  EXPECT_GT(client->stats().retransmits, 0u);
}

TEST_F(TwoHostTest, TcpGracefulClose) {
  bool server_closed = false, client_closed = false;
  TcpConnectionPtr server_conn;
  b_.stack.tcp_listen(80, [&](TcpConnectionPtr conn) {
    server_conn = conn;
    conn->set_on_close([&] { server_closed = true; });
    conn->set_data_handler([conn](MsgBuffer) { conn->close(); });
  });

  auto driver_fn = [&]() -> Task<void> {
    auto conn = co_await a_.stack.tcp_connect(make_ipv4(10, 0, 0, 1),
                                              make_ipv4(10, 0, 0, 2), 80);
    conn->set_on_close([&] { client_closed = true; });
    conn->send(MsgBuffer::from_bytes(pattern(10)));
    conn->close();
  };
  auto driver = driver_fn();
  std::move(driver).detach();
  loop_.run();

  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(client_closed);
}

TEST_F(TwoHostTest, TcpConnectToClosedPortNeverEstablishes) {
  bool established = false;
  auto driver_fn = [&]() -> Task<void> {
    auto conn = co_await a_.stack.tcp_connect(make_ipv4(10, 0, 0, 1),
                                              make_ipv4(10, 0, 0, 2), 4444);
    (void)conn;
    established = true;
  };
  auto driver = driver_fn();
  std::move(driver).detach();
  loop_.run_until(10 * sim::kSecond);
  EXPECT_FALSE(established);
}

TEST_F(TwoHostTest, PerFrameCpuCostIsCharged) {
  auto pat = pattern(32 * 1024);
  b_.stack.udp_bind(2049, [&](Ipv4Addr, std::uint16_t, Ipv4Addr, std::uint16_t,
                              MsgBuffer) {});
  a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2), 2049,
                    MsgBuffer::from_bytes(pat));
  loop_.run();
  // 23 fragments * 6us tx on A.
  EXPECT_GE(a_.cpu.busy_ns(), 22 * costs_.packet_tx_ns);
  EXPECT_GE(b_.cpu.busy_ns(), 22 * costs_.packet_rx_ns);
}

TEST_F(TwoHostTest, ThroughputBoundedByLineRate) {
  // Blast 20 MB of UDP; goodput cannot exceed ~117 MB/s on GbE. Measure at
  // the last delivery: rx-queue overflow drops leave incomplete datagrams
  // behind, and run() now extends past their reassembly-expiry sweep.
  std::size_t got = 0;
  sim::Time last = 0;
  b_.stack.udp_bind(2049, [&](Ipv4Addr, std::uint16_t, Ipv4Addr, std::uint16_t,
                              MsgBuffer m) {
    got += m.size();
    last = loop_.now();
  });
  const std::size_t kChunk = 32 * 1024;
  auto pat = pattern(kChunk);
  for (int i = 0; i < 640; ++i) {
    a_.stack.udp_send(make_ipv4(10, 0, 0, 1), 700, make_ipv4(10, 0, 0, 2),
                      2049, MsgBuffer::from_bytes(pat));
  }
  loop_.run();
  double secs = double(last) / 1e9;
  double mbps = double(got) / 1e6 / secs;
  EXPECT_LT(mbps, 125.0);
  EXPECT_GT(mbps, 80.0);
}

}  // namespace
}  // namespace ncache::proto
