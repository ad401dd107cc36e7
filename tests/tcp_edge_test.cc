// TCP edge cases beyond the happy path: Nagle/SWS behaviour, RST
// handling, duplicate SYNs, window-limited transfers, logical payloads
// through retransmission, and connection table reaping.
#include <gtest/gtest.h>

#include "netbuf/copy_engine.h"
#include "proto/stack.h"
#include "proto/switch.h"

namespace ncache::proto {
namespace {

using netbuf::MsgBuffer;

std::vector<std::byte> pattern(std::size_t n, int seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = std::byte((i * 13 + seed) & 0xff);
  return v;
}

struct Pair {
  Pair()
      : book(std::make_shared<AddressBook>()),
        sw(loop, "sw", costs),
        a_cpu(loop, "a"),
        a_cp(a_cpu, costs),
        a(loop, a_cpu, a_cp, costs, "A", book),
        b_cpu(loop, "b"),
        b_cp(b_cpu, costs),
        b(loop, b_cpu, b_cp, costs, "B", book) {
    a.add_nic(0xa, make_ipv4(10, 0, 0, 1));
    b.add_nic(0xb, make_ipv4(10, 0, 0, 2));
    sw.connect(a.nic(0));
    sw.connect(b.nic(0));
  }
  sim::EventLoop loop;
  sim::CostModel costs;
  std::shared_ptr<AddressBook> book;
  EthernetSwitch sw;
  sim::CpuModel a_cpu;
  netbuf::CopyEngine a_cp;
  NetworkStack a;
  sim::CpuModel b_cpu;
  netbuf::CopyEngine b_cp;
  NetworkStack b;

  TcpConnectionPtr connect(std::uint16_t port) {
    TcpConnectionPtr out;
    auto fn = [&]() -> Task<void> {
      out = co_await a.tcp_connect(make_ipv4(10, 0, 0, 1),
                                   make_ipv4(10, 0, 0, 2), port);
    };
    sim::sync_wait(loop, fn());
    return out;
  }
};

TEST(TcpEdge, NagleCoalescesTinyWrites) {
  Pair p;
  std::uint64_t frames = 0;
  std::vector<std::byte> got;
  p.b.tcp_listen(80, [&](TcpConnectionPtr conn) {
    conn->set_data_handler([&](MsgBuffer m) {
      auto b = m.to_bytes();
      got.insert(got.end(), b.begin(), b.end());
    });
  });
  auto conn = p.connect(80);
  // 200 ten-byte sends back to back: without Nagle this would be 200
  // tiny frames; with it, the first goes out alone and the rest coalesce
  // into MSS-bounded segments.
  auto data = pattern(2000);
  for (int i = 0; i < 200; ++i) {
    conn->send(MsgBuffer::from_bytes(
        {data.data() + i * 10, 10}));
  }
  p.loop.run();
  frames = conn->stats().segments_sent;
  EXPECT_EQ(got, data);
  EXPECT_LT(frames, 30u);  // far fewer segments than sends
}

TEST(TcpEdge, WindowLimitsInflight) {
  Pair p;
  TcpConnectionPtr server_side;
  p.b.tcp_listen(80, [&](TcpConnectionPtr conn) {
    server_side = conn;
    conn->set_data_handler([](MsgBuffer) {});
  });
  auto conn = p.connect(80);
  conn->send(MsgBuffer::from_bytes(pattern(200 * 1000)));
  // At any instant the unacked bytes never exceed the 64 KB window.
  bool violated = false;
  for (int i = 0; i < 10000 && !p.loop.idle(); ++i) {
    p.loop.step();
    if (conn->unacked_bytes() > TcpConnection::kWindow) violated = true;
  }
  p.loop.run();
  EXPECT_FALSE(violated);
}

TEST(TcpEdge, RstTearsDownBothEnds) {
  Pair p;
  TcpConnectionPtr server_side;
  bool server_closed = false;
  p.b.tcp_listen(80, [&](TcpConnectionPtr conn) {
    server_side = conn;
    conn->set_on_close([&] { server_closed = true; });
    conn->set_data_handler([](MsgBuffer) {});
  });
  auto conn = p.connect(80);
  bool client_closed = false;
  conn->set_on_close([&] { client_closed = true; });
  conn->send(MsgBuffer::from_bytes(pattern(100)));
  p.loop.run();
  conn->reset();
  p.loop.run();
  EXPECT_TRUE(client_closed);
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_side->state(), TcpConnection::State::Closed);
}

TEST(TcpEdge, DuplicateSynIsReanswered) {
  Pair p;
  int accepts = 0;
  p.b.tcp_listen(80, [&](TcpConnectionPtr) { ++accepts; });
  // Drop B's first SYNACK so A retransmits its SYN.
  int counter = 0;
  p.b.nic(0).set_egress_filter([&](Frame& f) {
    if (f.tcp && f.tcp->syn() && ++counter == 1) return false;
    return true;
  });
  auto conn = p.connect(80);
  ASSERT_TRUE(conn);
  EXPECT_TRUE(conn->established());
  p.loop.run();  // let the final ACK reach B
  EXPECT_EQ(accepts, 1);  // one logical connection despite the retry
}

TEST(TcpEdge, LogicalPayloadRetransmitsAsKeys) {
  // A KeySeg payload travels through the TCP retransmit queue without
  // materialization until (a missing) egress filter; both copies arrive
  // as logical segments.
  Pair p;
  std::size_t got_logical = 0;
  std::size_t got_total = 0;
  p.b.tcp_listen(80, [&](TcpConnectionPtr conn) {
    conn->set_data_handler([&](MsgBuffer m) {
      got_total += m.size();
      got_logical += m.logical_bytes();
    });
  });
  // Drop one data frame to force a retransmission.
  int counter = 0;
  p.a.nic(0).set_egress_filter([&](Frame& f) {
    if (f.tcp && !f.payload.empty() && ++counter == 2) return false;
    return true;
  });
  auto conn = p.connect(80);
  MsgBuffer payload;
  payload.append(MsgBuffer::from_key(netbuf::LbnKey{0, 1}, 0, 4096));
  payload.append(MsgBuffer::from_key(netbuf::LbnKey{0, 2}, 0, 4096));
  conn->send(std::move(payload));
  p.loop.run_until(10 * sim::kSecond);
  EXPECT_EQ(got_total, 8192u);
  EXPECT_EQ(got_logical, 8192u);
  EXPECT_GT(conn->stats().retransmits, 0u);
}

TEST(TcpEdge, ManySequentialConnections) {
  Pair p;
  int served = 0;
  p.b.tcp_listen(80, [&](TcpConnectionPtr conn) {
    conn->set_data_handler([conn, &served](MsgBuffer m) {
      ++served;
      conn->send(std::move(m));  // echo
      conn->close();
    });
  });
  auto fn = [&]() -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      auto conn = co_await p.a.tcp_connect(make_ipv4(10, 0, 0, 1),
                                           make_ipv4(10, 0, 0, 2), 80);
      bool echoed = false;
      conn->set_data_handler([&](MsgBuffer) { echoed = true; });
      conn->send(MsgBuffer::from_string("ping"));
      while (!echoed) co_await sim::sleep_for(p.loop, sim::kMillisecond);
      conn->close();
    }
  };
  sim::sync_wait(p.loop, fn());
  EXPECT_EQ(served, 50);
}

TEST(TcpEdge, SendAfterCloseIsDropped) {
  Pair p;
  p.b.tcp_listen(80, [](TcpConnectionPtr conn) {
    conn->set_data_handler([](MsgBuffer) {});
  });
  auto conn = p.connect(80);
  conn->close();
  p.loop.run();
  auto sent_before = conn->stats().bytes_sent;
  conn->send(MsgBuffer::from_bytes(pattern(100)));
  p.loop.run();
  EXPECT_EQ(conn->stats().bytes_sent, sent_before);
}

TEST(TcpEdge, ZeroByteSendIsNoop) {
  Pair p;
  p.b.tcp_listen(80, [](TcpConnectionPtr conn) {
    conn->set_data_handler([](MsgBuffer) {});
  });
  auto conn = p.connect(80);
  auto segs = conn->stats().segments_sent;
  conn->send(MsgBuffer{});
  p.loop.run();
  EXPECT_EQ(conn->stats().segments_sent, segs);
}

TEST(TcpEdge, RetransmitAcrossSequenceWrap) {
  // Two bare connections joined by a 10 us wire. The sender's ISS puts
  // its sequence space 4 KB before the 32-bit wrap, and its first data
  // segment is lost: recovery must resend that segment (the oldest one,
  // sent before the wrap), not whichever segment has the lowest raw
  // sequence number.
  sim::EventLoop loop;
  TcpConnectionPtr a;
  TcpConnectionPtr b;
  bool b_open = false;
  int data_segments = 0;
  auto wire = [&loop](TcpConnectionPtr* to, bool* open_on_syn) {
    return [&loop, to, open_on_syn](TcpConnection&, TcpHeader h,
                                    MsgBuffer payload) {
      loop.schedule_in(10 * sim::kMicrosecond,
                       [to, open_on_syn, h, p = std::move(payload)]() mutable {
                         if (open_on_syn && !*open_on_syn) {
                           *open_on_syn = true;
                           (*to)->open_passive(h.seq);
                           return;
                         }
                         (*to)->on_segment(h, std::move(p));
                       });
    };
  };
  auto to_b = wire(&b, &b_open);
  a = std::make_shared<TcpConnection>(
      loop, make_ipv4(10, 0, 0, 1), 4000, make_ipv4(10, 0, 0, 2), 80,
      0xFFFFF000u, [&](TcpConnection& c, TcpHeader h, MsgBuffer payload) {
        if (!payload.empty() && ++data_segments == 1) return;  // lost
        to_b(c, h, std::move(payload));
      });
  b = std::make_shared<TcpConnection>(loop, make_ipv4(10, 0, 0, 2), 80,
                                      make_ipv4(10, 0, 0, 1), 4000, 5000,
                                      wire(&a, nullptr));
  std::vector<std::byte> got;
  b->set_data_handler([&](MsgBuffer m) {
    auto bytes = m.to_bytes();
    got.insert(got.end(), bytes.begin(), bytes.end());
  });
  a->open_active();
  loop.run_until(sim::kMillisecond);
  ASSERT_TRUE(a->established());
  ASSERT_TRUE(b->established());

  auto data = pattern(65000);
  a->send(MsgBuffer::from_bytes(data));
  loop.run_until(30 * sim::kSecond);
  EXPECT_EQ(got.size(), data.size());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a->unacked_bytes(), 0u);
  EXPECT_GT(a->stats().retransmits, 0u);
}

}  // namespace
}  // namespace ncache::proto
