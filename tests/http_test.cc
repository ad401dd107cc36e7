// kHTTPd end-to-end tests over the testbed: request parsing, keep-alive,
// 404s, body integrity per mode, sendfile copy counts (Table 2's kHTTPd
// row), and NCache substitution on the HTTP path.
#include <gtest/gtest.h>

#include "http/client.h"
#include "http/khttpd.h"
#include "testbed/testbed.h"

namespace ncache::http {
namespace {

using core::PassMode;
using netbuf::MsgBuffer;
using testbed::Testbed;
using testbed::TestbedConfig;

struct WebEnd {
  explicit WebEnd(PassMode mode, TestbedConfig base = {}) {
    base.mode = mode;
    tb = std::make_unique<Testbed>(base);
    small_ino = tb->image().add_file("index.html", 30'000);
    big_ino = tb->image().add_file("big.bin", 700'000);
    sub = tb->image().add_dir("assets");
    nested_ino = tb->image().add_file("logo.png", 12'345, sub);
    tb->start_base();

    KHttpd::Config hc;
    hc.mode = mode;
    server = std::make_unique<KHttpd>(tb->server_node().stack, tb->fs(), hc,
                                      tb->ncache());
    server->start();

    client = std::make_unique<HttpClient>(tb->client_node(0).stack,
                                          tb->client_ip(0), tb->server_ip(0));
  }

  template <typename F>
  void run(F&& body) {
    auto t_fn = [&]() -> Task<void> { co_await body(); };
    sim::sync_wait(tb->loop(), t_fn());
  }

  std::unique_ptr<Testbed> tb;
  std::unique_ptr<KHttpd> server;
  std::unique_ptr<HttpClient> client;
  std::uint32_t small_ino = 0, big_ino = 0, nested_ino = 0, sub = 0;
};

class HttpModes : public ::testing::TestWithParam<PassMode> {};

TEST_P(HttpModes, GetSmallPage) {
  WebEnd e(GetParam());
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    auto r = co_await e.client->get("/index.html");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.content_length, 30'000u);
    if (GetParam() == PassMode::Baseline) {
      EXPECT_TRUE(r.junk);
    } else {
      EXPECT_FALSE(r.junk);
      EXPECT_EQ(fs::verify_content(e.small_ino, 0, r.body.to_bytes()),
                std::size_t(-1));
    }
  });
}

TEST_P(HttpModes, GetLargeBodyAcrossManyChunks) {
  WebEnd e(GetParam());
  if (GetParam() == PassMode::Baseline) GTEST_SKIP() << "junk by design";
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    auto r = co_await e.client->get("/big.bin");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.content_length, 700'000u);
    EXPECT_EQ(fs::verify_content(e.big_ino, 0, r.body.to_bytes()),
              std::size_t(-1));
  });
}

TEST_P(HttpModes, KeepAliveSequence) {
  WebEnd e(GetParam());
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    for (int i = 0; i < 5; ++i) {
      auto r = co_await e.client->get("/index.html");
      EXPECT_EQ(r.status, 200);
    }
    auto r404 = co_await e.client->get("/missing.html");
    EXPECT_EQ(r404.status, 404);
    auto again = co_await e.client->get("/index.html");
    EXPECT_EQ(again.status, 200);
  });
  EXPECT_EQ(e.server->stats().requests, 7u);
  EXPECT_EQ(e.server->stats().connections, 1u);
}

TEST_P(HttpModes, NestedPathResolution) {
  WebEnd e(GetParam());
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    auto r = co_await e.client->get("/assets/logo.png");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(r.content_length, 12'345u);
    auto miss = co_await e.client->get("/assets/absent.png");
    EXPECT_EQ(miss.status, 404);
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, HttpModes,
                         ::testing::Values(PassMode::Original,
                                           PassMode::NCache,
                                           PassMode::Baseline),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST(HttpCopyCounts, SendfileIsOneCopyOnHitTwoOnMiss) {
  WebEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    // Warm metadata (root dir + inode blocks) with a 404 probe + getattr
    // via a first small read of a *different* file than we measure.
    (void)co_await e.client->get("/missing");
    e.tb->reset_stats();

    // Cold file: miss = initiator copy + sendfile copy = 2.
    auto r = co_await e.client->get("/index.html");
    EXPECT_EQ(r.status, 200);
    // The 30 KB file is read in one 64 KB sendfile chunk: 1 iSCSI->cache
    // copy + 1 cache->socket copy.
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 2u);

    // Warm file: hit = sendfile copy only = 1.
    e.tb->reset_stats();
    r = co_await e.client->get("/index.html");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 1u);
  });
}

TEST(HttpNCache, ZeroServerDataCopiesAndSubstitution) {
  WebEnd e(PassMode::NCache);
  e.run([&]() -> Task<void> {
    EXPECT_TRUE(co_await e.client->connect());
    (void)co_await e.client->get("/missing");
    e.tb->reset_stats();
    auto r = co_await e.client->get("/big.bin");
    EXPECT_EQ(r.status, 200);
    EXPECT_FALSE(r.junk);
    EXPECT_EQ(fs::verify_content(e.big_ino, 0, r.body.to_bytes()),
              std::size_t(-1));
    EXPECT_EQ(e.tb->server_node().copier.stats().data_copy_ops, 0u);
    EXPECT_GT(e.tb->ncache()->stats().frames_substituted, 100u);  // ~480
  });
}

TEST(HttpBehaviour, RejectsNonGet) {
  WebEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    // Hand-roll a POST over a raw TCP connection.
    auto conn = co_await e.tb->client_node(0).stack.tcp_connect(
        e.tb->client_ip(0), e.tb->server_ip(0), 80);
    std::vector<std::byte> got;
    conn->set_data_handler([&](MsgBuffer m) {
      auto b = m.to_bytes();
      got.insert(got.end(), b.begin(), b.end());
    });
    conn->send(MsgBuffer::from_string(
        "POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n"));
    co_await sim::sleep_for(e.tb->loop(), 50 * sim::kMillisecond);
    std::string text(reinterpret_cast<const char*>(got.data()), got.size());
    EXPECT_NE(text.find("400 Bad Request"), std::string::npos);
  });
}

TEST(HttpBehaviour, PipelinedRequestsServeInOrder) {
  WebEnd e(PassMode::Original);
  e.run([&]() -> Task<void> {
    auto conn = co_await e.tb->client_node(0).stack.tcp_connect(
        e.tb->client_ip(0), e.tb->server_ip(0), 80);
    std::vector<std::byte> got;
    conn->set_data_handler([&](MsgBuffer m) {
      auto b = m.to_bytes();
      got.insert(got.end(), b.begin(), b.end());
    });
    // Two requests in one segment.
    conn->send(MsgBuffer::from_string(
        "GET /assets/logo.png HTTP/1.1\r\n\r\nGET /missing HTTP/1.1\r\n\r\n"));
    co_await sim::sleep_for(e.tb->loop(), 200 * sim::kMillisecond);
    std::string text(reinterpret_cast<const char*>(got.data()), got.size());
    auto first = text.find("200 OK");
    auto second = text.find("404 Not Found");
    EXPECT_NE(first, std::string::npos);
    EXPECT_NE(second, std::string::npos);
    EXPECT_LT(first, second);
  });
}

}  // namespace
}  // namespace ncache::http
