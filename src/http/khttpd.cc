#include "http/khttpd.h"

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::http {

using core::PassMode;
using netbuf::MsgBuffer;

KHttpd::KHttpd(proto::NetworkStack& stack, fs::SimpleFs& fs, Config config,
               core::NCacheModule* ncache)
    : stack_(stack), fs_(fs), config_(config), ncache_(ncache) {
  if (config_.mode == PassMode::NCache && !ncache_) {
    throw std::invalid_argument("KHttpd: NCache mode requires the module");
  }
}

void KHttpd::start() {
  stack_.tcp_listen(config_.port, [this](proto::TcpConnectionPtr c) {
    on_accept(std::move(c));
  });
}

void KHttpd::register_metrics(MetricRegistry& registry,
                              const std::string& node) {
  registry.counter(node, "http.requests", &stats_.requests);
  registry.counter(node, "http.responses_200", &stats_.responses_200);
  registry.counter(node, "http.responses_404", &stats_.responses_404);
  registry.counter(node, "http.responses_400", &stats_.responses_400);
  registry.bytes(node, "http.body_bytes", &stats_.body_bytes);
  registry.counter(node, "http.connections", &stats_.connections);
  if (config_.overload.enabled) {
    // Overload-only metrics register only when the feature is on, so a
    // disabled run's metrics JSON stays byte-identical to the seed.
    registry.counter(node, "http.responses_503", &stats_.responses_503);
    registry.counter(node, "overload.shed", &stats_.shed);
    registry.counter(node, "overload.conn_rejects", &stats_.conn_rejects);
    registry.histogram(node, "overload.sojourn", &sojourn_);
  }
}

void KHttpd::on_accept(proto::TcpConnectionPtr conn) {
  const OverloadConfig& ov = config_.overload;
  if (ov.enabled && connections_.size() >= ov.max_connections) {
    // Accept-queue overflow: refuse before allocating any per-connection
    // state — the cheapest point to shed a whole client.
    ++stats_.conn_rejects;
    conn->reset();
    return;
  }
  ++stats_.connections;
  // RSS: a connection's requests all run on the core its 4-tuple hashes
  // to (identically 0 on a K=1 model).
  unsigned core = stack_.cpu().steer(
      (std::uint64_t(conn->remote_ip()) << 16) ^ conn->remote_port());
  stack_.cpu().charge_on(core, stack_.costs().tcp_connection_ns);
  auto c = std::make_shared<Connection>(*this, std::move(conn));
  c->core = core;
  // Weak: the handler slots live on the connection and the Connection
  // holds that connection — strong captures would tie a cycle.
  // connections_ owns it; in-flight responses pin it via shared_from_this.
  std::weak_ptr<Connection> weak = c;
  c->sock.conn().set_data_handler([weak](MsgBuffer m) {
    if (auto s = weak.lock()) s->on_data(std::move(m));
  });
  c->sock.conn().set_on_close([this, weak] {
    if (auto s = weak.lock()) std::erase(connections_, s);
  });
  connections_.push_back(std::move(c));
}

void KHttpd::Connection::on_data(MsgBuffer m) {
  // Requests are tiny (one MTU); header bytes are interpreted, i.e.
  // metadata: parse them out of the socket without a counted data copy.
  auto bytes = m.to_bytes();
  inbox.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());

  // Parse complete requests ("\r\n\r\n"-terminated).
  std::size_t pos;
  while ((pos = inbox.find("\r\n\r\n")) != std::string::npos) {
    std::string head = inbox.substr(0, pos);
    inbox.erase(0, pos + 4);
    ++server.stats_.requests;

    // Request line: METHOD SP PATH SP VERSION
    std::size_t sp1 = head.find(' ');
    std::size_t sp2 = head.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        head.substr(0, sp1) != "GET") {
      ++server.stats_.responses_400;
      sock.send_meta("HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n");
      continue;
    }
    if (head.find("Connection: close") != std::string::npos) {
      close_after = true;  // HTTP/1.0-style non-persistent connection
    }
    const OverloadConfig& ov = server.config_.overload;
    if (ov.enabled && pipeline.size() >= ov.pipeline_limit) {
      // Pipeline cap: answer 503 immediately instead of queueing — the
      // reject costs one metadata send, no fs work.
      ++server.stats_.responses_503;
      ++server.stats_.shed;
      sock.send_meta(
          "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
      continue;
    }
    pipeline.push_back(PendingRequest{head.substr(sp1 + 1, sp2 - sp1 - 1),
                                      server.stack_.loop().now()});
  }
  pump();
}

void KHttpd::Connection::pump() {
  if (busy) return;
  const OverloadConfig& ov = server.config_.overload;
  while (!pipeline.empty()) {
    PendingRequest req = std::move(pipeline.front());
    pipeline.pop_front();
    if (ov.enabled) {
      const sim::Time now = server.stack_.loop().now();
      const std::uint64_t sojourn = now - req.enqueued_at;
      server.sojourn_.record(sojourn);
      if (codel.on_dequeue(now, sojourn)) {
        // Sojourn above target for a full interval: shed with a cheap 503
        // and keep draining until CoDel lets one through.
        ++server.stats_.responses_503;
        ++server.stats_.shed;
        sock.send_meta(
            "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");
        continue;
      }
    }
    busy = true;
    serve_and_continue(std::move(req.path))
        .detach(server.stack_.loop().reaper());
    return;
  }
}

Task<void> KHttpd::Connection::serve_and_continue(std::string path) {
  auto self = shared_from_this();  // outlive the TCP connection's handlers
  co_await serve(std::move(path));
  busy = false;
  if (close_after && pipeline.empty()) {
    server.stack_.cpu().charge_on(core,
                                  server.stack_.costs().tcp_connection_ns / 2);
    sock.conn().close();
    co_return;
  }
  pump();
}

Task<std::optional<std::uint32_t>> KHttpd::resolve(std::string_view path) {
  std::uint32_t at = fs::kRootIno;
  std::size_t pos = 0;
  if (!path.empty() && path[0] == '/') pos = 1;
  while (pos < path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string_view::npos) next = path.size();
    std::string_view part = path.substr(pos, next - pos);
    if (!part.empty()) {
      auto found = co_await fs_.lookup(at, part);
      if (!found) co_return std::nullopt;
      at = *found;
    }
    pos = next + 1;
  }
  if (at == fs::kRootIno) co_return std::nullopt;  // directory index: none
  co_return at;
}

Task<void> KHttpd::Connection::serve(std::string path) {
  auto& stack = server.stack_;
  // Per-request server work (parse, dentry walk, socket bookkeeping) on
  // the connection's steered core.
  co_await stack.cpu().run_on(core, stack.costs().request_ns);

  auto ino = co_await server.resolve(path);
  if (!ino) {
    ++server.stats_.responses_404;
    sock.send_meta("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
    co_return;
  }
  fs::FileAttr attr = co_await server.fs_.getattr(*ino);
  if (attr.type != fs::InodeType::File) {
    ++server.stats_.responses_404;
    sock.send_meta("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
    co_return;
  }

  ++server.stats_.responses_200;
  std::string head = "HTTP/1.1 200 OK\r\nServer: kHTTPd-sim\r\nContent-Length: " +
                     std::to_string(attr.size) + "\r\n\r\n";
  // Reply headers pass through the normal (metadata) path (§4.3: "for
  // packets carrying HTTP reply headers, NCache lets them go through").
  sock.send_meta(head);

  // sendfile loop: move the body chunk-by-chunk from the fs cache to the
  // socket. One boundary crossing per chunk; the socket's PassMode picks
  // the semantics (one physical copy / logical keys / junk — Table 2).
  std::uint64_t off = 0;
  while (off < attr.size) {
    auto want = std::uint32_t(std::min<std::uint64_t>(
        server.config_.chunk_bytes, attr.size - off));
    MsgBuffer data = co_await server.fs_.read(*ino, off, want);
    if (data.size() != want) {
      sock.conn().reset();  // truncated file mid-response: abort
      co_return;
    }
    // The fs await dropped the core context; sendfile's copy charges
    // belong to the connection's steered core.
    sim::CpuModel::CoreGuard on_core(stack.cpu(), core);
    server.stats_.body_bytes += sock.send_data(data, sock::Via::Sendfile);
    off += want;
  }
}

}  // namespace ncache::http
