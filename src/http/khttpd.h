// kHTTPd: the in-kernel static web server (§4.3), second pass-through
// application of NCache.
//
// Serves GET requests for static files over TCP with keep-alive. The data
// path per mode:
//   * Original — the sendfile() path: ONE copy per request, page cache ->
//     socket (Table 2: kHTTPd hit = 1 copy, miss = 2 with the initiator's);
//   * NCache — response headers pass through untouched; body blocks travel
//     as keys and are substituted at the NIC ("for packets associated with
//     web page contents, NCache retrieves the real content from its own
//     cache and substitutes them", §4.3);
//   * Baseline — body elided (junk), the zero-copy yardstick.
#pragma once

#include <deque>

#include "common/overload.h"
#include "common/stats.h"
#include "core/ncache_module.h"
#include "core/pass_mode.h"
#include "fs/simple_fs.h"
#include "proto/stack.h"
#include "sock/socket.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::http {

struct KHttpdStats {
  std::uint64_t requests = 0;
  std::uint64_t responses_200 = 0;
  std::uint64_t responses_404 = 0;
  std::uint64_t responses_400 = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t connections = 0;
  std::uint64_t responses_503 = 0;  ///< shed with 503 (overload enabled)
  std::uint64_t shed = 0;           ///< pipeline-cap + CoDel sheds
  std::uint64_t conn_rejects = 0;   ///< accepts refused at the cap
};

class KHttpd {
 public:
  /// Overload-control knobs, all off by default (disabled runs stay
  /// byte-identical). Sheds answer with a cheap 503 before any fs work.
  struct OverloadConfig {
    bool enabled = false;
    std::size_t max_connections = 4096;  ///< accepts refused past this
    std::size_t pipeline_limit = 64;     ///< queued requests per connection
    overload::CoDelState::Config codel;  ///< sojourn shed on the pipeline
  };

  struct Config {
    core::PassMode mode = core::PassMode::Original;
    std::uint16_t port = 80;
    /// sendfile chunk: how much file data each fs read moves.
    std::uint32_t chunk_bytes = 64 * 1024;
    OverloadConfig overload;
  };

  KHttpd(proto::NetworkStack& stack, fs::SimpleFs& fs, Config config,
         core::NCacheModule* ncache = nullptr);

  void start();

  const KHttpdStats& stats() const noexcept { return stats_; }
  core::PassMode mode() const noexcept { return config_.mode; }

  /// Publishes http.* request counters under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct PendingRequest {
    std::string path;
    sim::Time enqueued_at = 0;  ///< arrival time (sojourn measurement)
  };

  struct Connection : std::enable_shared_from_this<Connection> {
    Connection(KHttpd& s, proto::TcpConnectionPtr c)
        : server(s),
          sock(s.stack_, s.config_.mode, std::move(c)),
          codel(s.config_.overload.codel) {}

    KHttpd& server;
    /// The extended socket interface (§4): all response egress — headers
    /// via the metadata path, body via the mode seam — goes through here.
    sock::TcpSocket sock;
    unsigned core = 0;  ///< RSS-steered core (hash of the TCP 4-tuple)
    std::string inbox;        ///< accumulated request bytes
    bool busy = false;        ///< a request is being served
    bool close_after = false; ///< client sent Connection: close
    std::deque<PendingRequest> pipeline;  ///< parsed paths awaiting service
    overload::CoDelState codel;  ///< per-connection sojourn control law

    void on_data(netbuf::MsgBuffer m);
    void pump();
    Task<void> serve(std::string path);
    /// Root coroutine per request: keeps the connection alive, serves,
    /// then pumps the pipeline.
    Task<void> serve_and_continue(std::string path);
  };

  void on_accept(proto::TcpConnectionPtr conn);
  /// Resolves an URL path ("/a/b.html") to an inode.
  Task<std::optional<std::uint32_t>> resolve(std::string_view path);

  proto::NetworkStack& stack_;
  fs::SimpleFs& fs_;
  Config config_;
  core::NCacheModule* ncache_;
  KHttpdStats stats_;
  LatencyHistogram sojourn_;  ///< pipeline sojourn (overload enabled only)
  std::vector<std::shared_ptr<Connection>> connections_;
};

}  // namespace ncache::http
