// The pass-through NFS server, in the paper's three configurations:
//
//   * Original — the stock data path. Every regular-data payload is
//     physically copied at each module boundary: buffer cache -> daemon
//     buffer -> socket on reads (2 copies/hit, 3/miss including the
//     initiator's), socket -> buffer cache on writes (1/overwritten,
//     2/flushed). These are exactly the Table 2 counts.
//   * NCache — logical copying end-to-end: READ replies carry keys that
//     the egress interceptor materializes; WRITE payloads are ingested
//     into the FHO cache and keys travel into the fs.
//   * Baseline — the paper's ideal zero-copy yardstick (§5.1): all
//     regular-data movement elided, junk bits on the wire.
//
// Requests queue centrally; N daemon coroutines serve them (the paper
// tunes "the number of NFS server daemons ... to reach the best
// performance").
#pragma once

#include <array>
#include <deque>

#include "common/overload.h"
#include "core/ncache_module.h"
#include "core/pass_mode.h"
#include "fs/simple_fs.h"
#include "nfs/protocol.h"
#include "proto/stack.h"
#include "sock/socket.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::nfs {

/// One enum across all pass-through servers (NFS and kHTTPd).
using ServerMode = core::PassMode;
using core::to_string;

struct NfsServerStats {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t metadata_ops = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t unaligned_writes = 0;  ///< NCache fell back to copying
  std::uint64_t queue_hwm = 0;  ///< deepest queue seen in the window
  std::uint64_t queue_drops = 0;    ///< hard queue-bound overflow drops
  std::uint64_t shed = 0;           ///< CoDel sojourn sheds (overload on)
  std::uint64_t brownout_shed = 0;  ///< data ops shed by the brownout probe
};

class NfsServer {
 public:
  /// Overload-control knobs. `queue_limit` is always enforced (a runaway
  /// client must not grow server memory without bound); everything else is
  /// off by default and, when off, leaves runs byte-identical.
  struct OverloadConfig {
    /// Hard bound on queued requests. Far above any healthy depth, so
    /// fault-free runs never hit it; overflow drops are metered.
    std::size_t queue_limit = 8192;
    /// Enables CoDel sojourn-time shedding + metadata-over-data priority
    /// dequeue + the brownout shed probe + sojourn histograms.
    bool enabled = false;
    overload::CoDelState::Config codel;
    /// Dequeue metadata ops before bulk data while shedding pressure.
    bool priority = true;
  };

  struct Config {
    ServerMode mode = ServerMode::Original;
    int daemons = 8;
    std::uint16_t port = kNfsPort;
    OverloadConfig overload;
  };

  /// `ncache` is required in NCache mode (ignored otherwise).
  NfsServer(proto::NetworkStack& stack, fs::SimpleFs& fs, Config config,
            core::NCacheModule* ncache = nullptr);

  /// Binds the UDP port and launches the daemon pool.
  void start();
  /// Unbinds and winds the daemons down.
  void stop();
  bool running() const noexcept { return running_; }

  ServerMode mode() const noexcept { return config_.mode; }

  /// Fires after a successful WRITE lands in the file system, with the
  /// written range. The cluster layer hangs write-invalidation off this
  /// (flush + INVALIDATE broadcast to peer replicas); a single-server
  /// testbed leaves it unset. Must not block — long work detaches.
  using WriteObserver =
      std::function<void(std::uint64_t fh, std::uint64_t offset,
                         std::uint32_t count)>;
  void set_write_observer(WriteObserver fn) { on_write_ = std::move(fn); }

  const NfsServerStats& stats() const noexcept { return stats_; }

  /// Queued-but-unserved requests right now (the LoadBalancer's heartbeat
  /// qdepth feedback samples this).
  std::size_t queue_depth() const noexcept {
    return queue_.size() + meta_queue_.size();
  }

  /// Brownout hook: when set (and overload is enabled), incoming bulk
  /// data ops are shed at ingress while the probe returns true; metadata
  /// is always admitted. The NCache brownout tier machine drives this.
  void set_shed_probe(std::function<bool()> fn) {
    shed_probe_ = std::move(fn);
  }

  /// Publishes nfs.* request counters under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct Request {
    proto::Ipv4Addr client_ip;
    std::uint16_t client_port;
    proto::Ipv4Addr server_ip;  ///< which NIC it arrived on (reply binding)
    unsigned core = 0;  ///< RSS-steered core (hash of the client flow)
    netbuf::MsgBuffer msg;
    sim::Time enqueued_at = 0;  ///< arrival time (sojourn measurement)
  };

  /// True when the message is a bulk data op (READ/WRITE) — the class
  /// that sheds first under overload; everything else is metadata.
  static bool is_data_op(const netbuf::MsgBuffer& msg);

  void on_datagram(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                   proto::Ipv4Addr dst_ip, std::uint16_t dst_port,
                   netbuf::MsgBuffer msg);
  Task<void> daemon_loop(int index);

  /// A daemon's wait for its next request. A queued request is taken at
  /// once and handed over after one yield through the loop (daemon
  /// fairness); with the queue empty the daemon parks in waiting_ until
  /// on_datagram hands it one; a stopped server yields nullopt.
  class NextRequest {
   public:
    explicit NextRequest(NfsServer& server);
    bool await_ready() const noexcept { return done_; }
    void await_suspend(std::coroutine_handle<> h);
    std::optional<Request> await_resume() { return std::move(req_); }

   private:
    friend class NfsServer;
    NfsServer& server_;
    std::optional<Request> req_;
    std::coroutine_handle<> waiter_;
    bool done_ = false;  ///< stopped with nothing queued
  };

  Task<void> handle(Request req);

  Task<void> do_read(const Request& req, const CallHeader& call,
                     ByteReader& body);
  Task<void> do_write(const Request& req, const CallHeader& call,
                      ByteReader& body, const netbuf::MsgBuffer& msg);
  Task<void> do_metadata(const Request& req, const CallHeader& call,
                         ByteReader& body);

  /// A reply head (RPC reply header + body) built on the stack: every
  /// fixed-size reply fits; READDIR's listing spills to the heap.
  class ReplyHead {
   public:
    ReplyHead(std::uint32_t xid, Status status,
              std::span<const std::byte> body);
    ReplyHead(const ReplyHead&) = delete;  // bytes_ may point into inline_
    ReplyHead& operator=(const ReplyHead&) = delete;
    operator std::span<const std::byte>() const noexcept { return bytes_; }

   private:
    std::array<std::byte, kReplyHeaderBytes + 8 + Fattr::wire_bytes() + 4>
        inline_;
    std::vector<std::byte> heap_;
    std::span<const std::byte> bytes_;
  };
  sock::UdpSocket::Endpoint reply_endpoint(const Request& req) const {
    return {req.server_ip, req.client_ip, req.client_port};
  }
  void send_reply(const Request& req, std::uint32_t xid, Status status,
                  std::span<const std::byte> body);
  /// Post-op attributes; ready at once when the inode block is resident.
  MaybeTask<Fattr> fattr_of(std::uint64_t fh);

  proto::NetworkStack& stack_;
  fs::SimpleFs& fs_;
  Config config_;
  core::NCacheModule* ncache_;
  /// The extended socket interface (§4): the only egress path for replies;
  /// all regular-data movement semantics live behind it.
  sock::UdpSocket sock_;

  bool running_ = false;
  std::deque<Request> queue_;       ///< bulk data ops (and everything when
                                    ///< overload classification is off)
  std::deque<Request> meta_queue_;  ///< metadata ops (overload enabled only)
  std::deque<NextRequest*> waiting_;  ///< parked daemons, oldest first
  int live_daemons_ = 0;
  WriteObserver on_write_;
  std::function<bool()> shed_probe_;
  overload::CoDelState codel_;
  LatencyHistogram sojourn_;
  NfsServerStats stats_;
};

}  // namespace ncache::nfs
