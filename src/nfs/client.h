// NFS client: used by the workload generators and the example programs.
//
// Classic UDP RPC client: XID matching, adaptive retransmission (RTT-
// estimated RTO with exponential backoff + deterministic jitter), and
// copy-semantics payload handling (clients are ordinary machines; only the
// pass-through server gets NCache). READ results expose whether the
// payload was baseline junk so integrity checks know when to apply.
#pragma once

#include "common/flat_map.h"
#include "common/overload.h"
#include "common/rng.h"
#include "netbuf/copy_engine.h"
#include "nfs/protocol.h"
#include "proto/stack.h"

namespace ncache::nfs {

struct NfsClientStats {
  std::uint64_t calls = 0;
  std::uint64_t replies = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t budget_denied = 0;  ///< retransmits refused by the budget
};

class NfsClient {
 public:
  NfsClient(proto::NetworkStack& stack, proto::Ipv4Addr local_ip,
            proto::Ipv4Addr server_ip, std::uint16_t local_port,
            std::uint16_t server_port = kNfsPort);
  ~NfsClient();

  struct ReadResult {
    Status status = Status::Io;
    Fattr attr;
    netbuf::MsgBuffer data;
    bool junk = false;  ///< baseline-server payload: do not verify contents
  };

  Task<std::optional<Fattr>> getattr(std::uint64_t fh);
  Task<std::optional<std::uint64_t>> lookup(std::uint64_t dir_fh,
                                            std::string_view name);
  Task<ReadResult> read(std::uint64_t fh, std::uint64_t offset,
                        std::uint32_t count);
  Task<Status> write(std::uint64_t fh, std::uint64_t offset,
                     std::span<const std::byte> data);
  Task<std::optional<std::uint64_t>> create(std::uint64_t dir_fh,
                                            std::string_view name,
                                            bool directory = false);
  Task<Status> remove(std::uint64_t dir_fh, std::string_view name);
  Task<Status> rename(std::uint64_t src_dir, std::string_view src_name,
                      std::uint64_t dst_dir, std::string_view dst_name);
  /// Truncates (or extends with a hole) to `size`.
  Task<Status> setattr_size(std::uint64_t fh, std::uint64_t size);
  Task<std::vector<DirEntry>> readdir(std::uint64_t fh);

  const NfsClientStats& stats() const noexcept { return stats_; }
  proto::Ipv4Addr server_ip() const noexcept { return server_ip_; }
  sim::EventLoop& loop() noexcept { return stack_.loop(); }

  /// Retransmission policy: Jacobson/Karels RTO (SRTT + 4·RTTVAR) learned
  /// from unambiguous samples (Karn's rule), exponential backoff across
  /// attempts, ±12.5% deterministic jitter to decorrelate clients.
  static constexpr sim::Duration kInitialRto = 800 * sim::kMillisecond;
  static constexpr sim::Duration kMinRto = 200 * sim::kMillisecond;
  static constexpr sim::Duration kMaxRto = 10 * sim::kSecond;
  static constexpr int kMaxAttempts = 6;

  /// The current learned RTO (before backoff/jitter).
  sim::Duration current_rto() const noexcept { return rto_; }

  /// Publishes nfs_client.* call/retransmit counters and the RTO gauge
  /// under `node`. Call after set_retry_budget so the budget counter
  /// registers too.
  void register_metrics(MetricRegistry& registry, const std::string& node);

  /// Shared retry budget (typically one per client node, shared with the
  /// iSCSI initiator there). When set, a retransmission that cannot win a
  /// token fails the call immediately — the client sheds its own retry
  /// storm instead of hammering a saturated server.
  void set_retry_budget(overload::RetryBudget* budget) {
    retry_budget_ = budget;
  }

 private:
  /// One RPC exchange in flight: awaiting it sends the datagram and
  /// resumes with the matching reply, or nullopt after the last timeout.
  class Call {
   public:
    Call(NfsClient& client, std::uint32_t xid, netbuf::MsgBuffer datagram)
        : client_(client), xid_(xid), datagram_(std::move(datagram)) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::optional<netbuf::MsgBuffer> await_resume() {
      return std::move(reply_);
    }

   private:
    friend class NfsClient;
    NfsClient& client_;
    std::uint32_t xid_;
    netbuf::MsgBuffer datagram_;  ///< moves into the pending entry
    std::coroutine_handle<> waiter_;
    std::optional<netbuf::MsgBuffer> reply_;
  };

  /// Builds the call datagram (header and args encoded on the stack, then
  /// `payload`) under a fresh xid; retransmissions resend it as is.
  template <typename Args>
  Call call(Proc proc, const Args& args, netbuf::MsgBuffer payload = {});

  void on_datagram(netbuf::MsgBuffer msg);
  /// Transmits attempt `n` of the pending call `xid` and arms its
  /// retransmission timer; fails the call past kMaxAttempts or when the
  /// retry budget refuses.
  void attempt(std::uint32_t xid, int n);
  /// Removes the pending call and resumes its caller with `reply`.
  void finish(std::uint32_t xid, std::optional<netbuf::MsgBuffer> reply);

  proto::NetworkStack& stack_;
  proto::Ipv4Addr local_ip_;
  proto::Ipv4Addr server_ip_;
  std::uint16_t local_port_;
  std::uint16_t server_port_;

  /// RTT sample (unambiguous reply only) -> SRTT/RTTVAR -> RTO.
  void observe_rtt(sim::Duration rtt);
  /// Backed-off, jittered wait before attempt `n+1`.
  sim::Duration attempt_timeout(int n);

  struct PendingCall {
    Call* call = nullptr;          ///< the awaiting caller, resumed on reply
    netbuf::MsgBuffer datagram;    ///< what every attempt sends
    sim::TimerHandle timer;        ///< the current attempt's retransmission
    sim::Time first_sent = 0;      ///< for the RTT sample
    bool retransmitted = false;    ///< Karn: ambiguous sample, skip
  };
  FlatMap<std::uint32_t, PendingCall> pending_;
  std::uint32_t next_xid_;
  NfsClientStats stats_;

  sim::Duration srtt_ = 0;  ///< 0 = no sample yet
  sim::Duration rttvar_ = 0;
  sim::Duration rto_ = kInitialRto;
  Pcg32 rng_;  ///< retransmission jitter (seeded per client)
  overload::RetryBudget* retry_budget_ = nullptr;
};

}  // namespace ncache::nfs
