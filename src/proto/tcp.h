// Simplified-but-real TCP: three-way handshake, MSS segmentation,
// cumulative ACKs with delayed-ACK (every second segment), a fixed 64 KB
// window, RTO retransmission with exponential backoff, fast retransmit on
// three duplicate ACKs, and FIN teardown.
//
// iSCSI and HTTP run over this in the testbed (the paper runs NFS over
// UDP and notes HTTP's higher per-packet cost comes precisely from TCP).
// The implementation delivers a strict in-order byte stream even when a
// lossy link (tests) drops or reorders segments.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/ring_queue.h"
#include "netbuf/msg_buffer.h"
#include "proto/headers.h"
#include "sim/event_loop.h"

namespace ncache::proto {

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t out_of_order = 0;
};

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  /// Emits one segment toward the peer; wired by the NetworkStack.
  using SegmentEmitter =
      std::function<void(TcpConnection&, TcpHeader, netbuf::MsgBuffer)>;
  using DataHandler = std::function<void(netbuf::MsgBuffer)>;

  enum class State : std::uint8_t {
    Closed,
    SynSent,
    SynRcvd,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    TimeWait,
  };

  static constexpr std::uint32_t kMss = 1460;
  static constexpr std::uint32_t kWindow = 65535;
  static constexpr sim::Duration kInitialRto = 200 * sim::kMillisecond;
  static constexpr sim::Duration kMaxRto = 2 * sim::kSecond;

  TcpConnection(sim::EventLoop& loop, Ipv4Addr local_ip,
                std::uint16_t local_port, Ipv4Addr remote_ip,
                std::uint16_t remote_port, std::uint32_t iss,
                SegmentEmitter emit);

  // ---- application API -----------------------------------------------------
  /// Queues stream data; the payload may contain logical segments (the
  /// paper's extended zero-copy interface). Copy-semantics callers go
  /// through CopyEngine first.
  void send(netbuf::MsgBuffer data);

  /// In-order stream chunks as they become deliverable.
  void set_data_handler(DataHandler h) { on_data_ = std::move(h); }
  /// Fires once when the handshake completes.
  void set_on_established(std::function<void()> f) {
    on_established_ = std::move(f);
  }
  /// Fires when the peer's FIN has been consumed (EOF) or on RST.
  void set_on_close(std::function<void()> f) { on_close_ = std::move(f); }

  /// Graceful close: FIN after all queued data is sent.
  void close();
  /// Abortive close.
  void reset();

  State state() const noexcept { return state_; }
  bool established() const noexcept { return state_ == State::Established; }
  std::size_t unacked_bytes() const noexcept { return snd_nxt_ - snd_una_; }
  /// Stream bytes queued but not yet sent.
  std::size_t queued_bytes() const noexcept { return sendq_.size() - sent_; }
  const TcpStats& stats() const noexcept { return stats_; }

  Ipv4Addr local_ip() const noexcept { return local_ip_; }
  std::uint16_t local_port() const noexcept { return local_port_; }
  Ipv4Addr remote_ip() const noexcept { return remote_ip_; }
  std::uint16_t remote_port() const noexcept { return remote_port_; }

  // ---- stack API -------------------------------------------------------------
  void open_active();                 ///< client side: send SYN
  void open_passive(std::uint32_t peer_iss);  ///< server side: got SYN
  void on_segment(const TcpHeader& h, netbuf::MsgBuffer payload);

  std::string describe() const;

 private:
  void pump();  ///< transmit whatever the window allows
  void emit_segment(std::uint8_t flags, std::uint32_t seq,
                    netbuf::MsgBuffer payload);
  void emit_ack_now();
  void maybe_delayed_ack();
  void arm_rto();
  void on_rto();
  void retransmit_front(bool fast);
  void handle_ack(std::uint32_t ack);
  /// Hands the next in-order stretch of the stream to the application.
  void deliver(netbuf::MsgBuffer data);
  void deliver_in_order();
  void enter(State s);
  void fire_close();

  sim::EventLoop& loop_;
  Ipv4Addr local_ip_;
  std::uint16_t local_port_;
  Ipv4Addr remote_ip_;
  std::uint16_t remote_port_;
  SegmentEmitter emit_;

  State state_ = State::Closed;

  // Send side.
  std::uint32_t iss_;
  std::uint32_t snd_una_;
  std::uint32_t snd_nxt_;
  std::uint32_t peer_window_ = kWindow;
  /// Stream data from the oldest unacknowledged segment on: its first
  /// `sent_` bytes are in flight, the rest is unsent. Acked segments are
  /// consumed from the front, so a retransmission re-slices the front.
  netbuf::MsgBuffer sendq_;
  std::uint32_t sendq_seq_ = 0;  ///< seq of sendq_ front
  std::size_t sent_ = 0;
  /// Lengths of the in-flight segments, oldest first. Kept in send order
  /// rather than keyed by sequence number, so the oldest segment stays at
  /// the front across a 32-bit sequence wrap.
  RingQueue<std::uint32_t> inflight_;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  std::uint32_t dup_ack_count_ = 0;
  std::uint32_t last_ack_seen_ = 0;

  // Receive side.
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, netbuf::MsgBuffer> ooo_;
  bool peer_fin_ = false;
  std::uint32_t peer_fin_seq_ = 0;
  std::uint32_t segs_since_ack_ = 0;

  // RTO.
  sim::Duration rto_ = kInitialRto;
  std::uint64_t rto_epoch_ = 0;  ///< invalidates stale timer callbacks

  DataHandler on_data_;
  std::function<void()> on_established_;
  std::function<void()> on_close_;
  bool close_fired_ = false;

  TcpStats stats_;
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;

}  // namespace ncache::proto
