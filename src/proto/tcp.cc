#include "proto/tcp.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ncache::proto {

namespace {
// Wrap-aware 32-bit sequence comparisons (RFC 793 arithmetic).
inline bool seq_lt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_le(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_gt(std::uint32_t a, std::uint32_t b) noexcept {
  return static_cast<std::int32_t>(a - b) > 0;
}
}  // namespace

TcpConnection::TcpConnection(sim::EventLoop& loop, Ipv4Addr local_ip,
                             std::uint16_t local_port, Ipv4Addr remote_ip,
                             std::uint16_t remote_port, std::uint32_t iss,
                             SegmentEmitter emit)
    : loop_(loop),
      local_ip_(local_ip),
      local_port_(local_port),
      remote_ip_(remote_ip),
      remote_port_(remote_port),
      emit_(std::move(emit)),
      iss_(iss),
      snd_una_(iss),
      snd_nxt_(iss),
      sendq_seq_(iss + 1) {}

std::string TcpConnection::describe() const {
  return ipv4_to_string(local_ip_) + ":" + std::to_string(local_port_) +
         "->" + ipv4_to_string(remote_ip_) + ":" + std::to_string(remote_port_);
}

void TcpConnection::enter(State s) { state_ = s; }

void TcpConnection::open_active() {
  enter(State::SynSent);
  emit_segment(kTcpSyn, snd_nxt_, {});
  snd_nxt_ = iss_ + 1;
  arm_rto();
}

void TcpConnection::open_passive(std::uint32_t peer_iss) {
  irs_ = peer_iss;
  rcv_nxt_ = peer_iss + 1;
  enter(State::SynRcvd);
  emit_segment(kTcpSyn | kTcpAck, snd_nxt_, {});
  snd_nxt_ = iss_ + 1;
  arm_rto();
}

void TcpConnection::send(netbuf::MsgBuffer data) {
  if (data.empty()) return;
  if (state_ != State::Established && state_ != State::SynSent &&
      state_ != State::SynRcvd && state_ != State::CloseWait) {
    NC_WARN("tcp", "%s: send() in state %d dropped", describe().c_str(),
            int(state_));
    return;
  }
  sendq_.append(std::move(data));
  pump();
}

void TcpConnection::close() {
  if (fin_queued_ || state_ == State::Closed) return;
  fin_queued_ = true;
  pump();
}

void TcpConnection::reset() {
  if (state_ == State::Closed) return;
  emit_segment(kTcpRst, snd_nxt_, {});
  enter(State::Closed);
  fire_close();
}

void TcpConnection::fire_close() {
  if (close_fired_) return;
  close_fired_ = true;
  // Drop the handlers' captures: handler slots live as long as the
  // connection, and callers routinely capture session objects (or the
  // connection itself) in them — keeping them past close ties reference
  // cycles. Move-out first so a handler that re-enters close is safe.
  on_established_ = nullptr;
  auto f = std::exchange(on_close_, nullptr);
  if (f) f();
}

void TcpConnection::emit_segment(std::uint8_t flags, std::uint32_t seq,
                                 netbuf::MsgBuffer payload) {
  TcpHeader h;
  h.src_port = local_port_;
  h.dst_port = remote_port_;
  h.seq = seq;
  h.flags = flags;
  h.window = static_cast<std::uint16_t>(std::min<std::uint32_t>(kWindow, 0xffff));
  // ACK accompanies everything once we have seen the peer's ISN.
  if (state_ != State::Closed && state_ != State::SynSent) {
    h.flags |= kTcpAck;
    h.ack = rcv_nxt_;
  }
  ++stats_.segments_sent;
  stats_.bytes_sent += payload.size();
  segs_since_ack_ = 0;
  emit_(*this, h, std::move(payload));
}

void TcpConnection::emit_ack_now() { emit_segment(0, snd_nxt_, {}); }

void TcpConnection::maybe_delayed_ack() {
  ++segs_since_ack_;
  if (segs_since_ack_ >= 2) {
    emit_ack_now();
    return;
  }
  // Lone segment: delayed ACK so the final odd segment of a burst does not
  // strand the sender until RTO (1 ms here vs. 40 ms in deployed stacks —
  // scaled down so it never dominates simulated latencies).
  auto self = weak_from_this();
  std::uint32_t expect = rcv_nxt_;
  loop_.schedule_in(sim::kMillisecond, [self, expect] {
    auto c = self.lock();
    if (!c) return;
    if (c->segs_since_ack_ > 0 && c->rcv_nxt_ == expect) c->emit_ack_now();
  });
}

void TcpConnection::pump() {
  if (state_ != State::Established && state_ != State::CloseWait) {
    return;  // data flows only once synchronized (no Fast Open)
  }
  std::uint32_t wnd = std::min<std::uint32_t>(peer_window_, kWindow);
  while (queued_bytes() > 0) {
    std::uint32_t inflight = snd_nxt_ - snd_una_;
    if (inflight >= wnd) break;
    std::uint32_t can = wnd - inflight;
    std::size_t unsent = queued_bytes();
    std::uint32_t take = std::min<std::uint32_t>(
        {kMss, can, static_cast<std::uint32_t>(unsent)});
    if (take < kMss) {
      // Sender-side silly-window avoidance + Nagle: never emit a partial
      // segment while (a) more data is queued but the window is pinching
      // us, or (b) unacknowledged data is outstanding. Without this, one
      // short segment (e.g. an HTTP header) misaligns the stream and every
      // window opening ships a tiny segment forever.
      if (take < unsent) break;                   // window-limited: wait
      if (inflight > 0 && !fin_queued_) break;    // Nagle: coalesce tail
    }
    inflight_.push_back(take);
    emit_segment(kTcpPsh, snd_nxt_, sendq_.slice(sent_, take));
    sent_ += take;
    snd_nxt_ += take;
  }
  if (fin_queued_ && !fin_sent_ && queued_bytes() == 0) {
    fin_sent_ = true;
    emit_segment(kTcpFin, snd_nxt_, {});
    snd_nxt_ += 1;
    if (state_ == State::Established) enter(State::FinWait1);
    else if (state_ == State::CloseWait) enter(State::LastAck);
  }
  if (snd_nxt_ != snd_una_) arm_rto();
}

void TcpConnection::arm_rto() {
  std::uint64_t epoch = ++rto_epoch_;
  auto self = weak_from_this();
  loop_.schedule_in(rto_, [self, epoch] {
    auto c = self.lock();
    if (!c) return;
    if (c->rto_epoch_ != epoch) return;  // superseded
    c->on_rto();
  });
}

void TcpConnection::on_rto() {
  if (state_ == State::Closed) return;
  if (snd_una_ == snd_nxt_) return;  // all acked meanwhile
  rto_ = std::min(rto_ * 2, kMaxRto);
  retransmit_front(false);
  arm_rto();
}

void TcpConnection::retransmit_front(bool fast) {
  if (state_ == State::SynSent) {
    emit_segment(kTcpSyn, iss_, {});
    return;
  }
  if (state_ == State::SynRcvd) {
    emit_segment(kTcpSyn | kTcpAck, iss_, {});
    return;
  }
  if (inflight_.empty()) {
    if (fin_sent_) {
      emit_segment(kTcpFin, snd_nxt_ - 1, {});
    }
    return;
  }
  ++stats_.retransmits;
  if (fast) ++stats_.fast_retransmits;
  emit_segment(kTcpPsh, sendq_seq_, sendq_.slice(0, inflight_.front()));
}

void TcpConnection::handle_ack(std::uint32_t ack) {
  if (seq_gt(ack, snd_nxt_)) return;  // acks data never sent; ignore
  if (seq_le(ack, snd_una_)) {
    if (ack == snd_una_ && snd_una_ != snd_nxt_) {
      ++stats_.dup_acks;
      if (++dup_ack_count_ == 3) {
        retransmit_front(true);
        dup_ack_count_ = 0;
      }
    }
    return;
  }
  dup_ack_count_ = 0;
  snd_una_ = ack;
  rto_ = kInitialRto;
  while (!inflight_.empty() && seq_le(sendq_seq_ + inflight_.front(), ack)) {
    std::uint32_t len = inflight_.front();
    inflight_.pop_front();
    sendq_.consume(len);
    sendq_seq_ += len;
    sent_ -= len;
  }
  // Idle connections vastly outnumber busy ones; hold no queue storage
  // while nothing is in flight.
  if (inflight_.empty()) inflight_.release();
  if (snd_una_ == snd_nxt_) {
    ++rto_epoch_;  // cancel pending RTO: nothing outstanding
  } else {
    arm_rto();
  }
  pump();
}

void TcpConnection::deliver(netbuf::MsgBuffer data) {
  rcv_nxt_ += std::uint32_t(data.size());
  stats_.bytes_received += data.size();
  if (on_data_) on_data_(std::move(data));
}

void TcpConnection::deliver_in_order() {
  while (true) {
    auto it = ooo_.find(rcv_nxt_);
    if (it == ooo_.end()) break;
    netbuf::MsgBuffer data = std::move(it->second);
    ooo_.erase(it);
    deliver(std::move(data));
  }
  if (peer_fin_ && rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    emit_ack_now();
    if (state_ == State::Established) enter(State::CloseWait);
    else if (state_ == State::FinWait1 || state_ == State::FinWait2)
      enter(State::TimeWait);
    fire_close();
  }
}

void TcpConnection::on_segment(const TcpHeader& h, netbuf::MsgBuffer payload) {
  ++stats_.segments_received;
  if (h.rst()) {
    enter(State::Closed);
    fire_close();
    return;
  }

  if (state_ == State::SynSent) {
    if (h.syn() && h.ack_flag() && h.ack == iss_ + 1) {
      irs_ = h.seq;
      rcv_nxt_ = h.seq + 1;
      snd_una_ = h.ack;
      peer_window_ = h.window;
      ++rto_epoch_;
      rto_ = kInitialRto;
      enter(State::Established);
      emit_ack_now();
      if (auto f = std::exchange(on_established_, nullptr)) f();
      pump();
    }
    return;
  }

  if (state_ == State::SynRcvd) {
    if (h.syn() && !h.ack_flag()) {
      // Duplicate SYN: re-answer.
      emit_segment(kTcpSyn | kTcpAck, iss_, {});
      return;
    }
    if (h.ack_flag() && h.ack == iss_ + 1) {
      snd_una_ = h.ack;
      peer_window_ = h.window;
      ++rto_epoch_;
      rto_ = kInitialRto;
      enter(State::Established);
      if (auto f = std::exchange(on_established_, nullptr)) f();
      // fall through: this segment may carry data
    } else {
      return;
    }
  }

  if (state_ == State::Closed) return;

  peer_window_ = h.window;
  if (h.ack_flag()) handle_ack(h.ack);

  const std::uint32_t original_len = std::uint32_t(payload.size());
  bool advanced = false;
  if (!payload.empty()) {
    std::uint32_t seg_seq = h.seq;
    std::uint32_t seg_len = std::uint32_t(payload.size());
    if (seq_le(seg_seq + seg_len, rcv_nxt_)) {
      // Entirely old (retransmission of consumed data): re-ACK.
      emit_ack_now();
    } else {
      if (seq_lt(seg_seq, rcv_nxt_)) {
        payload.consume(rcv_nxt_ - seg_seq);
        seg_seq = rcv_nxt_;
      }
      if (seg_seq == rcv_nxt_) {
        // The common case, nothing reordered: straight to the application.
        if (ooo_.empty()) {
          deliver(std::move(payload));
        } else {
          ooo_.emplace(seg_seq, std::move(payload));
        }
        deliver_in_order();
        advanced = true;
        maybe_delayed_ack();
      } else {
        ++stats_.out_of_order;
        ooo_.emplace(seg_seq, std::move(payload));
        emit_ack_now();  // dup ACK tells the sender where the hole is
      }
    }
  }

  if (h.fin()) {
    peer_fin_ = true;
    peer_fin_seq_ = h.seq + original_len;
    if (!advanced) {
      // Try to consume the FIN (it may complete the stream).
      deliver_in_order();
    }
  }
  (void)advanced;
}

}  // namespace ncache::proto
