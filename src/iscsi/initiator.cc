#include "iscsi/initiator.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::iscsi {

using netbuf::CopyClass;
using netbuf::MsgBuffer;

IscsiInitiator::IscsiInitiator(proto::NetworkStack& stack,
                               proto::Ipv4Addr local_ip,
                               proto::Ipv4Addr target_ip,
                               std::uint32_t target_id,
                               std::uint16_t target_port)
    : stack_(stack),
      local_ip_(local_ip),
      target_ip_(target_ip),
      target_id_(target_id),
      target_port_(target_port),
      rng_(0x15ca51u ^ (std::uint64_t(target_id) << 32) ^ local_ip,
           target_id) {}

Task<bool> IscsiInitiator::login() {
  down_ = false;
  co_return co_await establish();
}

Task<bool> IscsiInitiator::establish() {
  parser_ = PduParser{};  // drop any half-framed bytes from the old session
  conn_ = co_await stack_.tcp_connect(local_ip_, target_ip_, target_port_);
  conn_->set_data_handler(
      [this](MsgBuffer m) { on_stream(std::move(m)); });
  conn_->set_on_close([this] { on_conn_closed(); });

  Pdu req;
  req.opcode = Opcode::LoginRequest;
  req.data = MsgBuffer::from_string(
      "InitiatorName=iqn.2005.ncache:appserver MaxRecvDataSegmentLength=8192");
  Pdu resp = co_await send_and_wait(std::move(req));
  pending_.erase(resp.itt);
  bool ok = resp.opcode == Opcode::LoginResponse;
  if (ok) replay_pending();
  co_return ok;
}

void IscsiInitiator::on_conn_closed() {
  // The peer reset/closed under us; recover unless deliberately down.
  conn_.reset();
  handle_session_down(/*allow_reconnect=*/!down_, /*fail_all=*/down_);
}

void IscsiInitiator::abort_session(bool allow_reconnect) {
  down_ = !allow_reconnect;
  if (conn_) {
    auto old = std::move(conn_);
    conn_.reset();
    old->set_on_close(nullptr);  // we handle the death below, once
    old->set_data_handler(nullptr);
    old->reset();  // RST to the target; its session state evaporates
  }
  handle_session_down(allow_reconnect, /*fail_all=*/!allow_reconnect);
}

void IscsiInitiator::handle_session_down(bool allow_reconnect, bool fail_all) {
  ++stats_.session_drops;
  parser_ = PduParser{};
  // Partially-accumulated Data-In is worthless: replay re-reads everything.
  std::vector<std::uint32_t> doomed;
  for (auto& [itt, p] : pending_) {
    p.accumulated = MsgBuffer{};
    if (fail_all || !p.replayable) doomed.push_back(itt);
  }
  std::sort(doomed.begin(), doomed.end());  // deterministic waiter wakeups
  for (std::uint32_t itt : doomed) {
    auto it = pending_.find(itt);
    Pdu fail;
    fail.opcode = Opcode::ScsiResponse;
    fail.status = ScsiStatus::CheckCondition;
    fail.itt = itt;
    if (it->second.on_response) {
      auto handler = std::move(it->second.on_response);
      pending_.erase(it);
      handler(std::move(fail));
    } else {
      it->second.early_response = std::move(fail);
      it->second.replayable = false;
    }
  }
  if (allow_reconnect && recovery_.auto_reconnect && !reconnecting_) {
    reconnecting_ = true;
    reconnect_loop().detach(stack_.loop().reaper());
  }
}

Task<void> IscsiInitiator::reconnect_loop() {
  sim::Duration backoff = recovery_.initial_backoff;
  bool first_attempt = true;
  for (;;) {
    // ±25% deterministic jitter decorrelates initiators sharing a fabric.
    auto jitter = sim::Duration(double(backoff) * (rng_.uniform() * 0.5 - 0.25));
    co_await sim::sleep_for(stack_.loop(), backoff + jitter);
    if (down_) break;
    if (!first_attempt && retry_budget_ &&
        !retry_budget_->try_withdraw(stack_.loop().now())) {
      // Budget exhausted: keep probing, but only at the backoff cap — a
      // fleet of budget-starved initiators cannot stampede the target.
      ++stats_.budget_denied;
      backoff = recovery_.max_backoff;
      continue;
    }
    first_attempt = false;
    ++stats_.login_attempts;
    if (co_await establish()) {
      ++stats_.relogins;
      break;
    }
    backoff = std::min<sim::Duration>(backoff * 2, recovery_.max_backoff);
  }
  reconnecting_ = false;
}

void IscsiInitiator::replay_pending() {
  std::vector<std::uint32_t> itts;
  for (const auto& [itt, p] : pending_) {
    if (p.replayable) itts.push_back(itt);
  }
  std::sort(itts.begin(), itts.end());  // hash order is not deterministic
  for (std::uint32_t itt : itts) {
    Pending& p = pending_[itt];
    p.deadline = stack_.loop().now() + recovery_.command_timeout;
    ++stats_.replays;
    for (const Pdu& f : p.frames) conn_->send(f.to_stream());
  }
  if (!itts.empty()) arm_watchdog();
}

void IscsiInitiator::arm_watchdog() {
  if (watchdog_armed_) return;
  sim::Time earliest = 0;
  bool any = false;
  for (const auto& [itt, p] : pending_) {
    if (p.replayable && (!any || p.deadline < earliest)) {
      earliest = p.deadline;
      any = true;
    }
  }
  if (!any) return;
  watchdog_armed_ = true;
  stack_.loop().schedule_at(earliest, [this] { watchdog_fire(); });
}

void IscsiInitiator::watchdog_fire() {
  watchdog_armed_ = false;
  if (down_) return;
  sim::Time now = stack_.loop().now();
  bool expired = false;
  for (const auto& [itt, p] : pending_) {
    if (p.replayable && now >= p.deadline) {
      expired = true;
      break;
    }
  }
  if (expired && conn_) {
    // The session has gone quiet past the command timeout: declare it dead
    // and run session recovery (re-login + replay).
    ++stats_.command_timeouts;
    abort_session(/*allow_reconnect=*/true);
    return;
  }
  arm_watchdog();
}

void IscsiInitiator::on_stream(MsgBuffer chunk) {
  parser_.feed(std::move(chunk), [this](Pdu p) { on_pdu(std::move(p)); });
}

void IscsiInitiator::on_pdu(Pdu pdu) {
  auto it = pending_.find(pdu.itt);
  if (it == pending_.end()) {
    ++stats_.errors;
    NC_WARN("iscsi", "initiator: PDU for unknown ITT %u", pdu.itt);
    return;
  }
  if (pdu.opcode == Opcode::ScsiDataIn) {
    it->second.accumulated.append(std::move(pdu.data));
    // Data-In counts as progress: a slow large transfer is not a dead one.
    it->second.deadline = stack_.loop().now() + recovery_.command_timeout;
    return;
  }
  // Terminal PDU for this task.
  if (it->second.on_response) {
    auto handler = std::move(it->second.on_response);
    handler(std::move(pdu));
  } else {
    it->second.early_response = std::move(pdu);
  }
}

std::uint32_t IscsiInitiator::send_tracked(Pdu pdu) {
  pdu.itt = next_itt_++;
  pdu.cmd_sn = cmd_sn_++;
  std::uint32_t itt = pdu.itt;
  Pending& slot = pending_[itt];  // create before the response can race in
  slot.replayable = pdu.opcode == Opcode::ScsiCommand;
  if (slot.replayable) {
    slot.deadline = stack_.loop().now() + recovery_.command_timeout;
    slot.frames.push_back(pdu);  // copy kept for session-recovery replay
  }
  if (conn_) {
    conn_->send(pdu.to_stream());
  } else if (!slot.replayable) {
    // No session and nothing to replay it on: fail the waiter instead of
    // hanging it (login sends on the fresh connection it just made, so
    // only pings land here).
    Pdu fail;
    fail.opcode = Opcode::ScsiResponse;
    fail.status = ScsiStatus::CheckCondition;
    fail.itt = itt;
    slot.early_response = std::move(fail);
  }
  // else: parked; replay_pending() ships it after the next login.
  if (slot.replayable) arm_watchdog();
  return itt;
}

Task<Pdu> IscsiInitiator::wait_response(std::uint32_t itt) {
  AwaitCallback<Pdu> awaiter([this, itt](auto resolve) {
    auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
    auto& slot = pending_[itt];
    if (slot.early_response) {
      // Response already arrived; finish on the next loop turn (the
      // AwaitCallback contract forbids synchronous resolution).
      auto early = std::make_shared<Pdu>(std::move(*slot.early_response));
      slot.early_response.reset();
      stack_.loop().schedule_in(0, [r, early] { (*r)(std::move(*early)); });
    } else {
      slot.on_response = [r](Pdu p) { (*r)(std::move(p)); };
    }
  });
  co_return co_await awaiter;
}

Task<Pdu> IscsiInitiator::send_and_wait(Pdu pdu) {
  std::uint32_t itt = send_tracked(std::move(pdu));
  co_return co_await wait_response(itt);
}

Task<bool> IscsiInitiator::ping() {
  Pdu nop;
  nop.opcode = Opcode::NopOut;
  nop.data = MsgBuffer::from_string("ping");
  Pdu resp = co_await send_and_wait(std::move(nop));
  bool ok = resp.opcode == Opcode::NopIn;
  pending_.erase(resp.itt);
  co_return ok;
}

Task<MsgBuffer> IscsiInitiator::read_blocks(std::uint64_t lbn,
                                            std::uint32_t count,
                                            bool metadata) {
  // Second-level-cache check (§3.4): when every requested block already
  // sits in the network-centric cache, the fs-cache miss is absorbed
  // locally — no iSCSI round trip, no storage-server work.
  if (!metadata && policy_ == PayloadPolicy::NCache && probe_) {
    bool all_present = true;
    for (std::uint32_t i = 0; i < count && all_present; ++i) {
      all_present = probe_(lbn + i);
    }
    if (all_present) {
      // Inline kernel-context work: charge the CPU without a scheduling
      // round trip (a blocking wait here would serialize every cache hit
      // behind the whole CPU queue under load).
      stack_.cpu().charge(stack_.costs().ncache_manage_ns);
      MsgBuffer keys;
      for (std::uint32_t i = 0; i < count; ++i) {
        keys.append(MsgBuffer::from_key(
            netbuf::LbnKey{target_id_, lbn + i}, 0,
            std::uint32_t(kScsiBlockSize)));
      }
      ++stats_.reads;
      stats_.read_bytes += keys.size();
      co_return keys;
    }
  }

  ++stats_.reads;
  MsgBuffer chain;
  unsigned attempt = 0;
  for (;;) {
    Pdu cmd;
    cmd.opcode = Opcode::ScsiCommand;
    cmd.expected_length = count * std::uint32_t(kScsiBlockSize);
    cmd.cdb = make_rw_cdb(
        ScsiRw{false, std::uint32_t(lbn), std::uint16_t(count)});
    Pdu resp = co_await send_and_wait(std::move(cmd));
    chain = std::move(pending_[resp.itt].accumulated);
    pending_.erase(resp.itt);

    if (resp.status == ScsiStatus::Good &&
        chain.size() == count * kScsiBlockSize) {
      break;
    }
    // CHECK CONDITION (media error, or a session that died without
    // reconnect): retry with capped exponential backoff — latent sector
    // errors are transient, a reread usually lands.
    if (attempt >= recovery_.max_read_retries) {
      ++stats_.errors;
      co_return MsgBuffer{};
    }
    if (retry_budget_ &&
        !retry_budget_->try_withdraw(stack_.loop().now())) {
      // Budget exhausted: fail the I/O instead of rereading — the error
      // path sheds load that backoff alone would only delay.
      ++stats_.budget_denied;
      ++stats_.errors;
      co_return MsgBuffer{};
    }
    ++stats_.io_retries;
    co_await sim::sleep_for(stack_.loop(),
                            recovery_.read_retry_backoff << attempt);
    ++attempt;
  }
  stats_.read_bytes += chain.size();
  // A completed read is goodput: it earns the node's budget back a
  // fraction of a retry token.
  if (retry_budget_) retry_budget_->deposit(stack_.loop().now());

  auto& copier = stack_.copier();
  if (metadata) {
    // Metadata is interpreted above: always physically copied up.
    co_return copier.copy_message(chain, CopyClass::Metadata);
  }
  switch (policy_) {
    case PayloadPolicy::Copy:
      // NFS-original read path, copy #1: network buffers -> block buffer.
      co_return copier.copy_message(chain, CopyClass::RegularData);
    case PayloadPolicy::NCache: {
      if (ingest_) {
        ++stats_.ingests;
        // Payload chains enter the LBN cache block-by-block; keys travel up.
        MsgBuffer keys;
        for (std::uint32_t i = 0; i < count; ++i) {
          keys.append(ingest_(
              lbn + i, chain.slice(std::size_t(i) * kScsiBlockSize,
                                   kScsiBlockSize)));
        }
        co_return keys;
      }
      co_return copier.logical_copy(chain);
    }
    case PayloadPolicy::Junk:
      co_return MsgBuffer::junk(std::uint32_t(chain.size()));
  }
  co_return MsgBuffer{};
}

Task<bool> IscsiInitiator::write_blocks(std::uint64_t lbn, MsgBuffer data,
                                        bool metadata) {
  if (data.size() % kScsiBlockSize != 0) {
    throw std::invalid_argument("write_blocks: unaligned payload");
  }
  auto count = std::uint32_t(data.size() / kScsiBlockSize);
  auto& copier = stack_.copier();

  MsgBuffer wire;
  if (metadata) {
    wire = copier.copy_message(data, CopyClass::Metadata);
  } else {
    switch (policy_) {
      case PayloadPolicy::Copy:
        // NFS-original flush path, copy #2: block buffer -> socket.
        wire = copier.copy_message(data, CopyClass::RegularData);
        break;
      case PayloadPolicy::NCache: {
        // Remap dirty FHO entries to the LBNs this flush assigns (§3.4),
        // then ship the key-bearing chain; the egress interceptor
        // materializes it below the stack.
        if (remap_ && data.has_keys()) {
          for (std::uint32_t i = 0; i < count; ++i) {
            MsgBuffer slice =
                data.slice(std::size_t(i) * kScsiBlockSize, kScsiBlockSize);
            if (slice.has_keys()) {
              ++stats_.remaps;
              remap_(lbn + i, slice);
            }
          }
        }
        wire = copier.logical_copy(data);
        break;
      }
      case PayloadPolicy::Junk:
        wire = MsgBuffer::junk(std::uint32_t(data.size()));
        break;
    }
  }

  Pdu cmd;
  cmd.opcode = Opcode::ScsiCommand;
  cmd.expected_length = std::uint32_t(data.size());
  cmd.cdb = make_rw_cdb(ScsiRw{true, std::uint32_t(lbn), std::uint16_t(count)});
  ++stats_.writes;
  stats_.write_bytes += data.size();

  // Command first, then its Data-Out PDUs back-to-back, then await status.
  std::uint32_t itt = send_tracked(std::move(cmd));
  std::uint32_t off = 0, dsn = 0;
  while (off < wire.size()) {
    auto take = std::uint32_t(
        std::min<std::size_t>(kMaxDataSegment, wire.size() - off));
    Pdu dout;
    dout.opcode = Opcode::ScsiDataOut;
    dout.itt = itt;
    dout.data_sn = dsn++;
    dout.buffer_offset = off;
    dout.final_flag = off + take == wire.size();
    dout.data = wire.slice(off, take);
    pending_[itt].frames.push_back(dout);  // whole transfer replays together
    if (conn_) conn_->send(dout.to_stream());
    off += take;
  }

  Pdu resp = co_await wait_response(itt);
  pending_.erase(resp.itt);
  if (retry_budget_ && resp.status == ScsiStatus::Good) {
    retry_budget_->deposit(stack_.loop().now());
  }
  co_return resp.status == ScsiStatus::Good;
}

void IscsiInitiator::register_metrics(MetricRegistry& registry,
                                      const std::string& node) {
  registry.counter(node, "iscsi.session_drops", &stats_.session_drops);
  registry.counter(node, "iscsi.command_timeouts", &stats_.command_timeouts);
  registry.counter(node, "iscsi.login_attempts", &stats_.login_attempts);
  registry.counter(node, "iscsi.relogins", &stats_.relogins);
  registry.counter(node, "iscsi.replays", &stats_.replays);
  registry.counter(node, "iscsi.io_retries", &stats_.io_retries);
  registry.counter(node, "iscsi.errors", &stats_.errors);
  if (retry_budget_) {
    // Registered only when a budget is attached, so budget-less runs keep
    // their metrics JSON byte-identical.
    registry.counter(node, "iscsi.budget_denied", &stats_.budget_denied);
  }
}

// ---------------------------------------------------------------------------

Task<MsgBuffer> LocalBlockClient::read_blocks(std::uint64_t lbn,
                                              std::uint32_t count,
                                              bool metadata) {
  auto result = co_await store_.read(lbn, count);
  if (!result.ok) {
    // Unit-test-only path with no retry machinery: surface loudly.
    throw std::runtime_error("LocalBlockClient: unrecovered disk read fault");
  }
  co_return copier_.copy_bytes_in(
      result.data, metadata ? CopyClass::Metadata : CopyClass::RegularData);
}

Task<bool> LocalBlockClient::write_blocks(std::uint64_t lbn, MsgBuffer data,
                                          bool metadata) {
  (void)metadata;
  std::vector<std::byte> bytes(data.size());
  data.copy_out(bytes);
  co_await store_.write(lbn, std::move(bytes));
  co_return true;
}

}  // namespace ncache::iscsi
