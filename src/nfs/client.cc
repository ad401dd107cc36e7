#include "nfs/client.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::nfs {

using netbuf::CopyClass;
using netbuf::MsgBuffer;

NfsClient::NfsClient(proto::NetworkStack& stack, proto::Ipv4Addr local_ip,
                     proto::Ipv4Addr server_ip, std::uint16_t local_port,
                     std::uint16_t server_port)
    : stack_(stack),
      local_ip_(local_ip),
      server_ip_(server_ip),
      local_port_(local_port),
      server_port_(server_port),
      next_xid_(std::uint32_t(local_port) << 16 | 1),
      rng_(0xADA9717ull ^ local_port, local_ip) {
  stack_.udp_bind(local_port_,
                  [this](proto::Ipv4Addr, std::uint16_t, proto::Ipv4Addr,
                         std::uint16_t, MsgBuffer m) {
                    on_datagram(std::move(m));
                  });
}

NfsClient::~NfsClient() {
  stack_.udp_unbind(local_port_);
  pending_.for_each([this](std::uint32_t, const PendingCall& pc) {
    stack_.loop().cancel(pc.timer);
  });
}

namespace {
/// The status of a reply whose header is all the caller reads; nullopt
/// when the header does not parse.
std::optional<Status> status_of(const MsgBuffer& reply) {
  std::array<std::byte, kReplyHeaderBytes> buf;
  ByteReader r(reply.peek_into(buf));
  auto head = ReplyHeader::parse(r);
  if (!head) return std::nullopt;
  return head->status;
}
}  // namespace

void NfsClient::on_datagram(MsgBuffer msg) {
  if (msg.size() < kReplyHeaderBytes) return;
  std::array<std::byte, kReplyHeaderBytes> head;
  ByteReader r(msg.peek_into(head));
  auto reply = ReplyHeader::parse(r);
  if (!reply) return;
  PendingCall* pc = pending_.find(reply->xid);
  if (!pc) return;  // duplicate after retransmit: drop
  // Karn's rule: a reply to a retransmitted call is ambiguous (it may
  // answer any copy), so only clean exchanges feed the estimator.
  if (!pc->retransmitted) {
    observe_rtt(stack_.loop().now() - pc->first_sent);
  }
  finish(reply->xid, std::move(msg));
}

void NfsClient::finish(std::uint32_t xid, std::optional<MsgBuffer> reply) {
  PendingCall* pc = pending_.find(xid);
  Call* call = pc->call;
  stack_.loop().cancel(pc->timer);
  pending_.erase(xid);
  if (reply) {
    ++stats_.replies;
    // Every answered call is goodput: it earns back a fraction of a retry
    // token, so sustained retries stay a bounded fraction of successes.
    if (retry_budget_) retry_budget_->deposit(stack_.loop().now());
  }
  call->reply_ = std::move(reply);
  call->waiter_.resume();
}

void NfsClient::observe_rtt(sim::Duration rtt) {
  // Jacobson/Karels in signed ns (Duration is unsigned; the EWMA error
  // term goes negative).
  auto r = std::int64_t(rtt);
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    auto srtt = std::int64_t(srtt_);
    auto rttvar = std::int64_t(rttvar_);
    std::int64_t err = r - srtt;
    srtt += err / 8;
    rttvar += ((err < 0 ? -err : err) - rttvar) / 4;
    srtt_ = sim::Duration(srtt < 0 ? 0 : srtt);
    rttvar_ = sim::Duration(rttvar < 0 ? 0 : rttvar);
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

sim::Duration NfsClient::attempt_timeout(int n) {
  // Exponential backoff on the learned RTO, capped, then ±12.5% jitter so
  // a fleet of clients does not retransmit in lockstep after a shared
  // outage.
  sim::Duration base = rto_;
  for (int i = 1; i < n && base < kMaxRto; ++i) base *= 2;
  base = std::min(base, kMaxRto);
  auto swing = std::int64_t(base / 8);
  std::int64_t offset = std::int64_t(rng_.range(0, std::uint64_t(2 * swing))) -
                        swing;
  return sim::Duration(std::int64_t(base) + offset);
}

template <typename Args>
NfsClient::Call NfsClient::call(Proc proc, const Args& args,
                                MsgBuffer payload) {
  std::uint32_t xid = next_xid_++;
  ++stats_.calls;

  // Header and args on the stack; only names longer than any the file
  // system accepts spill to the heap.
  std::array<std::byte, kCallHeaderBytes + 160> stack_head;
  std::vector<std::byte> heap_head;
  std::span<std::byte> head(stack_head);
  std::size_t len = kCallHeaderBytes + args.wire_bytes();
  if (len > head.size()) {
    heap_head.resize(len);
    head = heap_head;
  }
  head = head.first(len);
  ByteWriter w{head};
  CallHeader{xid, kNfsProgram, kNfsVersion, proc}.serialize(w);
  args.serialize(w);
  if (w.size() != len) {
    throw std::logic_error("NfsClient: wire_bytes() overstates the size");
  }

  // Build the datagram once; retransmissions resend the same message.
  MsgBuffer datagram =
      stack_.copier().copy_bytes_in(head, CopyClass::Metadata);
  datagram.append(std::move(payload));
  return Call(*this, xid, std::move(datagram));
}

void NfsClient::Call::await_suspend(std::coroutine_handle<> h) {
  waiter_ = h;
  PendingCall& pc = *client_.pending_.try_emplace(xid_).first;
  pc.call = this;
  pc.datagram = std::move(datagram_);
  pc.first_sent = client_.stack_.loop().now();
  client_.attempt(xid_, 1);
}

void NfsClient::attempt(std::uint32_t xid, int n) {
  PendingCall* pc = pending_.find(xid);
  if (!pc) return;
  pc->timer = {};
  if (n > 1) {
    if (retry_budget_ && !retry_budget_->try_withdraw(stack_.loop().now())) {
      // Budget exhausted: fail the call now instead of feeding a retry
      // storm — the caller's error path (not a resend) is the
      // load-shedding response.
      ++stats_.budget_denied;
      ++stats_.timeouts;
      finish(xid, std::nullopt);
      return;
    }
    ++stats_.retransmits;
    pc->retransmitted = true;  // Karn: sample now ambiguous
  }
  if (n > kMaxAttempts) {
    ++stats_.timeouts;
    finish(xid, std::nullopt);
    return;
  }
  stack_.udp_send(local_ip_, local_port_, server_ip_, server_port_,
                  pc->datagram);
  // The reply cancels this timer, so it fires only for a call still
  // pending.
  sim::TimerHandle timer = stack_.loop().schedule_in(
      attempt_timeout(n), [this, xid, n] { attempt(xid, n + 1); });
  if (PendingCall* still = pending_.find(xid)) {
    still->timer = timer;
  } else {
    stack_.loop().cancel(timer);  // answered while sending
  }
}

void NfsClient::register_metrics(MetricRegistry& registry,
                                 const std::string& node) {
  registry.counter(node, "nfs_client.calls", &stats_.calls);
  registry.counter(node, "nfs_client.replies", &stats_.replies);
  registry.counter(node, "nfs_client.retransmits", &stats_.retransmits);
  registry.counter(node, "nfs_client.timeouts", &stats_.timeouts);
  registry.gauge(node, "nfs_client.rto_ms",
                 [this] { return double(rto_) / double(sim::kMillisecond); });
  if (retry_budget_) {
    // Registered only when a budget is attached, so budget-less runs keep
    // their metrics JSON byte-identical. (The node-wide
    // "retry_budget.denied" aggregate is registered by the world.)
    registry.counter(node, "nfs_client.budget_denied", &stats_.budget_denied);
  }
}

// Each method binds its Call to a named local before awaiting it (see
// AwaitCallback in common/task.h for why awaiters are never temporaries).

Task<std::optional<Fattr>> NfsClient::getattr(std::uint64_t fh) {
  Call c = call(Proc::Getattr, GetattrArgs{fh});
  auto reply = co_await c;
  if (!reply) co_return std::nullopt;
  std::array<std::byte, kReplyHeaderBytes + Fattr::wire_bytes()> buf;
  ByteReader r(reply->peek_into(
      std::span(buf).first(std::min(buf.size(), reply->size()))));
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return Fattr::parse(r);
}

Task<std::optional<std::uint64_t>> NfsClient::lookup(std::uint64_t dir_fh,
                                                     std::string_view name) {
  Call c = call(Proc::Lookup, LookupArgs{dir_fh, std::string(name)});
  auto reply = co_await c;
  if (!reply) co_return std::nullopt;
  std::array<std::byte, kReplyHeaderBytes + 8> buf;
  ByteReader r(reply->peek_into(
      std::span(buf).first(std::min(buf.size(), reply->size()))));
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return r.u64();
}

Task<NfsClient::ReadResult> NfsClient::read(std::uint64_t fh,
                                            std::uint64_t offset,
                                            std::uint32_t count) {
  Call c = call(Proc::Read, ReadArgs{fh, offset, count});
  auto reply = co_await c;
  ReadResult out;
  if (!reply) co_return out;

  // Header region: reply header + fattr + count.
  constexpr std::size_t meta = kReplyHeaderBytes + Fattr::wire_bytes() + 4;
  if (reply->size() < meta) co_return out;
  std::array<std::byte, meta> head;
  ByteReader r(reply->peek_into(head));
  auto rh = ReplyHeader::parse(r);
  if (!rh) co_return out;
  out.status = rh->status;
  if (rh->status != Status::Ok) co_return out;
  out.attr = Fattr::parse(r);
  std::uint32_t n = r.u32();
  if (reply->size() < meta + n) {
    out.status = Status::Io;
    co_return out;
  }
  MsgBuffer wire = reply->slice(meta, n);
  out.junk = wire.has_junk() || wire.has_keys();
  if (out.junk) {
    out.data = std::move(wire);  // baseline payload: placeholder only
  } else {
    // The read() copy-out to the application buffer, charged to the
    // client's CPU.
    out.data = stack_.copier().copy_message(wire, CopyClass::RegularData);
  }
  stats_.read_bytes += n;
  co_return out;
}

Task<Status> NfsClient::write(std::uint64_t fh, std::uint64_t offset,
                              std::span<const std::byte> data) {
  // Application buffer -> socket copy on the client.
  MsgBuffer payload =
      stack_.copier().copy_bytes_in(data, CopyClass::RegularData);
  Call c = call(Proc::Write,
                WriteArgs{fh, offset, std::uint32_t(data.size())},
                std::move(payload));
  auto reply = co_await c;
  if (!reply) co_return Status::Io;
  auto head = status_of(*reply);
  if (!head) co_return Status::Io;
  stats_.write_bytes += data.size();
  co_return *head;
}

Task<std::optional<std::uint64_t>> NfsClient::create(std::uint64_t dir_fh,
                                                     std::string_view name,
                                                     bool directory) {
  CreateArgs args{dir_fh, std::string(name),
                  directory ? fs::InodeType::Directory : fs::InodeType::File};
  Call c = call(directory ? Proc::Mkdir : Proc::Create, args);
  auto reply = co_await c;
  if (!reply) co_return std::nullopt;
  std::array<std::byte, kReplyHeaderBytes + 8> buf;
  ByteReader r(reply->peek_into(
      std::span(buf).first(std::min(buf.size(), reply->size()))));
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return r.u64();
}

Task<Status> NfsClient::remove(std::uint64_t dir_fh, std::string_view name) {
  Call c = call(Proc::Remove, LookupArgs{dir_fh, std::string(name)});
  auto reply = co_await c;
  if (!reply) co_return Status::Io;
  co_return status_of(*reply).value_or(Status::Io);
}

Task<Status> NfsClient::rename(std::uint64_t src_dir,
                               std::string_view src_name,
                               std::uint64_t dst_dir,
                               std::string_view dst_name) {
  Call c = call(Proc::Rename,
                RenameArgs{src_dir, std::string(src_name), dst_dir,
                           std::string(dst_name)});
  auto reply = co_await c;
  if (!reply) co_return Status::Io;
  co_return status_of(*reply).value_or(Status::Io);
}

Task<Status> NfsClient::setattr_size(std::uint64_t fh, std::uint64_t size) {
  Call c = call(Proc::Setattr, SetattrArgs{fh, size});
  auto reply = co_await c;
  if (!reply) co_return Status::Io;
  co_return status_of(*reply).value_or(Status::Io);
}

Task<std::vector<DirEntry>> NfsClient::readdir(std::uint64_t fh) {
  Call c = call(Proc::Readdir, GetattrArgs{fh});
  auto reply = co_await c;
  if (!reply) co_return std::vector<DirEntry>{};
  auto bytes = reply->peek_bytes(reply->size());
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::vector<DirEntry>{};
  co_return parse_dir_entries(r);
}

}  // namespace ncache::nfs
