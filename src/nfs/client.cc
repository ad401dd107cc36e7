#include "nfs/client.h"

#include <algorithm>

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

NfsClient::~NfsClient() { stack_.udp_unbind(local_port_); }

void NfsClient::on_datagram(MsgBuffer msg) {
  if (msg.size() < kReplyHeaderBytes) return;
  auto head = msg.peek_bytes(kReplyHeaderBytes);
  ByteReader r(head);
  auto reply = ReplyHeader::parse(r);
  if (!reply) return;
  auto it = pending_.find(reply->xid);
  if (it == pending_.end()) return;  // duplicate after retransmit: drop
  // Karn's rule: a reply to a retransmitted call is ambiguous (it may
  // answer any copy), so only clean exchanges feed the estimator.
  if (!it->second.retransmitted) {
    observe_rtt(stack_.loop().now() - it->second.first_sent);
  }
  auto resolve = std::move(it->second.resolve);
  pending_.erase(it);
  ++stats_.replies;
  // Every answered call is goodput: it earns back a fraction of a retry
  // token, so sustained retries stay a bounded fraction of successes.
  if (retry_budget_) retry_budget_->deposit(stack_.loop().now());
  resolve(std::move(msg));
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

Task<std::optional<MsgBuffer>> NfsClient::call(Proc proc,
                                               std::span<const std::byte> args,
                                               MsgBuffer payload) {
  std::uint32_t xid = next_xid_++;
  ++stats_.calls;

  std::vector<std::byte> head(kCallHeaderBytes + args.size());
  ByteWriter w{std::span<std::byte>(head)};
  CallHeader{xid, kNfsProgram, kNfsVersion, proc}.serialize(w);
  w.bytes(args);

  // Build the datagram once; retransmissions resend the same message.
  MsgBuffer datagram =
      stack_.copier().copy_bytes_in(head, CopyClass::Metadata);
  datagram.append(std::move(payload));

  AwaitCallback<std::optional<MsgBuffer>> awaiter(
      [this, xid, datagram](auto resolve) {
        auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
        auto& slot = pending_[xid];
        slot.resolve = [r](std::optional<MsgBuffer> m) { (*r)(std::move(m)); };
        slot.first_sent = stack_.loop().now();

        // Transmit attempt `n`, arming the adaptive retransmission timer.
        // The closure captures itself weakly: each armed timer event holds
        // the strong reference, so the chain lives exactly until the call
        // is answered or exhausted (a strong self-capture would cycle and
        // pin the datagram forever).
        auto attempt = std::make_shared<std::function<void(int)>>();
        std::weak_ptr<std::function<void(int)>> weak = attempt;
        *attempt = [this, xid, datagram, weak](int n) {
          auto it = pending_.find(xid);
          if (it == pending_.end()) return;  // answered
          if (n > 1) {
            if (retry_budget_ &&
                !retry_budget_->try_withdraw(stack_.loop().now())) {
              // Budget exhausted: fail the call now instead of feeding a
              // retry storm — the caller's error path (not a resend) is
              // the load-shedding response.
              ++stats_.budget_denied;
              ++stats_.timeouts;
              auto resolve2 = std::move(it->second.resolve);
              pending_.erase(it);
              resolve2(std::nullopt);
              return;
            }
            ++stats_.retransmits;
            it->second.retransmitted = true;  // Karn: sample now ambiguous
          }
          if (n > kMaxAttempts) {
            ++stats_.timeouts;
            auto resolve2 = std::move(it->second.resolve);
            pending_.erase(it);
            resolve2(std::nullopt);
            return;
          }
          stack_.udp_send(local_ip_, local_port_, server_ip_, server_port_,
                          datagram);
          stack_.loop().schedule_in(
              attempt_timeout(n),
              [a = weak.lock(), n] { if (a) (*a)(n + 1); });
        };
        (*attempt)(1);
      });
  co_return co_await awaiter;
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

Task<std::optional<Fattr>> NfsClient::getattr(std::uint64_t fh) {
  auto args = encode(GetattrArgs{fh});
  auto reply = co_await call(Proc::Getattr, args);
  if (!reply) co_return std::nullopt;
  auto bytes = reply->peek_bytes(reply->size());
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return Fattr::parse(r);
}

Task<std::optional<std::uint64_t>> NfsClient::lookup(std::uint64_t dir_fh,
                                                     std::string_view name) {
  auto args = encode(LookupArgs{dir_fh, std::string(name)});
  auto reply = co_await call(Proc::Lookup, args);
  if (!reply) co_return std::nullopt;
  auto bytes = reply->peek_bytes(reply->size());
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return r.u64();
}

Task<NfsClient::ReadResult> NfsClient::read(std::uint64_t fh,
                                            std::uint64_t offset,
                                            std::uint32_t count) {
  auto args = encode(ReadArgs{fh, offset, count});
  auto reply = co_await call(Proc::Read, args);
  ReadResult out;
  if (!reply) co_return out;

  // Header region: reply header + fattr + count.
  std::size_t meta = kReplyHeaderBytes + 16 + 4;
  if (reply->size() < meta) co_return out;
  auto head = reply->peek_bytes(meta);
  ByteReader r(head);
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
  auto args = encode(WriteArgs{fh, offset, std::uint32_t(data.size())});
  // Application buffer -> socket copy on the client.
  MsgBuffer payload =
      stack_.copier().copy_bytes_in(data, CopyClass::RegularData);
  auto reply = co_await call(Proc::Write, args, std::move(payload));
  if (!reply) co_return Status::Io;
  auto bytes = reply->peek_bytes(std::min<std::size_t>(reply->size(),
                                                       kReplyHeaderBytes));
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head) co_return Status::Io;
  stats_.write_bytes += data.size();
  co_return head->status;
}

Task<std::optional<std::uint64_t>> NfsClient::create(std::uint64_t dir_fh,
                                                     std::string_view name,
                                                     bool directory) {
  auto args = encode(CreateArgs{
      dir_fh, std::string(name),
      directory ? fs::InodeType::Directory : fs::InodeType::File});
  auto reply =
      co_await call(directory ? Proc::Mkdir : Proc::Create, args);
  if (!reply) co_return std::nullopt;
  auto bytes = reply->peek_bytes(reply->size());
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::nullopt;
  co_return r.u64();
}

Task<Status> NfsClient::remove(std::uint64_t dir_fh, std::string_view name) {
  auto args = encode(LookupArgs{dir_fh, std::string(name)});
  auto reply = co_await call(Proc::Remove, args);
  if (!reply) co_return Status::Io;
  auto bytes = reply->peek_bytes(kReplyHeaderBytes);
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  co_return head ? head->status : Status::Io;
}

Task<Status> NfsClient::rename(std::uint64_t src_dir,
                               std::string_view src_name,
                               std::uint64_t dst_dir,
                               std::string_view dst_name) {
  auto args = encode(RenameArgs{src_dir, std::string(src_name), dst_dir,
                                std::string(dst_name)});
  auto reply = co_await call(Proc::Rename, args);
  if (!reply) co_return Status::Io;
  auto bytes = reply->peek_bytes(kReplyHeaderBytes);
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  co_return head ? head->status : Status::Io;
}

Task<Status> NfsClient::setattr_size(std::uint64_t fh, std::uint64_t size) {
  auto args = encode(SetattrArgs{fh, size});
  auto reply = co_await call(Proc::Setattr, args);
  if (!reply) co_return Status::Io;
  auto bytes = reply->peek_bytes(kReplyHeaderBytes);
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  co_return head ? head->status : Status::Io;
}

Task<std::vector<DirEntry>> NfsClient::readdir(std::uint64_t fh) {
  auto args = encode(GetattrArgs{fh});
  auto reply = co_await call(Proc::Readdir, args);
  if (!reply) co_return std::vector<DirEntry>{};
  auto bytes = reply->peek_bytes(reply->size());
  ByteReader r(bytes);
  auto head = ReplyHeader::parse(r);
  if (!head || head->status != Status::Ok) co_return std::vector<DirEntry>{};
  co_return parse_dir_entries(r);
}

}  // namespace ncache::nfs
