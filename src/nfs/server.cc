#include "nfs/server.h"

#include <array>

#include "common/logging.h"
#include "common/metrics.h"

namespace ncache::nfs {

using netbuf::FhoKey;
using netbuf::MsgBuffer;

NfsServer::NfsServer(proto::NetworkStack& stack, fs::SimpleFs& fs,
                     Config config, core::NCacheModule* ncache)
    : stack_(stack),
      fs_(fs),
      config_(config),
      ncache_(ncache),
      sock_(stack, config.mode, config.port),
      codel_(config.overload.codel) {
  if (config_.mode == ServerMode::NCache && !ncache_) {
    throw std::invalid_argument("NfsServer: NCache mode requires the module");
  }
}

void NfsServer::start() {
  if (running_) return;
  running_ = true;
  sock_.bind([this](proto::Ipv4Addr sip, std::uint16_t sport,
                    proto::Ipv4Addr dip, std::uint16_t dport, MsgBuffer m) {
    on_datagram(sip, sport, dip, dport, std::move(m));
  });
  for (int i = 0; i < config_.daemons; ++i) {
    ++live_daemons_;
    daemon_loop(i).detach(stack_.loop().reaper());
  }
}

void NfsServer::stop() {
  if (!running_) return;
  running_ = false;
  sock_.unbind();
  // Wake idle daemons so they can exit.
  while (!waiting_.empty()) {
    NextRequest* w = waiting_.front();
    waiting_.pop_front();
    w->waiter_.resume();  // req_ stays empty: stop
  }
}

bool NfsServer::is_data_op(const MsgBuffer& msg) {
  if (msg.size() < kCallHeaderBytes) return false;
  std::array<std::byte, kCallHeaderBytes> head;
  ByteReader hr(msg.peek_into(head));
  auto call = CallHeader::parse(hr);
  if (!call) return false;
  return call->proc == Proc::Read || call->proc == Proc::Write;
}

void NfsServer::on_datagram(proto::Ipv4Addr sip, std::uint16_t sport,
                            proto::Ipv4Addr dip, std::uint16_t /*dport*/,
                            MsgBuffer msg) {
  // RSS: hash the client flow so one client's requests stay on one core
  // (on a K=1 model steer() is identically 0 and nothing changes). The
  // receive interrupt itself still runs wherever the NIC delivered it;
  // only the daemon-side work is steered.
  unsigned core = stack_.cpu().steer((std::uint64_t(sip) << 16) ^ sport);
  const OverloadConfig& ov = config_.overload;
  bool data_op = false;
  if (ov.enabled) {
    data_op = is_data_op(msg);
    // Brownout tier 3: shed bulk data at ingress (metadata still served)
    // while the cache-pressure probe holds. The drop costs no daemon
    // work; the client's adaptive RTO resends after the brownout lifts.
    if (data_op && shed_probe_ && shed_probe_()) {
      ++stats_.brownout_shed;
      return;
    }
  }
  Request req{sip, sport, dip, core, std::move(msg), stack_.loop().now()};
  if (!waiting_.empty()) {
    NextRequest* w = waiting_.front();
    waiting_.pop_front();
    w->req_.emplace(std::move(req));
    w->waiter_.resume();
    return;
  }
  if (queue_depth() >= ov.queue_limit) {
    // Hard bound (always on): a runaway client cannot grow memory without
    // bound. Under priority shedding an arriving metadata op evicts the
    // youngest queued data op instead of being lost itself.
    ++stats_.queue_drops;
    if (!(ov.enabled && ov.priority && !data_op && !queue_.empty())) return;
    queue_.pop_back();
  }
  if (ov.enabled && ov.priority && !data_op) {
    meta_queue_.push_back(std::move(req));
  } else {
    queue_.push_back(std::move(req));
  }
  stats_.queue_hwm = std::max<std::uint64_t>(stats_.queue_hwm, queue_depth());
}

NfsServer::NextRequest::NextRequest(NfsServer& server) : server_(server) {
  auto& queue = server.queue_;
  auto& meta_queue = server.meta_queue_;
  while (!queue.empty() || !meta_queue.empty()) {
    // Metadata first: under brownout the cheap namespace ops keep being
    // served while bulk reads absorb the shedding.
    std::deque<Request>& q = meta_queue.empty() ? queue : meta_queue;
    Request req = std::move(q.front());
    q.pop_front();
    if (server.config_.overload.enabled) {
      const sim::Time now = server.stack_.loop().now();
      const std::uint64_t sojourn = now - req.enqueued_at;
      server.sojourn_.record(sojourn);
      // Only the data class feeds the CoDel control law — metadata is
      // exempt from sojourn shedding entirely.
      if (&q == &queue && server.codel_.on_dequeue(now, sojourn)) {
        ++server.stats_.shed;
        continue;  // silently dropped; the client's RTO resends
      }
    }
    req_.emplace(std::move(req));
    return;
  }
  done_ = !server.running_;
}

void NfsServer::NextRequest::await_suspend(std::coroutine_handle<> h) {
  waiter_ = h;
  if (req_) {
    // Yield through the loop to keep daemon scheduling fair.
    server_.stack_.loop().schedule_in(0, [h] { h.resume(); });
  } else {
    server_.waiting_.push_back(this);
  }
}

Task<void> NfsServer::daemon_loop(int /*index*/) {
  while (running_) {
    NextRequest next(*this);
    std::optional<Request> req = co_await next;
    if (!req) break;
    try {
      co_await handle(std::move(*req));
    } catch (const std::exception& e) {
      ++stats_.errors;
      NC_WARN("nfsd", "request failed: %s", e.what());
    }
  }
  --live_daemons_;
}

void NfsServer::register_metrics(MetricRegistry& registry,
                                 const std::string& node) {
  registry.counter(node, "nfs.requests", &stats_.requests);
  registry.counter(node, "nfs.reads", &stats_.reads);
  registry.counter(node, "nfs.writes", &stats_.writes);
  registry.counter(node, "nfs.metadata_ops", &stats_.metadata_ops);
  registry.bytes(node, "nfs.read_bytes", &stats_.read_bytes);
  registry.bytes(node, "nfs.write_bytes", &stats_.write_bytes);
  registry.counter(node, "nfs.errors", &stats_.errors);
  registry.counter(node, "nfs.unaligned_writes", &stats_.unaligned_writes);
  registry.window_max(node, "nfs.queue_hwm", &stats_.queue_hwm);
  registry.counter(node, "nfs.queue_drops", &stats_.queue_drops);
  if (config_.overload.enabled) {
    // Overload-only metrics register only when the feature is on, so a
    // disabled run's metrics JSON stays byte-identical to the seed.
    registry.counter(node, "overload.shed", &stats_.shed);
    registry.counter(node, "overload.brownout_shed", &stats_.brownout_shed);
    registry.histogram(node, "overload.sojourn", &sojourn_);
  }
}

MaybeTask<Fattr> NfsServer::fattr_of(std::uint64_t fh) {
  return then(fs_.getattr(std::uint32_t(fh)), [](const fs::FileAttr& a) {
    return Fattr{a.type, a.size, a.nlink};
  });
}

NfsServer::ReplyHead::ReplyHead(std::uint32_t xid, Status status,
                                std::span<const std::byte> body) {
  std::span<std::byte> out(inline_);
  std::size_t len = kReplyHeaderBytes + body.size();
  if (len > out.size()) {
    heap_.resize(len);
    out = heap_;
  }
  out = out.first(len);
  ByteWriter w{out};
  ReplyHeader{xid, status}.serialize(w);
  w.bytes(body);
  bytes_ = out;
}

void NfsServer::send_reply(const Request& req, std::uint32_t xid,
                           Status status, std::span<const std::byte> body) {
  sock_.send_meta(reply_endpoint(req), ReplyHead(xid, status, body));
}

Task<void> NfsServer::handle(Request req) {
  ++stats_.requests;
  // Per-request daemon work: decode, handle lookup, scheduling — on the
  // RSS-steered core. The coroutine resumes inside that core's completion
  // context, so synchronous costs up to the next suspension follow it.
  co_await stack_.cpu().run_on(req.core, stack_.costs().request_ns);

  auto head_len = std::min<std::size_t>(req.msg.size(), kCallHeaderBytes);
  if (head_len < kCallHeaderBytes) {
    ++stats_.errors;
    co_return;
  }
  // READ and WRITE args are fixed-size: header and args come off the
  // front of the message into one stack array.
  std::array<std::byte, kCallHeaderBytes + kWriteArgsBytes> fixed;
  static_assert(ReadArgs::wire_bytes() == kWriteArgsBytes);
  auto head = req.msg.peek_into(
      std::span(fixed).first(std::min(fixed.size(), req.msg.size())));
  ByteReader hr(head.first(kCallHeaderBytes));
  auto call = CallHeader::parse(hr);
  if (!call) {
    ++stats_.errors;
    co_return;
  }

  switch (call->proc) {
    case Proc::Read: {
      ByteReader br(head.subspan(kCallHeaderBytes));
      co_await do_read(req, *call, br);
      co_return;
    }
    case Proc::Write: {
      ByteReader br(head.subspan(kCallHeaderBytes));
      co_await do_write(req, *call, br, req.msg);
      co_return;
    }
    default: {
      // Metadata procs: the whole message is small and physical.
      auto all = req.msg.peek_bytes(req.msg.size());
      ByteReader br(std::span<const std::byte>(all).subspan(kCallHeaderBytes));
      co_await do_metadata(req, *call, br);
      co_return;
    }
  }
}

Task<void> NfsServer::do_read(const Request& req, const CallHeader& call,
                              ByteReader& body) {
  ReadArgs args = ReadArgs::parse(body);
  args.count = std::min(args.count, kMaxIoSize);
  ++stats_.reads;

  MsgBuffer data = co_await fs_.read(std::uint32_t(args.fh), args.offset,
                                     args.count);
  Fattr attr = co_await fattr_of(args.fh);

  std::array<std::byte, Fattr::wire_bytes() + 4> reply_body;
  ByteWriter w(reply_body);
  attr.serialize(w);
  w.u32(std::uint32_t(data.size()));
  // The NFS daemon relays with read() + sendmsg(): two module boundaries.
  // The socket's PassMode decides what crosses them — physical copies,
  // logical keys, or junk (Table 2's read-path counts). The fs awaits
  // above dropped the core context, so re-establish it: the copy /
  // checksum charges inside send_data belong to the steered daemon core.
  sim::CpuModel::CoreGuard on_core(stack_.cpu(), req.core);
  stats_.read_bytes +=
      sock_.send_data(reply_endpoint(req),
                      ReplyHead(call.xid, Status::Ok, reply_body), data,
                      sock::Via::ReadSendmsg);
}

Task<void> NfsServer::do_write(const Request& req, const CallHeader& call,
                               ByteReader& body, const MsgBuffer& msg) {
  WriteArgs args = WriteArgs::parse(body);
  ++stats_.writes;

  std::size_t header_total = kCallHeaderBytes + kWriteArgsBytes;
  if (msg.size() < header_total + args.count) {
    ++stats_.errors;
    std::vector<std::byte> none;
    send_reply(req, call.xid, Status::Io, none);
    co_return;
  }
  MsgBuffer wire_payload = msg.slice(header_total, args.count);

  MsgBuffer content;
  switch (config_.mode) {
    case ServerMode::Original:
      // The single write-path copy: socket buffers -> buffer cache page
      // (Table 2, "overwritten" = 1).
      content = sock_.receive_copied(wire_payload);
      break;
    case ServerMode::NCache: {
      bool aligned = args.offset % fs::kBlockSize == 0 &&
                     args.count % fs::kBlockSize == 0;
      if (aligned) {
        // Ingest block-by-block into the FHO cache; keys travel into the
        // file system (§3.2 write path).
        for (std::uint32_t off = 0; off < args.count; off += fs::kBlockSize) {
          content.append(ncache_->ingest_fho(
              FhoKey{args.fh, args.offset + off},
              wire_payload.slice(off, fs::kBlockSize)));
        }
      } else {
        ++stats_.unaligned_writes;
        content = sock_.receive_copied(wire_payload);
      }
      break;
    }
    case ServerMode::Baseline:
      content = MsgBuffer::junk(args.count);
      break;
  }

  std::uint32_t wrote =
      co_await fs_.write(std::uint32_t(args.fh), args.offset,
                         std::move(content));
  stats_.write_bytes += wrote;
  if (on_write_ && wrote > 0) on_write_(args.fh, args.offset, wrote);
  Fattr attr = co_await fattr_of(args.fh);

  std::array<std::byte, Fattr::wire_bytes()> reply_body;
  ByteWriter w(reply_body);
  attr.serialize(w);
  // The fs await dropped the core context; the reply transmit charges
  // belong to the steered daemon core.
  sim::CpuModel::CoreGuard on_core(stack_.cpu(), req.core);
  send_reply(req, call.xid,
             wrote == args.count ? Status::Ok : Status::NoSpace, reply_body);
}

Task<void> NfsServer::do_metadata(const Request& req, const CallHeader& call,
                                  ByteReader& body) {
  ++stats_.metadata_ops;
  // Room for the largest fixed-size reply (a handle plus attributes);
  // only READDIR's listing needs the heap.
  std::array<std::byte, 8 + Fattr::wire_bytes()> fixed_body;
  ByteWriter w{std::span<std::byte>(fixed_body)};
  std::vector<std::byte> listing;
  Status status = Status::Ok;

  switch (call.proc) {
    case Proc::Null:
      break;
    case Proc::Getattr: {
      GetattrArgs args = GetattrArgs::parse(body);
      try {
        Fattr attr = co_await fattr_of(args.fh);
        if (attr.type == fs::InodeType::Free) {
          status = Status::Stale;
        } else {
          attr.serialize(w);
        }
      } catch (const std::out_of_range&) {
        status = Status::Stale;
      }
      break;
    }
    case Proc::Lookup: {
      LookupArgs args = LookupArgs::parse(body);
      auto found =
          co_await fs_.lookup(std::uint32_t(args.dir_fh), args.name);
      if (!found) {
        status = Status::NoEnt;
      } else {
        w.u64(*found);
        Fattr attr = co_await fattr_of(*found);
        attr.serialize(w);
      }
      break;
    }
    case Proc::Create:
    case Proc::Mkdir: {
      CreateArgs args = CreateArgs::parse(body);
      fs::InodeType type = call.proc == Proc::Mkdir
                               ? fs::InodeType::Directory
                               : args.type;
      std::uint32_t ino =
          co_await fs_.create(std::uint32_t(args.dir_fh), args.name, type);
      if (ino == 0) {
        status = Status::Exist;
      } else {
        w.u64(ino);
        Fattr attr = co_await fattr_of(ino);
        attr.serialize(w);
      }
      break;
    }
    case Proc::Remove: {
      LookupArgs args = LookupArgs::parse(body);
      bool ok = co_await fs_.remove(std::uint32_t(args.dir_fh), args.name);
      if (!ok) status = Status::NoEnt;
      break;
    }
    case Proc::Rename: {
      RenameArgs args = RenameArgs::parse(body);
      bool ok = co_await fs_.rename(std::uint32_t(args.src_dir),
                                    args.src_name,
                                    std::uint32_t(args.dst_dir),
                                    args.dst_name);
      if (!ok) status = Status::NoEnt;
      break;
    }
    case Proc::Setattr: {
      SetattrArgs args = SetattrArgs::parse(body);
      bool ok = co_await fs_.truncate(std::uint32_t(args.fh), args.size);
      if (!ok) {
        status = Status::Io;
      } else {
        Fattr attr = co_await fattr_of(args.fh);
        attr.serialize(w);
      }
      break;
    }
    case Proc::Readdir: {
      GetattrArgs args = GetattrArgs::parse(body);
      auto entries = co_await fs_.readdir(std::uint32_t(args.fh));
      std::vector<DirEntry> out;
      out.reserve(entries.size());
      for (auto& e : entries) {
        out.push_back(DirEntry{e.ino, e.type, std::move(e.name)});
      }
      ByteWriter lw(listing);
      serialize_dir_entries(lw, out);
      break;
    }
    default:
      status = Status::Io;
      break;
  }
  if (call.proc == Proc::Readdir) {
    send_reply(req, call.xid, status, listing);
  } else {
    send_reply(req, call.xid, status,
               std::span<const std::byte>(fixed_body).first(w.size()));
  }
}

}  // namespace ncache::nfs
