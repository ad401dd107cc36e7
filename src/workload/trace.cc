#include "workload/trace.h"

#include <charconv>
#include <sstream>
#include <stdexcept>

#include "fs/image_builder.h"

namespace ncache::workload {

using nfs::Status;

Task<void> TracePlayer::issue(const TraceOp& op, Stream* stream) {
  sim::Time start = loop_.now();
  auto ino = std::uint32_t(op.fh);
  switch (op.type) {
    case TraceOpType::Read: {
      auto r = co_await client_.read(op.fh, op.offset, op.len);
      stream->read(ino, op.offset, r.data, loop_.now() - start,
                   r.status == Status::Ok);
      break;
    }
    case TraceOpType::Write: {
      std::vector<std::byte> buf(op.len);
      fs::fill_content(ino, op.offset, buf);
      Status s = co_await client_.write(op.fh, op.offset, buf);
      stream->write(ino, op.offset, op.len, loop_.now() - start,
                    s == Status::Ok);
      break;
    }
    case TraceOpType::Getattr: {
      auto attr = co_await client_.getattr(op.fh);
      stream->meta(op.fh, loop_.now() - start, attr.has_value());
      break;
    }
    case TraceOpType::Lookup: {
      auto found = co_await client_.lookup(fs::kRootIno, op.name);
      stream->meta(found.value_or(0), loop_.now() - start,
                   found.has_value());
      break;
    }
  }
}

Task<void> TracePlayer::play_closed(Stream* stream) {
  sim::Time base = loop_.now();
  for (const auto& op : ops_) {
    sim::Time due = base + op.at;
    if (loop_.now() < due) {
      co_await sim::sleep_for(loop_, due - loop_.now());
    }
    co_await issue(op, stream);
  }
}

namespace {
Task<void> issue_tracked(TracePlayer* player, const TraceOp* op,
                         Stream* stream, int* outstanding,
                         Task<void> (TracePlayer::*fn)(const TraceOp&,
                                                       Stream*)) {
  co_await (player->*fn)(*op, stream);
  --*outstanding;
}
}  // namespace

Task<void> TracePlayer::play_open(Stream* stream, double speedup) {
  if (speedup <= 0) throw std::invalid_argument("play_open: bad speedup");
  int outstanding = 0;
  for (const auto& op : ops_) {
    sim::Duration due = sim::Duration(double(op.at) / speedup);
    ++outstanding;
    const TraceOp* op_ptr = &op;
    TracePlayer* self = this;
    Stream* s = stream;
    int* out = &outstanding;
    loop_.schedule_in(due, [self, op_ptr, s, out] {
      issue_tracked(self, op_ptr, s, out, &TracePlayer::issue)
          .detach(self->loop_.reaper());
    });
  }
  // Wait for the tail to drain.
  while (outstanding > 0) {
    co_await sim::sleep_for(loop_, 100 * sim::kMicrosecond);
  }
}

std::vector<TraceOp> TracePlayer::parse(std::string_view text) {
  std::vector<TraceOp> ops;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t time_us;
    std::string verb;
    if (!(ls >> time_us >> verb)) {
      throw std::invalid_argument("trace: malformed line: " + line);
    }
    TraceOp op;
    op.at = time_us * sim::kMicrosecond;
    if (verb == "read" || verb == "write") {
      op.type = verb == "read" ? TraceOpType::Read : TraceOpType::Write;
      if (!(ls >> op.fh >> op.offset >> op.len)) {
        throw std::invalid_argument("trace: malformed rw line: " + line);
      }
    } else if (verb == "getattr") {
      op.type = TraceOpType::Getattr;
      if (!(ls >> op.fh)) {
        throw std::invalid_argument("trace: malformed getattr: " + line);
      }
    } else if (verb == "lookup") {
      op.type = TraceOpType::Lookup;
      if (!(ls >> op.name)) {
        throw std::invalid_argument("trace: malformed lookup: " + line);
      }
    } else {
      throw std::invalid_argument("trace: unknown verb: " + verb);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string TracePlayer::format(const std::vector<TraceOp>& ops) {
  std::ostringstream out;
  for (const auto& op : ops) {
    out << op.at / sim::kMicrosecond << ' ';
    switch (op.type) {
      case TraceOpType::Read:
        out << "read " << op.fh << ' ' << op.offset << ' ' << op.len;
        break;
      case TraceOpType::Write:
        out << "write " << op.fh << ' ' << op.offset << ' ' << op.len;
        break;
      case TraceOpType::Getattr:
        out << "getattr " << op.fh;
        break;
      case TraceOpType::Lookup:
        out << "lookup " << op.name;
        break;
    }
    out << '\n';
  }
  return out.str();
}

std::vector<TraceOp> TracePlayer::synth_sequential_read(
    std::uint64_t fh, std::uint64_t file_size, std::uint32_t request,
    sim::Duration gap) {
  std::vector<TraceOp> ops;
  sim::Duration at = 0;
  for (std::uint64_t off = 0; off < file_size; off += request) {
    TraceOp op;
    op.at = at;
    op.type = TraceOpType::Read;
    op.fh = fh;
    op.offset = off;
    op.len = std::uint32_t(std::min<std::uint64_t>(request, file_size - off));
    ops.push_back(op);
    at += gap;
  }
  return ops;
}

}  // namespace ncache::workload
