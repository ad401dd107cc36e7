#include "workload/counters.h"

#include <variant>

#include "fs/image_builder.h"
#include "netbuf/msg_buffer.h"

namespace ncache::workload {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fold(std::uint64_t& h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
}

}  // namespace

bool verify_payload(std::uint32_t ino, std::uint64_t offset,
                    const netbuf::MsgBuffer& data) {
  for (const netbuf::Segment& seg : data.segments()) {
    const auto* bytes = std::get_if<netbuf::ByteSeg>(&seg);
    if (!bytes) return false;  // a logical or junk segment reached a client
    std::span<const std::byte> view = bytes->view();
    if (fs::verify_content(ino, offset, view) != std::size_t(-1)) return false;
    offset += view.size();
  }
  return true;
}

void Stream::record(OpClass c, std::uint64_t ino, std::uint64_t offset,
                    std::uint64_t length, sim::Duration latency, bool ok) {
  if (!ok) {
    ++errors;
    return;
  }
  ++ops;
  bytes += length;
  latency_[int(c)].record(latency);
  fold(digest, std::uint64_t(c), 1);
  fold(digest, ino, 8);
  fold(digest, offset, 8);
  fold(digest, length, 8);
}

void Stream::read(std::uint32_t ino, std::uint64_t offset,
                  const netbuf::MsgBuffer& data, sim::Duration latency,
                  bool ok) {
  record(OpClass::Read, ino, offset, data.size(), latency, ok);
  if (ok && !verify_payload(ino, offset, data)) ++verify_failures;
}

std::uint64_t fold_digests(const std::vector<Stream>& streams) {
  std::uint64_t h = Stream::kDigestBasis;
  for (const Stream& s : streams) fold(h, s.digest, 8);
  return h;
}

}  // namespace ncache::workload
