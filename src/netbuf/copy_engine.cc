#include "netbuf/copy_engine.h"

#include <cstring>

#include "common/metrics.h"

namespace ncache::netbuf {

void CopyEngine::register_metrics(MetricRegistry& registry,
                                  const std::string& node) {
  registry.counter(node, "copy.data_ops", &stats_.data_copy_ops);
  registry.bytes(node, "copy.data_bytes", &stats_.data_copy_bytes);
  registry.counter(node, "copy.meta_ops", &stats_.meta_copy_ops);
  registry.bytes(node, "copy.meta_bytes", &stats_.meta_copy_bytes);
  registry.counter(node, "copy.logical_ops", &stats_.logical_copy_ops);
  registry.counter(node, "copy.logical_keys", &stats_.logical_copy_keys);
  registry.counter(node, "copy.checksum_ops", &stats_.checksum_ops);
  registry.bytes(node, "copy.checksum_bytes", &stats_.checksum_bytes);
}

void CopyEngine::account(std::size_t bytes, CopyClass cls) {
  if (cls == CopyClass::RegularData) {
    stats_.data_copy_ops += 1;
    stats_.data_copy_bytes += bytes;
  } else {
    stats_.meta_copy_ops += 1;
    stats_.meta_copy_bytes += bytes;
  }
  cpu_.charge(costs_.copy_cost(bytes));
}

MsgBuffer CopyEngine::copy_message(const MsgBuffer& src, CopyClass cls) {
  account(src.size(), cls);
  auto buf = make_buffer(src.size());
  src.copy_out({buf->put(src.size()), src.size()});
  return MsgBuffer::wrap(std::move(buf));
}

MsgBuffer CopyEngine::copy_bytes_in(std::span<const std::byte> src,
                                    CopyClass cls) {
  account(src.size(), cls);
  auto buf = make_buffer(src.size());
  buf->append(src);
  return MsgBuffer::wrap(std::move(buf));
}

void CopyEngine::copy_bytes_out(const MsgBuffer& src, std::span<std::byte> dst,
                                CopyClass cls) {
  account(src.size(), cls);
  src.copy_out(dst);
}

void CopyEngine::copy_raw(std::span<const std::byte> src,
                          std::span<std::byte> dst, CopyClass cls) {
  if (src.size() != dst.size()) {
    throw std::length_error("CopyEngine::copy_raw: size mismatch");
  }
  account(src.size(), cls);
  if (!src.empty()) std::memcpy(dst.data(), src.data(), src.size());
}

MsgBuffer CopyEngine::logical_copy(const MsgBuffer& src) {
  MsgBuffer out;
  std::size_t keys = 0;
  for (const auto& s : src.segments()) {
    out.append(s);  // descriptor copy; ByteSegs share the NetBuffer
    if (std::holds_alternative<KeySeg>(s)) ++keys;
  }
  stats_.logical_copy_ops += 1;
  stats_.logical_copy_keys += keys;
  cpu_.charge(costs_.logical_copy_ns * (keys ? keys : 1));
  return out;
}

void CopyEngine::charge_checksum(std::size_t bytes) {
  stats_.checksum_ops += 1;
  stats_.checksum_bytes += bytes;
  cpu_.charge(costs_.checksum_cost(bytes));
}

void CopyEngine::charge_copy_cost_only(std::size_t bytes, CopyClass cls) {
  account(bytes, cls);
}

}  // namespace ncache::netbuf
