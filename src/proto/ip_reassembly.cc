#include "proto/ip_reassembly.h"

#include <vector>

#include "common/metrics.h"

namespace ncache::proto {

std::optional<IpReassembler::Datagram> IpReassembler::feed(Frame frame) {
  if (!frame.ip.more_fragments && frame.ip.fragment_offset == 0) {
    // Unfragmented.
    Datagram d;
    d.ip = frame.ip;
    d.udp = frame.udp;
    d.tcp = frame.tcp;
    d.payload = std::move(frame.payload);
    d.l4_checksum_inherited = frame.l4_checksum_inherited;
    return d;
  }

  FlowKey key{frame.ip.src, frame.ip.dst, frame.ip.id,
              static_cast<std::uint8_t>(frame.ip.protocol)};
  auto [slot, fresh] = partial_.try_emplace(key);
  Partial& p = slot->second;
  if (fresh) {
    p.started = loop_.now();
    arm_expiry();
  }

  std::uint32_t byte_offset = std::uint32_t(frame.ip.fragment_offset) * 8;
  if (frame.ip.fragment_offset == 0) {
    p.have_first = true;
    p.first_header = frame.ip;
    p.udp = frame.udp;
    p.tcp = frame.tcp;
  }
  if (!frame.ip.more_fragments) {
    p.have_last = true;
    p.total_len = byte_offset + std::uint32_t(frame.payload.size());
  }
  p.inherited = p.inherited || frame.l4_checksum_inherited;
  if (p.pieces.empty() && byte_offset == p.head.size()) {
    p.head.append(std::move(frame.payload));
  } else {
    p.pieces[byte_offset] = std::move(frame.payload);
  }

  if (!(p.have_first && p.have_last)) return std::nullopt;

  // Check contiguous coverage of [0, total_len).
  auto covered = std::uint32_t(p.head.size());
  for (const auto& [off, buf] : p.pieces) {
    if (off > covered) return std::nullopt;  // hole
    covered = std::max(covered, off + std::uint32_t(buf.size()));
  }
  if (covered < p.total_len) return std::nullopt;

  Datagram d;
  d.ip = p.first_header;
  d.udp = p.udp;
  d.tcp = p.tcp;
  d.l4_checksum_inherited = p.inherited;
  auto pos = std::uint32_t(p.head.size());
  d.payload = std::move(p.head);
  for (auto& [off, buf] : p.pieces) {
    if (off + buf.size() <= pos) continue;  // fully-overlapped duplicate
    std::uint32_t skip = pos - off;
    std::uint32_t take = std::uint32_t(buf.size()) - skip;
    d.payload.append(skip == 0 ? std::move(buf) : buf.slice(skip, take));
    pos += take;
  }
  partial_.erase(slot);
  return d;
}

std::size_t IpReassembler::expire() {
  std::vector<FlowKey> dead;
  for (const auto& [k, p] : partial_) {
    if (loop_.now() - p.started > timeout_) dead.push_back(k);
  }
  for (const auto& k : dead) partial_.erase(k);
  timeouts_ += dead.size();
  return dead.size();
}

void IpReassembler::arm_expiry() {
  if (expiry_armed_ || partial_.empty()) return;
  sim::Time oldest = 0;
  bool first = true;
  for (const auto& [k, p] : partial_) {
    if (first || p.started < oldest) {
      oldest = p.started;
      first = false;
    }
  }
  expiry_armed_ = true;
  // +1: expire() evicts strictly-older-than-timeout partials.
  loop_.schedule_at(oldest + timeout_ + 1, [this] {
    expiry_armed_ = false;
    expire();
    arm_expiry();
  });
}

void IpReassembler::register_metrics(MetricRegistry& registry,
                                     const std::string& node) {
  registry.counter(node, "ip.reassembly_timeouts", &timeouts_);
  registry.gauge(node, "ip.reassembly_pending",
                 [this] { return double(pending()); });
}

}  // namespace ncache::proto
