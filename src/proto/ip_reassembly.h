// IPv4 fragment reassembly (RFC 791 style, simplified hole-list).
//
// NFS-over-UDP with 32 KB rsize relies on IP fragmentation — a 32 KB read
// reply crosses the wire as ~23 MTU-sized fragments — so reassembly is a
// first-class citizen here, not an afterthought. Fragments may arrive
// interleaved across NICs; completion is detected by byte coverage.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "netbuf/msg_buffer.h"
#include "proto/frame.h"
#include "sim/event_loop.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::proto {

class IpReassembler {
 public:
  explicit IpReassembler(sim::EventLoop& loop,
                         sim::Duration timeout = 2 * sim::kSecond)
      : loop_(loop), timeout_(timeout) {}

  struct Datagram {
    Ipv4Header ip;  ///< header of the first fragment (offset 0)
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    netbuf::MsgBuffer payload;  ///< full L4 payload
    bool l4_checksum_inherited = false;
  };

  /// Feeds one received frame. Returns the reassembled datagram when this
  /// frame completes one, std::nullopt otherwise. Unfragmented frames
  /// return immediately.
  std::optional<Datagram> feed(Frame frame);

  /// Drops partial datagrams older than the timeout. Returns evictions.
  /// Called automatically by the self-arming expiry timer; public for
  /// tests and manual sweeps.
  std::size_t expire();

  std::size_t pending() const noexcept { return partial_.size(); }
  std::uint64_t timeouts() const noexcept { return timeouts_; }

  /// Publishes ip.reassembly_timeouts and ip.reassembly_pending under
  /// `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct FlowKey {
    Ipv4Addr src;
    Ipv4Addr dst;
    std::uint16_t id;
    std::uint8_t proto;

    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      std::uint64_t h = (std::uint64_t(k.src) << 32) | k.dst;
      h ^= (std::uint64_t(k.id) << 16) | k.proto;
      h *= 0x9e3779b97f4a7c15ULL;
      return std::size_t(h ^ (h >> 31));
    }
  };
  struct Partial {
    /// Fragments that arrived in order, concatenated: covers
    /// [0, head.size()). Only an out-of-order arrival takes a map node.
    netbuf::MsgBuffer head;
    std::map<std::uint32_t, netbuf::MsgBuffer> pieces;  // offset -> bytes
    std::optional<UdpHeader> udp;
    std::optional<TcpHeader> tcp;
    Ipv4Header first_header;
    bool have_first = false;
    bool have_last = false;
    std::uint32_t total_len = 0;  // set when the last fragment arrives
    bool inherited = false;
    sim::Time started = 0;
  };

  /// Arms a one-shot sweep at the oldest partial's deadline. Self-arming
  /// only while partials exist, so an idle reassembler schedules nothing
  /// and never keeps the event loop alive.
  void arm_expiry();

  sim::EventLoop& loop_;
  sim::Duration timeout_;
  std::unordered_map<FlowKey, Partial, FlowKeyHash> partial_;
  std::uint64_t timeouts_ = 0;
  bool expiry_armed_ = false;
};

}  // namespace ncache::proto
