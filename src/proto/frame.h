// The unit that crosses a simulated link: one Ethernet frame.
//
// L3/L4 headers travel in typed form plus their exact on-wire byte count;
// the L4 payload slice travels as a MsgBuffer, which may still contain
// logical (KeySeg) segments until the NCache egress interceptor
// materializes them at the driver boundary.
//
// Between Nic::send and Nic::deliver a frame travels boxed (FrameBox): it
// is boxed once when it leaves the host and the same box rides the tx
// link, the switch and the rx link. Boxes recycle through a process-wide
// free list, so the hops allocate nothing.
#pragma once

#include <memory>
#include <optional>

#include "netbuf/msg_buffer.h"
#include "proto/headers.h"

namespace ncache::proto {

struct Frame {
  EthHeader eth;
  Ipv4Header ip;
  /// Present on the first fragment of a datagram only.
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;

  /// L4 payload bytes carried by this frame (post-IP-fragmentation slice).
  netbuf::MsgBuffer payload;

  /// NCache: the L4 checksum was inherited from the cached originator
  /// rather than recomputed (§1: "checksum ... inherited from the
  /// payload's originator").
  bool l4_checksum_inherited = false;

  std::size_t l3l4_header_bytes() const noexcept {
    std::size_t n = kIpv4HeaderBytes;
    if (udp) n += kUdpHeaderBytes;
    if (tcp) n += kTcpHeaderBytes;
    return n;
  }

  /// Total bytes on the wire excluding the fixed per-frame overhead the
  /// Link model adds (preamble/FCS/IFG).
  std::size_t wire_bytes() const noexcept {
    return kEthHeaderBytes + l3l4_header_bytes() + payload.size();
  }
};

/// Destroys a boxed frame and returns its storage to the free list.
struct FrameDeleter {
  void operator()(Frame* f) const noexcept;
};
using FrameBox = std::unique_ptr<Frame, FrameDeleter>;

/// Moves `frame` into a box from the free list (the heap only when the
/// list is empty). Like SlabCache::process(), the list is process-wide
/// and unlocked: the simulation runs on one thread.
FrameBox box_frame(Frame&& frame);

}  // namespace ncache::proto
