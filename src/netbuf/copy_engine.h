// CopyEngine: the single choke point for all data movement on a node.
//
// Every physical copy of payload across a module boundary goes through
// here so that (a) the bytes are actually moved — end-to-end integrity is
// testable — (b) the simulated CPU is charged the per-byte cost, and
// (c) the copy is counted by category. Table 2 of the paper ("number of
// data copying operations per request") is regenerated directly from these
// counters.
//
// Logical copies (NCache mode) move only KeySeg descriptors and charge the
// small per-key cost instead.
#pragma once

#include <cstdint>
#include <span>

#include "netbuf/msg_buffer.h"
#include "sim/cost_model.h"
#include "sim/cpu_model.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::netbuf {

enum class CopyClass : std::uint8_t {
  RegularData,  ///< file-block payload (the copies NCache eliminates)
  Metadata,     ///< inodes, directories, protocol headers, small control data
};

struct CopyStats {
  std::uint64_t data_copy_ops = 0;
  std::uint64_t data_copy_bytes = 0;
  std::uint64_t meta_copy_ops = 0;
  std::uint64_t meta_copy_bytes = 0;
  std::uint64_t logical_copy_ops = 0;
  std::uint64_t logical_copy_keys = 0;
  std::uint64_t checksum_ops = 0;
  std::uint64_t checksum_bytes = 0;
};

class CopyEngine {
 public:
  CopyEngine(sim::CpuModel& cpu, const sim::CostModel& costs)
      : cpu_(cpu), costs_(costs) {}

  CopyEngine(const CopyEngine&) = delete;
  CopyEngine& operator=(const CopyEngine&) = delete;

  /// Physically copies `src` into a fresh contiguous buffer-backed message.
  /// Charges CPU, counts one copy operation of `src.size()` bytes.
  MsgBuffer copy_message(const MsgBuffer& src, CopyClass cls);

  /// Physically copies raw bytes into a message (e.g. user buffer ->
  /// socket).
  MsgBuffer copy_bytes_in(std::span<const std::byte> src, CopyClass cls);

  /// Physically copies a message out into caller storage (socket -> user
  /// buffer). `dst.size()` must equal `src.size()`.
  void copy_bytes_out(const MsgBuffer& src, std::span<std::byte> dst,
                      CopyClass cls);

  /// Copies between two raw buffers (fs block moves).
  void copy_raw(std::span<const std::byte> src, std::span<std::byte> dst,
                CopyClass cls);

  /// Logical copy: duplicates the segment descriptors (ByteSegs share the
  /// underlying NetBuffers; KeySegs copy 16-byte keys). Charges the per-key
  /// logical-copy cost.
  MsgBuffer logical_copy(const MsgBuffer& src);

  /// Accounts one software checksum pass over `bytes` (skipped when the
  /// NIC offloads).
  void charge_checksum(std::size_t bytes);

  /// Charges copy cost without moving bytes (for code paths where the
  /// destination already holds the bytes but the cost/count must register,
  /// e.g. baseline junk movement is *not* charged, while modelled DMA-less
  /// moves are).
  void charge_copy_cost_only(std::size_t bytes, CopyClass cls);

  const CopyStats& stats() const noexcept { return stats_; }

  /// Publishes copy.* counters under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

  sim::CpuModel& cpu() noexcept { return cpu_; }
  const sim::CostModel& costs() const noexcept { return costs_; }

 private:
  void account(std::size_t bytes, CopyClass cls);

  sim::CpuModel& cpu_;
  const sim::CostModel& costs_;
  CopyStats stats_;
};

}  // namespace ncache::netbuf
