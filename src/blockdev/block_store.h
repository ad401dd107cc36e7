// Storage-server disk subsystem: per-spindle timing model, RAID-0
// striping, and the backing byte store.
//
// The testbed's storage node has 4 IDE disks (IBM DTLA-307075) in RAID-0
// (§5.2). Timing is modelled per spindle — positioning cost for
// non-sequential access, media-rate transfer, per-command overhead — and
// striped requests proceed in parallel across spindles, which is what lets
// the all-miss workload saturate the storage server's *CPU* rather than
// its disks (Fig 4).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/task.h"
#include "sim/busy_window.h"
#include "sim/cost_model.h"
#include "sim/cpu_model.h"
#include "sim/event_loop.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::blockdev {

constexpr std::size_t kBlockSize = 4096;  ///< logical block, matches fs block

/// One spindle: requests queue FIFO; sequential successors skip the seek.
class DiskModel {
 public:
  DiskModel(sim::EventLoop& loop, const sim::CostModel& costs,
            std::string name);

  /// Timing-only access of `bytes` at `offset`; `done` fires at completion.
  void access(std::uint64_t offset, std::size_t bytes,
              sim::InlineCallback done);

  std::uint64_t requests() const noexcept { return requests_; }
  std::uint64_t seeks() const noexcept { return seeks_; }
  /// Busy fraction of the current window.
  double utilization() const noexcept {
    return window_.utilization(loop_.now());
  }

  /// Publishes <prefix>.requests / .seeks / .utilization under `node` and
  /// restarts the busy window on every registry reset.
  void register_metrics(MetricRegistry& registry, const std::string& node,
                        const std::string& prefix);

 private:
  sim::EventLoop& loop_;
  const sim::CostModel& costs_;
  std::string name_;
  std::uint64_t next_sequential_offset_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t seeks_ = 0;
  sim::BusyWindow window_;
};

/// RAID-0 over N spindles with a fixed stripe unit. A logical request is
/// split into per-disk extents that proceed in parallel; completion fires
/// when the last extent lands.
class Raid0 {
 public:
  Raid0(sim::EventLoop& loop, const sim::CostModel& costs, std::string name,
        unsigned disks, std::size_t stripe_unit_bytes = 64 * 1024);

  void access(std::uint64_t offset, std::size_t bytes,
              sim::InlineCallback done);

  unsigned disk_count() const noexcept { return unsigned(disks_.size()); }
  DiskModel& disk(unsigned i) { return *disks_.at(i); }

 private:
  sim::EventLoop& loop_;
  std::vector<std::unique_ptr<DiskModel>> disks_;
  std::size_t stripe_unit_;
};

/// Injectable read-path disk faults (latent sector errors surface as a
/// medium error; checksum mismatches deliver corrupt bytes that the
/// reference CRCs taken at arm time catch).
enum class DiskFaultKind : std::uint8_t {
  LatentSectorError,
  ChecksumMismatch,
};

/// The byte contents of the array plus RAID-0 timing: the storage server's
/// complete disk subsystem. A block reads as, in order: the sparse overlay
/// of blocks written through poke()/write(); else its registered extent's
/// procedural content; else zeros. Populated volumes therefore cost only
/// their metadata and later writes, whatever their size.
class BlockStore {
 public:
  struct ReadResult {
    std::vector<std::byte> data;  ///< empty on a latent sector error
    bool ok = true;
  };

  /// Procedural block contents: fills `out` with the bytes found `offset`
  /// bytes into the stream `ino` names. A plain function pointer, so the
  /// block layer needs nothing from the file system that registers it.
  using ContentFn = void (*)(std::uint32_t ino, std::uint64_t offset,
                             std::span<std::byte> out);

  BlockStore(sim::EventLoop& loop, const sim::CostModel& costs,
             std::string name, std::uint64_t capacity_blocks,
             unsigned disks = 4);

  /// Asynchronous block read: bytes are produced after the RAID timing
  /// elapses. `ok` is false when an armed fault fires on the range (or a
  /// CRC verify catches corruption) — the medium-error path a real
  /// initiator sees as CHECK CONDITION.
  Task<ReadResult> read(std::uint64_t lbn, std::uint32_t count);
  Task<void> write(std::uint64_t lbn, std::vector<std::byte> data);

  /// Arms a transient read fault: the next `times` reads overlapping
  /// [lbn, lbn+count) fail with `kind`, then the range heals (transient
  /// latent errors — a reread after remap/retry succeeds). Takes reference
  /// CRCs of the range's current contents; later writes into it refresh
  /// them, and every read of it verifies against them from then on.
  void inject_read_fault(std::uint64_t lbn, std::uint32_t count,
                         DiskFaultKind kind, std::uint32_t times = 1);

  /// Registers procedural contents: block lbn+i (i < count) reads as
  /// fn(ino, offset + i * kBlockSize) unless it has been written (the
  /// overlay wins, whenever the write happened). Extents must not
  /// overlap.
  void map_extent(std::uint64_t lbn, std::uint32_t count, std::uint32_t ino,
                  std::uint64_t offset, ContentFn fn);

  /// Synchronous accessors for test setup / mkfs-style population (no
  /// timing charged).
  void poke(std::uint64_t lbn, std::span<const std::byte> data);
  std::vector<std::byte> peek(std::uint64_t lbn, std::uint32_t count) const;

  std::uint64_t capacity_blocks() const noexcept { return capacity_; }
  Raid0& raid() noexcept { return raid_; }
  std::uint64_t reads() const noexcept { return reads_; }
  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t read_errors() const noexcept { return read_errors_; }
  std::uint64_t checksum_mismatches() const noexcept {
    return checksum_mismatches_;
  }

  /// Publishes disk.* request counters and every spindle's metrics under
  /// `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  struct FaultWindow {
    std::uint64_t lbn;
    std::uint32_t count;
    DiskFaultKind kind;
    std::uint32_t remaining;
  };

  struct Extent {
    std::uint64_t lbn;
    std::uint32_t count;
    std::uint32_t ino;
    std::uint64_t offset;
    ContentFn fn;
  };

  void check_range(std::uint64_t lbn, std::uint32_t count) const;
  /// The armed fault (if any) overlapping [lbn, lbn+count) with shots left.
  FaultWindow* find_fault(std::uint64_t lbn, std::uint32_t count);
  /// Writes block `lbn`'s current contents into `out` (kBlockSize bytes).
  void read_block(std::uint64_t lbn, std::byte* out) const;

  sim::EventLoop& loop_;
  Raid0 raid_;
  std::uint64_t capacity_;
  /// Overlay: every block written since construction (metadata, writes).
  std::unordered_map<std::uint64_t, std::unique_ptr<std::byte[]>> blocks_;
  std::vector<Extent> extents_;  ///< sorted by lbn, disjoint
  /// Reference CRC32 of every block an armed fault has covered, kept
  /// current by writes; fault-free runs hold none and skip the verify.
  std::unordered_map<std::uint64_t, std::uint32_t> crcs_;
  std::vector<FaultWindow> faults_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t read_errors_ = 0;
  std::uint64_t checksum_mismatches_ = 0;
};

}  // namespace ncache::blockdev
