#include "blockdev/block_store.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>

#include "common/checksum.h"
#include "common/metrics.h"

namespace ncache::blockdev {

DiskModel::DiskModel(sim::EventLoop& loop, const sim::CostModel& costs,
                     std::string name)
    : loop_(loop), costs_(costs), name_(std::move(name)) {}

void DiskModel::access(std::uint64_t offset, std::size_t bytes,
                       sim::InlineCallback done) {
  sim::Duration cost = costs_.disk_command_ns;
  if (offset != next_sequential_offset_) {
    std::uint64_t delta = offset > next_sequential_offset_
                              ? offset - next_sequential_offset_
                              : next_sequential_offset_ - offset;
    if (delta <= costs_.disk_near_band_bytes) {
      // Slightly out-of-order request in the queue: the elevator absorbs
      // it without a full positioning cycle.
      cost += costs_.disk_near_seek_ns;
    } else {
      cost += costs_.disk_seek_ns;
      ++seeks_;
    }
  }
  cost += static_cast<sim::Duration>(double(bytes) * 8e9 /
                                     double(costs_.disk_bandwidth_bps));
  next_sequential_offset_ = offset + bytes;
  ++requests_;

  loop_.schedule_at(window_.book(loop_.now(), cost), std::move(done));
}

void DiskModel::register_metrics(MetricRegistry& registry,
                                 const std::string& node,
                                 const std::string& prefix) {
  registry.counter(node, prefix + ".requests", &requests_);
  registry.counter(node, prefix + ".seeks", &seeks_);
  registry.gauge(node, prefix + ".utilization",
                 [this] { return utilization(); });
  registry.on_reset([this] { window_.restart(loop_.now()); });
}

Raid0::Raid0(sim::EventLoop& loop, const sim::CostModel& costs,
             std::string name, unsigned disks, std::size_t stripe_unit_bytes)
    : loop_(loop), stripe_unit_(stripe_unit_bytes) {
  if (disks == 0) throw std::invalid_argument("Raid0: need >= 1 disk");
  for (unsigned i = 0; i < disks; ++i) {
    disks_.push_back(std::make_unique<DiskModel>(
        loop, costs, name + ".d" + std::to_string(i)));
  }
}

void Raid0::access(std::uint64_t offset, std::size_t bytes,
                   sim::InlineCallback done) {
  if (bytes == 0) {
    loop_.schedule_in(0, std::move(done));
    return;
  }
  // Split [offset, offset+bytes) into stripe-unit extents and fan out.
  struct Join {
    std::size_t remaining = 0;
    sim::InlineCallback done;
  };
  auto join = std::make_shared<Join>();
  join->done = std::move(done);

  std::uint64_t pos = offset;
  std::uint64_t end = offset + bytes;
  while (pos < end) {
    std::uint64_t stripe = pos / stripe_unit_;
    std::uint64_t in_stripe = pos % stripe_unit_;
    std::size_t extent =
        std::min<std::uint64_t>(stripe_unit_ - in_stripe, end - pos);
    unsigned disk_index = unsigned(stripe % disks_.size());
    // Per-disk linear offset: which stripe row on the spindle.
    std::uint64_t row = stripe / disks_.size();
    std::uint64_t disk_offset = row * stripe_unit_ + in_stripe;

    ++join->remaining;
    disks_[disk_index]->access(disk_offset, extent, [join] {
      if (--join->remaining == 0 && join->done) join->done();
    });
    pos += extent;
  }
}

BlockStore::BlockStore(sim::EventLoop& loop, const sim::CostModel& costs,
                       std::string name, std::uint64_t capacity_blocks,
                       unsigned disks)
    : loop_(loop),
      raid_(loop, costs, name, disks),
      capacity_(capacity_blocks) {}

void BlockStore::check_range(std::uint64_t lbn, std::uint32_t count) const {
  if (lbn + count > capacity_ || count == 0) {
    throw std::out_of_range("BlockStore: block range out of bounds");
  }
}

BlockStore::FaultWindow* BlockStore::find_fault(std::uint64_t lbn,
                                                std::uint32_t count) {
  for (FaultWindow& f : faults_) {
    if (f.remaining == 0) continue;
    if (lbn < f.lbn + f.count && f.lbn < lbn + count) return &f;
  }
  return nullptr;
}

void BlockStore::inject_read_fault(std::uint64_t lbn, std::uint32_t count,
                                   DiskFaultKind kind, std::uint32_t times) {
  check_range(lbn, count);
  faults_.push_back(FaultWindow{lbn, count, kind, times});
  std::vector<std::byte> blk(kBlockSize);
  for (std::uint64_t b = lbn; b < lbn + count; ++b) {
    read_block(b, blk.data());
    crcs_[b] = crc32(blk);
  }
}

namespace {

/// upper_bound comparator over extents sorted by first LBN.
constexpr auto kBeforeExtent = [](std::uint64_t lbn, const auto& extent) {
  return lbn < extent.lbn;
};

}  // namespace

void BlockStore::map_extent(std::uint64_t lbn, std::uint32_t count,
                            std::uint32_t ino, std::uint64_t offset,
                            ContentFn fn) {
  check_range(lbn, count);
  auto at = std::upper_bound(extents_.begin(), extents_.end(), lbn,
                             kBeforeExtent);
  bool overlaps_next = at != extents_.end() && at->lbn < lbn + count;
  bool overlaps_prev = at != extents_.begin() &&
                       std::prev(at)->lbn + std::prev(at)->count > lbn;
  if (overlaps_next || overlaps_prev) {
    throw std::invalid_argument("BlockStore::map_extent: overlapping extent");
  }
  extents_.insert(at, Extent{lbn, count, ino, offset, fn});
}

void BlockStore::read_block(std::uint64_t lbn, std::byte* out) const {
  if (auto it = blocks_.find(lbn); it != blocks_.end()) {
    std::memcpy(out, it->second.get(), kBlockSize);
    return;
  }
  auto at = std::upper_bound(extents_.begin(), extents_.end(), lbn,
                             kBeforeExtent);
  if (at != extents_.begin()) {
    const Extent& e = *std::prev(at);
    if (lbn < e.lbn + e.count) {
      e.fn(e.ino, e.offset + (lbn - e.lbn) * kBlockSize, {out, kBlockSize});
      return;
    }
  }
  std::memset(out, 0, kBlockSize);
}

Task<BlockStore::ReadResult> BlockStore::read(std::uint64_t lbn,
                                              std::uint32_t count) {
  check_range(lbn, count);
  ++reads_;
  AwaitCallback<bool> io([this, lbn, count](auto resolve) {
    auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
    raid_.access(lbn * kBlockSize, std::size_t(count) * kBlockSize,
                 [r] { (*r)(true); });
  });
  co_await io;

  FaultWindow* fault = find_fault(lbn, count);
  if (fault) {
    --fault->remaining;
    if (fault->kind == DiskFaultKind::LatentSectorError) {
      // The drive cannot return the sector at all: unrecovered read error.
      ++read_errors_;
      co_return ReadResult{{}, false};
    }
  }

  ReadResult out{peek(lbn, count), true};
  if (fault) {
    // Silent corruption on the wire from the platter: flip one byte in the
    // first faulted block of the range.
    std::uint64_t bad = std::max(lbn, fault->lbn);
    std::size_t at = std::size_t(bad - lbn) * kBlockSize;
    out.data[at] ^= std::byte{0xFF};
  }
  if (!crcs_.empty()) {
    // End-to-end integrity: the reference CRCs of armed ranges catch what
    // the drive missed.
    for (std::uint32_t i = 0; i < count; ++i) {
      auto it = crcs_.find(lbn + i);
      if (it == crcs_.end()) continue;
      std::span<const std::byte> blk(out.data.data() +
                                         std::size_t(i) * kBlockSize,
                                     kBlockSize);
      if (crc32(blk) != it->second) {
        ++checksum_mismatches_;
        ++read_errors_;
        out.ok = false;
        break;
      }
    }
  }
  co_return out;
}

Task<void> BlockStore::write(std::uint64_t lbn, std::vector<std::byte> data) {
  if (data.size() % kBlockSize != 0) {
    throw std::invalid_argument("BlockStore::write: unaligned size");
  }
  auto count = std::uint32_t(data.size() / kBlockSize);
  check_range(lbn, count);
  ++writes_;
  AwaitCallback<bool> io([this, lbn, &data](auto resolve) {
    auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
    raid_.access(lbn * kBlockSize, data.size(), [r] { (*r)(true); });
  });
  co_await io;
  poke(lbn, data);
}

void BlockStore::poke(std::uint64_t lbn, std::span<const std::byte> data) {
  if (data.size() % kBlockSize != 0) {
    throw std::invalid_argument("BlockStore::poke: unaligned size");
  }
  for (std::size_t i = 0; i * kBlockSize < data.size(); ++i) {
    auto& slot = blocks_[lbn + i];
    if (!slot) slot = std::make_unique<std::byte[]>(kBlockSize);
    std::memcpy(slot.get(), data.data() + i * kBlockSize, kBlockSize);
    if (auto it = crcs_.find(lbn + i); it != crcs_.end()) {
      it->second = crc32({slot.get(), kBlockSize});
    }
  }
}

std::vector<std::byte> BlockStore::peek(std::uint64_t lbn,
                                        std::uint32_t count) const {
  check_range(lbn, count);
  std::vector<std::byte> out(std::size_t(count) * kBlockSize);
  for (std::uint32_t i = 0; i < count; ++i) {
    read_block(lbn + i, out.data() + std::size_t(i) * kBlockSize);
  }
  return out;
}

void BlockStore::register_metrics(MetricRegistry& registry,
                                  const std::string& node) {
  registry.counter(node, "disk.reads", &reads_);
  registry.counter(node, "disk.writes", &writes_);
  registry.counter(node, "disk.read_errors", &read_errors_);
  registry.counter(node, "disk.checksum_mismatches", &checksum_mismatches_);
  for (unsigned i = 0; i < raid_.disk_count(); ++i) {
    raid_.disk(i).register_metrics(registry, node,
                                   "disk" + std::to_string(i));
  }
}

}  // namespace ncache::blockdev
