#include "fs/image_builder.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace ncache::fs {

namespace {

// Inside one 4 KB block content_byte is (c + 7·offset) mod 256 with c
// fixed per (inode, block). 7 is invertible mod 256 (7·183 = 5·256 + 1),
// so that equals 7·(offset + 183·c) mod 256: the single 256-byte period
// 7·k mod 256 read from a per-block phase. Two periods back to back let
// a whole period be copied from any phase.
constexpr std::size_t kPeriod = 256;
constexpr auto kPattern = [] {
  std::array<std::byte, 2 * kPeriod> p{};
  for (std::size_t k = 0; k < p.size(); ++k) p[k] = std::byte((7 * k) & 0xff);
  return p;
}();

/// Calls fn(index, n, expected) over [offset, offset + len) of file `ino`
/// in pieces of at most one period that never cross a block boundary, so
/// `expected` points at the n pattern bytes the piece must hold. Stops
/// early, returning the index fn returned, when that is not npos.
template <typename Fn>
std::size_t for_each_piece(std::uint32_t ino, std::uint64_t offset,
                           std::size_t len, Fn&& fn) {
  std::size_t i = 0;
  while (i < len) {
    std::uint64_t at = offset + i;
    std::uint32_t c = ino * 131u + std::uint32_t(at >> 12) * 13u;
    const std::byte* expected =
        kPattern.data() + ((std::uint32_t(at) + 183u * c) & 0xff);
    std::size_t block_end =
        i + std::min<std::uint64_t>(kBlockSize - at % kBlockSize, len - i);
    while (i < block_end) {
      std::size_t n = std::min(kPeriod, block_end - i);
      if (std::size_t bad = fn(i, n, expected); bad != std::size_t(-1)) {
        return bad;
      }
      i += n;
    }
  }
  return std::size_t(-1);
}

void put_pointer(std::span<std::byte> blk, std::size_t slot,
                 std::uint32_t lbn) {
  blk[slot * 4] = std::byte(lbn >> 24);
  blk[slot * 4 + 1] = std::byte(lbn >> 16);
  blk[slot * 4 + 2] = std::byte(lbn >> 8);
  blk[slot * 4 + 3] = std::byte(lbn);
}

}  // namespace

void fill_content(std::uint32_t ino, std::uint64_t offset,
                  std::span<std::byte> out) {
  for_each_piece(ino, offset, out.size(),
                 [&](std::size_t i, std::size_t n, const std::byte* want) {
                   std::memcpy(out.data() + i, want, n);
                   return std::size_t(-1);
                 });
}

std::size_t verify_content(std::uint32_t ino, std::uint64_t offset,
                           std::span<const std::byte> data) {
  return for_each_piece(
      ino, offset, data.size(),
      [&](std::size_t i, std::size_t n, const std::byte* want) {
        if (std::memcmp(data.data() + i, want, n) == 0) return std::size_t(-1);
        std::size_t k = 0;
        while (data[i + k] == want[k]) ++k;
        return i + k;
      });
}

FsImageBuilder::FsImageBuilder(blockdev::BlockStore& store,
                               std::uint64_t total_blocks,
                               std::uint32_t inode_count)
    : store_(store), sb_(SuperBlock::make(total_blocks, inode_count)) {
  if (total_blocks > store.capacity_blocks()) {
    throw std::invalid_argument("FsImageBuilder: volume exceeds device");
  }
  inode_bitmap_.resize(std::size_t(sb_.inode_bitmap_blocks) * kBlockSize);
  block_bitmap_.resize(std::size_t(sb_.block_bitmap_blocks) * kBlockSize);
  inode_table_.resize(std::size_t(sb_.inode_table_blocks) * kBlockSize);

  bitmap_set(inode_bitmap_, 0, true);
  bitmap_set(inode_bitmap_, kRootIno, true);
  for (std::uint64_t b = 0; b < sb_.data_start; ++b) {
    bitmap_set(block_bitmap_, b, true);
  }
  next_block_ = sb_.data_start;
  dir_entries_[kRootIno] = {};
}

std::uint32_t FsImageBuilder::alloc_block_seq() {
  if (next_block_ >= sb_.total_blocks) {
    throw std::runtime_error("FsImageBuilder: volume full");
  }
  auto lbn = std::uint32_t(next_block_++);
  bitmap_set(block_bitmap_, lbn, true);
  return lbn;
}

std::vector<FsImageBuilder::DataRun> FsImageBuilder::map_file_blocks(
    DiskInode& inode, std::uint64_t count) {
  if (count > kDirectBlocks + kPointersPerBlock +
                  kPointersPerBlock * kPointersPerBlock) {
    throw std::runtime_error("FsImageBuilder: file too large");
  }
  std::vector<DataRun> runs;
  std::uint64_t fb = 0;
  // The next min(left, limit) data blocks, allocated as one run.
  auto data_run = [&](std::uint64_t limit) {
    DataRun r{next_block_, fb, std::uint32_t(std::min(count - fb, limit))};
    for (std::uint32_t i = 0; i < r.count; ++i) alloc_block_seq();
    fb += r.count;
    if (r.count > 0) runs.push_back(r);
    return r;
  };
  // Pointer block `table` mapping the run `r`, written once.
  auto poke_pointers = [&](std::uint32_t table, const DataRun& r) {
    std::vector<std::byte> blk(kBlockSize);
    for (std::uint32_t i = 0; i < r.count; ++i) {
      put_pointer(blk, i, std::uint32_t(r.lbn + i));
    }
    store_.poke(table, blk);
  };

  DataRun direct = data_run(kDirectBlocks);
  for (std::uint32_t i = 0; i < direct.count; ++i) {
    inode.direct[i] = std::uint32_t(direct.lbn + i);
  }
  if (fb < count) {
    inode.indirect = alloc_block_seq();
    poke_pointers(inode.indirect, data_run(kPointersPerBlock));
  }
  if (fb < count) {
    inode.double_indirect = alloc_block_seq();
    std::vector<std::byte> di(kBlockSize);  // pointers to the L1 blocks
    for (std::size_t slot = 0; fb < count; ++slot) {
      std::uint32_t l1 = alloc_block_seq();
      put_pointer(di, slot, l1);
      poke_pointers(l1, data_run(kPointersPerBlock));
    }
    store_.poke(inode.double_indirect, di);
  }
  inode.block_count = std::uint32_t(count);
  return runs;
}

void FsImageBuilder::poke_runs(const std::vector<DataRun>& runs,
                               std::span<const std::byte> content) {
  for (const DataRun& r : runs) {
    std::vector<std::byte> buf(std::size_t(r.count) * kBlockSize);
    std::size_t off = std::size_t(r.file_block) * kBlockSize;
    std::memcpy(buf.data(), content.data() + off,
                std::min(buf.size(), content.size() - off));
    store_.poke(r.lbn, buf);
  }
}

void FsImageBuilder::store_inode(std::uint32_t ino, const DiskInode& inode) {
  std::vector<std::byte> bytes;
  ByteWriter w(bytes);
  inode.serialize(w);
  std::memcpy(inode_table_.data() + std::size_t(ino) * kInodeSize,
              bytes.data(), kInodeSize);
}

std::uint32_t FsImageBuilder::add_common(std::string_view name, InodeType type,
                                         std::uint32_t parent) {
  if (finished_) throw std::logic_error("FsImageBuilder: already finished");
  if (name.empty() || name.size() > kMaxNameLen) return 0;
  if (next_ino_ >= sb_.inode_count) return 0;
  if (!dir_entries_.contains(parent)) return 0;

  std::uint32_t ino = next_ino_++;
  bitmap_set(inode_bitmap_, ino, true);
  dir_entries_[parent].push_back(Dirent{ino, type, std::string(name)});
  if (type == InodeType::Directory) dir_entries_[ino] = {};
  return ino;
}

std::uint32_t FsImageBuilder::add_regular(std::string_view name,
                                          std::uint64_t size,
                                          std::uint32_t parent,
                                          std::vector<DataRun>& runs) {
  std::uint32_t ino = add_common(name, InodeType::File, parent);
  if (ino == 0) return 0;
  DiskInode inode;
  inode.type = InodeType::File;
  inode.nlink = 1;
  inode.size = size;
  runs = map_file_blocks(inode, (size + kBlockSize - 1) / kBlockSize);
  store_inode(ino, inode);
  return ino;
}

std::uint32_t FsImageBuilder::add_file(std::string_view name,
                                       std::uint64_t size,
                                       std::uint32_t parent) {
  std::vector<DataRun> runs;
  std::uint32_t ino = add_regular(name, size, parent, runs);
  for (const DataRun& r : runs) {
    store_.map_extent(r.lbn, r.count, ino, r.file_block * kBlockSize,
                      &fill_content);
  }
  return ino;
}

std::uint32_t FsImageBuilder::add_file_with_content(
    std::string_view name, std::span<const std::byte> content,
    std::uint32_t parent) {
  std::vector<DataRun> runs;
  std::uint32_t ino = add_regular(name, content.size(), parent, runs);
  poke_runs(runs, content);
  return ino;
}

std::uint32_t FsImageBuilder::add_dir(std::string_view name,
                                      std::uint32_t parent) {
  return add_common(name, InodeType::Directory, parent);
}

void FsImageBuilder::finish() {
  if (finished_) throw std::logic_error("FsImageBuilder: already finished");

  for (auto& [dir_ino, entries] : dir_entries_) {
    std::vector<std::byte> bytes;
    ByteWriter w(bytes);
    for (const Dirent& d : entries) d.serialize(w);
    DiskInode dir;
    dir.type = InodeType::Directory;
    dir.nlink = 2;
    std::uint64_t blocks = (bytes.size() + kBlockSize - 1) / kBlockSize;
    poke_runs(map_file_blocks(dir, blocks), bytes);
    dir.size = blocks * kBlockSize;
    store_inode(dir_ino, dir);
  }

  std::vector<std::byte> sb_bytes;
  ByteWriter w(sb_bytes);
  sb_.serialize(w);
  sb_bytes.resize(kBlockSize);
  store_.poke(0, sb_bytes);
  store_.poke(sb_.inode_bitmap_start, inode_bitmap_);
  store_.poke(sb_.block_bitmap_start, block_bitmap_);
  store_.poke(sb_.inode_table_start, inode_table_);
  finished_ = true;
}

}  // namespace ncache::fs
