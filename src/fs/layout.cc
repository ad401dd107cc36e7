#include "fs/layout.h"

#include <stdexcept>

namespace ncache::fs {

void SuperBlock::serialize(ByteWriter& w) const {
  w.u32(magic);
  w.u64(total_blocks);
  w.u32(inode_count);
  w.u32(inode_bitmap_start);
  w.u32(inode_bitmap_blocks);
  w.u32(block_bitmap_start);
  w.u32(block_bitmap_blocks);
  w.u32(inode_table_start);
  w.u32(inode_table_blocks);
  w.u32(data_start);
}

SuperBlock SuperBlock::parse(ByteReader& r) {
  SuperBlock sb;
  sb.magic = r.u32();
  if (sb.magic != kFsMagic) throw std::runtime_error("SimpleFS: bad magic");
  sb.total_blocks = r.u64();
  sb.inode_count = r.u32();
  sb.inode_bitmap_start = r.u32();
  sb.inode_bitmap_blocks = r.u32();
  sb.block_bitmap_start = r.u32();
  sb.block_bitmap_blocks = r.u32();
  sb.inode_table_start = r.u32();
  sb.inode_table_blocks = r.u32();
  sb.data_start = r.u32();
  return sb;
}

SuperBlock SuperBlock::make(std::uint64_t total_blocks, std::uint32_t inodes) {
  SuperBlock sb;
  sb.total_blocks = total_blocks;
  sb.inode_count = inodes;
  sb.inode_bitmap_start = 1;
  sb.inode_bitmap_blocks =
      std::uint32_t((inodes + kBlockSize * 8 - 1) / (kBlockSize * 8));
  sb.block_bitmap_start = sb.inode_bitmap_start + sb.inode_bitmap_blocks;
  sb.block_bitmap_blocks = std::uint32_t((total_blocks + kBlockSize * 8 - 1) /
                                         (kBlockSize * 8));
  sb.inode_table_start = sb.block_bitmap_start + sb.block_bitmap_blocks;
  sb.inode_table_blocks =
      std::uint32_t((inodes + kInodesPerBlock - 1) / kInodesPerBlock);
  sb.data_start = sb.inode_table_start + sb.inode_table_blocks;
  if (sb.data_start >= total_blocks) {
    throw std::invalid_argument("SuperBlock::make: volume too small");
  }
  return sb;
}

void DiskInode::serialize(ByteWriter& w) const {
  std::size_t before = w.size();
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);
  w.u16(nlink);
  w.u64(size);
  w.u32(block_count);
  for (auto b : direct) w.u32(b);
  w.u32(indirect);
  w.u32(double_indirect);
  std::size_t used = w.size() - before;
  w.zeros(kInodeSize - used);
}

DiskInode DiskInode::parse(ByteReader& r) {
  std::size_t before = r.position();
  DiskInode in;
  in.type = static_cast<InodeType>(r.u8());
  r.u8();
  in.nlink = r.u16();
  in.size = r.u64();
  in.block_count = r.u32();
  for (auto& b : in.direct) b = r.u32();
  in.indirect = r.u32();
  in.double_indirect = r.u32();
  r.skip(kInodeSize - (r.position() - before));
  return in;
}

void Dirent::serialize(ByteWriter& w) const {
  if (name.size() > kMaxNameLen) {
    throw std::invalid_argument("Dirent: name too long");
  }
  w.u32(ino);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(name.size()));
  w.bytes(as_bytes(name));
  w.zeros(kDirentSize - 6 - name.size());
}

Dirent Dirent::parse(ByteReader& r) {
  DirentView v = DirentView::parse(r.bytes(kDirentSize));
  return Dirent{v.ino, v.type, std::string(v.name)};
}

DirentView DirentView::parse(std::span<const std::byte> slot) {
  ByteReader r(slot);
  DirentView d;
  d.ino = r.u32();
  d.type = static_cast<InodeType>(r.u8());
  std::uint8_t len = r.u8();
  if (len > kMaxNameLen) throw std::runtime_error("Dirent: corrupt name length");
  d.name = as_string_view(r.bytes(len));
  return d;
}

bool bitmap_test(std::span<const std::byte> bits, std::uint64_t index) {
  return (std::to_integer<unsigned>(bits[index / 8]) >> (index % 8)) & 1u;
}

void bitmap_set(std::span<std::byte> bits, std::uint64_t index, bool value) {
  auto& b = bits[index / 8];
  unsigned v = std::to_integer<unsigned>(b);
  if (value) {
    v |= 1u << (index % 8);
  } else {
    v &= ~(1u << (index % 8));
  }
  b = std::byte(v);
}

std::optional<std::uint64_t> bitmap_find_clear(std::span<const std::byte> bits,
                                               std::uint64_t start,
                                               std::uint64_t limit) {
  for (std::uint64_t i = start; i < limit; ++i) {
    if (!bitmap_test(bits, i)) return i;
  }
  for (std::uint64_t i = 0; i < start && i < limit; ++i) {
    if (!bitmap_test(bits, i)) return i;
  }
  return std::nullopt;
}

InodeLocation locate_inode(const SuperBlock& sb, std::uint32_t ino) {
  if (ino == 0 || ino >= sb.inode_count) {
    throw std::out_of_range("locate_inode: bad inode number");
  }
  return InodeLocation{sb.inode_table_start + ino / kInodesPerBlock,
                       (ino % kInodesPerBlock) * kInodeSize};
}

}  // namespace ncache::fs
