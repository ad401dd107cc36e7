// SimpleFS on-disk format.
//
// A classic ext2-flavoured layout on 4 KB blocks:
//
//   block 0              superblock
//   [inode bitmap]       1 bit per inode
//   [block bitmap]       1 bit per block
//   [inode table]        128-byte inodes, 32 per block
//   [data blocks]
//
// Inodes address 12 direct blocks, one single-indirect block (1024
// pointers) and one double-indirect block, for a max file size of ~4 GB —
// enough for the paper's 2 GB sequential-read microbenchmark. Directory
// blocks hold fixed 64-byte entries.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace ncache::fs {

constexpr std::size_t kBlockSize = 4096;
constexpr std::uint32_t kFsMagic = 0x4e434653;  // "NCFS"

constexpr std::size_t kInodeSize = 128;
constexpr std::size_t kInodesPerBlock = kBlockSize / kInodeSize;  // 32
constexpr std::size_t kDirectBlocks = 12;
constexpr std::size_t kPointersPerBlock = kBlockSize / 4;  // 1024
constexpr std::size_t kDirentSize = 64;
constexpr std::size_t kDirentsPerBlock = kBlockSize / kDirentSize;  // 64
constexpr std::size_t kMaxNameLen = kDirentSize - 6;                // 58

constexpr std::uint32_t kInvalidBlock = 0;  ///< block 0 is the superblock
constexpr std::uint32_t kRootIno = 1;       ///< inode 0 reserved

/// Max bytes one inode can address.
constexpr std::uint64_t kMaxFileSize =
    std::uint64_t(kDirectBlocks + kPointersPerBlock +
                  kPointersPerBlock * kPointersPerBlock) *
    kBlockSize;

enum class InodeType : std::uint8_t { Free = 0, File = 1, Directory = 2 };

struct SuperBlock {
  std::uint32_t magic = kFsMagic;
  std::uint64_t total_blocks = 0;
  std::uint32_t inode_count = 0;
  std::uint32_t inode_bitmap_start = 0;
  std::uint32_t inode_bitmap_blocks = 0;
  std::uint32_t block_bitmap_start = 0;
  std::uint32_t block_bitmap_blocks = 0;
  std::uint32_t inode_table_start = 0;
  std::uint32_t inode_table_blocks = 0;
  std::uint32_t data_start = 0;

  void serialize(ByteWriter& w) const;
  static SuperBlock parse(ByteReader& r);
  /// Computes a layout for a volume of `total_blocks` with `inode_count`
  /// inodes.
  static SuperBlock make(std::uint64_t total_blocks, std::uint32_t inodes);

  friend bool operator==(const SuperBlock&, const SuperBlock&) = default;
};

struct DiskInode {
  InodeType type = InodeType::Free;
  std::uint16_t nlink = 0;
  std::uint64_t size = 0;
  std::uint32_t block_count = 0;  ///< data blocks allocated
  std::array<std::uint32_t, kDirectBlocks> direct{};
  std::uint32_t indirect = kInvalidBlock;
  std::uint32_t double_indirect = kInvalidBlock;

  void serialize(ByteWriter& w) const;  ///< exactly kInodeSize bytes
  static DiskInode parse(ByteReader& r);

  friend bool operator==(const DiskInode&, const DiskInode&) = default;
};

struct Dirent {
  std::uint32_t ino = 0;  ///< 0 = empty slot
  InodeType type = InodeType::Free;
  std::string name;

  void serialize(ByteWriter& w) const;  ///< exactly kDirentSize bytes
  static Dirent parse(ByteReader& r);
};

/// A directory slot read in place: `name` views the slot's bytes, so a
/// scan allocates nothing.
struct DirentView {
  std::uint32_t ino = 0;  ///< 0 = empty slot
  InodeType type = InodeType::Free;
  std::string_view name;

  /// Reads one kDirentSize slot; throws on a corrupt name length.
  static DirentView parse(std::span<const std::byte> slot);
};

/// Bit ops over a bitmap block image.
bool bitmap_test(std::span<const std::byte> bits, std::uint64_t index);
void bitmap_set(std::span<std::byte> bits, std::uint64_t index, bool value);
/// First clear bit at or after `start`, or nullopt.
std::optional<std::uint64_t> bitmap_find_clear(std::span<const std::byte> bits,
                                               std::uint64_t start,
                                               std::uint64_t limit);

/// Inode location within the inode table.
struct InodeLocation {
  std::uint64_t block;   ///< absolute LBN
  std::size_t offset;    ///< byte offset within the block
};
InodeLocation locate_inode(const SuperBlock& sb, std::uint32_t ino);

}  // namespace ncache::fs
