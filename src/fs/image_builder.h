// Direct file-system image construction.
//
// Benchmarks need multi-hundred-megabyte populated volumes; building them
// through the full iSCSI + fs write path would burn real time without
// adding fidelity (the paper also populates its file sets before
// measuring). FsImageBuilder writes a valid SimpleFS image straight into a
// BlockStore with no simulated cost; the servers then mount it through the
// normal network path.
//
// File contents come from a deterministic per-(inode, offset) pattern so
// clients can verify every byte they receive without anybody storing a
// golden copy. The builder writes only metadata (superblock, bitmaps,
// inode table, directory and indirect blocks); each contiguous run of a
// patterned file's data blocks is registered with the BlockStore as an
// extent whose bytes are synthesized by fill_content when read, so image
// size costs no memory and no build time.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "blockdev/block_store.h"
#include "fs/layout.h"

namespace ncache::fs {

/// Deterministic content byte for file `ino` at byte `offset`. The block
/// term (offset >> 12) * 13 makes every 4 KB block distinct (13 is odd, so
/// consecutive blocks differ mod 256): a block landing at the wrong file
/// offset can never verify.
inline std::byte content_byte(std::uint32_t ino, std::uint64_t offset) {
  return std::byte((ino * 131u + std::uint32_t(offset) * 7u +
                    std::uint32_t(offset >> 12) * 13u) &
                   0xff);
}

/// Fills `out` with the deterministic content of file `ino` at `offset`
/// (content_byte for every byte, copied from one precomputed period).
void fill_content(std::uint32_t ino, std::uint64_t offset,
                  std::span<std::byte> out);

/// Verifies that `data` matches the deterministic content of `ino` at
/// `offset`. Returns the index of the first mismatch, or npos.
std::size_t verify_content(std::uint32_t ino, std::uint64_t offset,
                           std::span<const std::byte> data);

class FsImageBuilder {
 public:
  FsImageBuilder(blockdev::BlockStore& store, std::uint64_t total_blocks,
                 std::uint32_t inode_count);

  /// Adds a regular file under the given directory (default: root) filled
  /// with the deterministic pattern (mapped as extents, never written).
  /// Returns its inode, 0 on failure.
  std::uint32_t add_file(std::string_view name, std::uint64_t size,
                         std::uint32_t parent = kRootIno);

  /// Adds a file with explicit contents.
  std::uint32_t add_file_with_content(std::string_view name,
                                      std::span<const std::byte> content,
                                      std::uint32_t parent = kRootIno);

  /// Adds a directory. Returns its inode, 0 on failure.
  std::uint32_t add_dir(std::string_view name,
                        std::uint32_t parent = kRootIno);

  /// Writes the directories, bitmaps, inode table and superblock into the
  /// store. Must be called exactly once; no further add_* calls are
  /// allowed afterwards.
  void finish();
  bool finished() const noexcept { return finished_; }

  const SuperBlock& superblock() const noexcept { return sb_; }
  std::uint64_t blocks_used() const noexcept { return next_block_; }

 private:
  /// A contiguous run of data blocks: file blocks [file_block,
  /// file_block + count) live at [lbn, lbn + count).
  struct DataRun {
    std::uint64_t lbn;
    std::uint64_t file_block;
    std::uint32_t count;
  };

  std::uint32_t add_common(std::string_view name, InodeType type,
                           std::uint32_t parent);
  /// add_common + a mapped inode of `size` bytes; `runs` receives its data
  /// blocks. Returns the inode, 0 on failure.
  std::uint32_t add_regular(std::string_view name, std::uint64_t size,
                            std::uint32_t parent, std::vector<DataRun>& runs);
  std::uint32_t alloc_block_seq();
  /// Allocates `count` data blocks for file blocks 0.. of `inode`
  /// sequentially, with its indirect, double-indirect and L1 blocks
  /// interleaved where first needed; writes each of those pointer blocks
  /// once and returns the data runs between them.
  std::vector<DataRun> map_file_blocks(DiskInode& inode, std::uint64_t count);
  /// Writes `content` (zero-padded to whole blocks) over `runs`.
  void poke_runs(const std::vector<DataRun>& runs,
                 std::span<const std::byte> content);
  void store_inode(std::uint32_t ino, const DiskInode& inode);

  blockdev::BlockStore& store_;
  SuperBlock sb_;
  std::vector<std::byte> inode_bitmap_;
  std::vector<std::byte> block_bitmap_;
  std::vector<std::byte> inode_table_;
  std::unordered_map<std::uint32_t, std::vector<Dirent>> dir_entries_;
  std::uint32_t next_ino_ = kRootIno + 1;
  std::uint64_t next_block_;
  bool finished_ = false;
};

}  // namespace ncache::fs
