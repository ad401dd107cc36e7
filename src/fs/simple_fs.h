// SimpleFS: the file system the NFS/Web servers run on.
//
// An ext2-style block file system mounted over any BlockClient (the iSCSI
// initiator in the testbed, a local store in unit tests), with all block
// I/O routed through the BufferCache. Crucially — and this is the paper's
// transparency claim — SimpleFS never interprets *file data* blocks, so it
// works identically whether a block holds physical bytes, an NCache key,
// or baseline junk. Only metadata (superblock, bitmaps, inodes,
// directories, indirect blocks) is parsed, and metadata always travels the
// physical-copy path.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "fs/buffer_cache.h"
#include "fs/layout.h"

namespace ncache::fs {

struct FileAttr {
  InodeType type = InodeType::Free;
  std::uint64_t size = 0;
  std::uint16_t nlink = 0;
  std::uint32_t block_count = 0;
};

struct FsStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t creates = 0;
  std::uint64_t removes = 0;
  std::uint64_t lookups = 0;
};

class SimpleFs {
 public:
  SimpleFs(sim::EventLoop& loop, iscsi::BlockClient& client,
           std::size_t cache_blocks, std::size_t readahead_blocks = 0);

  /// Formats the volume through the block client.
  Task<void> mkfs(std::uint64_t total_blocks, std::uint32_t inode_count);
  /// Reads and validates the superblock.
  Task<void> mount();
  bool mounted() const noexcept { return mounted_; }

  /// Ready at once (no frame) when the inode's table block is resident.
  MaybeTask<FileAttr> getattr(std::uint32_t ino);
  Task<std::optional<std::uint32_t>> lookup(std::uint32_t dir_ino,
                                            std::string_view name);
  /// Creates a file or directory; returns its inode (0 on failure, e.g.
  /// exists / no space).
  Task<std::uint32_t> create(std::uint32_t dir_ino, std::string_view name,
                             InodeType type);
  Task<bool> remove(std::uint32_t dir_ino, std::string_view name);
  /// Moves an entry between directories (or renames in place). Fails if
  /// the source is missing or the destination name already exists.
  Task<bool> rename(std::uint32_t src_dir, std::string_view src_name,
                    std::uint32_t dst_dir, std::string_view dst_name);
  Task<std::vector<Dirent>> readdir(std::uint32_t dir_ino);

  /// Reads up to `len` bytes at `off`; returns a (possibly logical)
  /// message of the bytes actually read (clamped at EOF).
  Task<netbuf::MsgBuffer> read(std::uint32_t ino, std::uint64_t off,
                               std::uint32_t len);
  /// Writes `data` at `off` (extending the file as needed); returns bytes
  /// written, 0 on allocation failure.
  Task<std::uint32_t> write(std::uint32_t ino, std::uint64_t off,
                            netbuf::MsgBuffer data);
  Task<bool> truncate(std::uint32_t ino, std::uint64_t new_size);

  /// Flushes all dirty buffers.
  Task<void> sync();

  /// Maps the byte range [off, off+len) of `ino` to its on-disk LBNs
  /// (holes omitted). Cluster write-invalidation uses this to name the
  /// blocks a WRITE touched when telling peer replicas to drop them.
  Task<std::vector<std::uint32_t>> map_range(std::uint32_t ino,
                                             std::uint64_t off,
                                             std::uint32_t len);

  BufferCache& cache() noexcept { return cache_; }
  const SuperBlock& superblock() const { return sb_; }
  const FsStats& stats() const noexcept { return stats_; }

 private:
  // The read-side helpers return MaybeTask: ready at once, with no
  // coroutine frame, when every block they need is resident.
  MaybeTask<DiskInode> load_inode(std::uint32_t ino);
  Task<void> store_inode(std::uint32_t ino, const DiskInode& inode);

  /// Maps file block index -> LBN (kInvalidBlock for holes).
  MaybeTask<std::uint32_t> bmap(const DiskInode& inode,
                                std::uint64_t file_block);
  /// bmap's double-indirect tail once the first level was not resident.
  Task<std::uint32_t> bmap_tail(MaybeTask<std::uint32_t> l1,
                                std::size_t slot);
  /// Same, allocating data/indirect blocks as needed. Mutates `inode`
  /// (caller stores it). Returns kInvalidBlock when the volume is full.
  Task<std::uint32_t> bmap_alloc(DiskInode& inode, std::uint64_t file_block);

  Task<std::uint32_t> alloc_block();
  Task<void> free_block(std::uint32_t lbn);
  Task<std::uint32_t> alloc_inode();
  Task<void> free_inode(std::uint32_t ino);
  Task<void> set_bitmap_bit(std::uint32_t bitmap_start, std::uint64_t index,
                            bool value);

  /// Reads a u32 pointer out of an (indirect) metadata block.
  MaybeTask<std::uint32_t> read_ptr(std::uint32_t block_lbn, std::size_t slot);
  Task<void> write_ptr(std::uint32_t block_lbn, std::size_t slot,
                       std::uint32_t value);

  /// Releases every data/indirect block of an inode.
  Task<void> release_blocks(DiskInode& inode);

  sim::EventLoop& loop_;
  iscsi::BlockClient& client_;
  BufferCache cache_;
  SuperBlock sb_;
  bool mounted_ = false;
  std::uint64_t block_rotor_ = 0;
  FsStats stats_;
};

}  // namespace ncache::fs
