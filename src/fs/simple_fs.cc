#include "fs/simple_fs.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/logging.h"

namespace ncache::fs {

using netbuf::MsgBuffer;

namespace {
/// Serializes a struct into an exact-size byte vector.
template <typename T>
std::vector<std::byte> to_block_bytes(const T& v, std::size_t pad_to) {
  std::vector<std::byte> out;
  ByteWriter w(out);
  v.serialize(w);
  out.resize(pad_to);
  return out;
}
}  // namespace

SimpleFs::SimpleFs(sim::EventLoop& loop, iscsi::BlockClient& client,
                   std::size_t cache_blocks, std::size_t readahead_blocks)
    : loop_(loop),
      client_(client),
      cache_(loop, client, cache_blocks, readahead_blocks) {}

Task<void> SimpleFs::mkfs(std::uint64_t total_blocks,
                          std::uint32_t inode_count) {
  sb_ = SuperBlock::make(total_blocks, inode_count);

  // Superblock.
  auto sb_bytes = to_block_bytes(sb_, kBlockSize);
  co_await client_.write_blocks(0, MsgBuffer::from_bytes(sb_bytes), true);

  // Inode bitmap: inodes 0 (reserved) and 1 (root) used.
  {
    std::vector<std::byte> bits(kBlockSize * sb_.inode_bitmap_blocks);
    bitmap_set(bits, 0, true);
    bitmap_set(bits, kRootIno, true);
    co_await client_.write_blocks(sb_.inode_bitmap_start,
                                  MsgBuffer::from_bytes(bits), true);
  }
  // Block bitmap: metadata region used.
  {
    std::vector<std::byte> bits(kBlockSize * sb_.block_bitmap_blocks);
    for (std::uint64_t b = 0; b < sb_.data_start; ++b) {
      bitmap_set(bits, b, true);
    }
    co_await client_.write_blocks(sb_.block_bitmap_start,
                                  MsgBuffer::from_bytes(bits), true);
  }
  // Inode table: zeroed, with the root directory inode.
  {
    std::vector<std::byte> table(kBlockSize * sb_.inode_table_blocks);
    DiskInode root;
    root.type = InodeType::Directory;
    root.nlink = 2;
    std::vector<std::byte> root_bytes;
    ByteWriter w(root_bytes);
    root.serialize(w);
    std::memcpy(table.data() + kRootIno * kInodeSize, root_bytes.data(),
                kInodeSize);
    co_await client_.write_blocks(sb_.inode_table_start,
                                  MsgBuffer::from_bytes(table), true);
  }
  block_rotor_ = sb_.data_start;
  mounted_ = true;
  cache_.set_device_limit(sb_.total_blocks);
}

Task<void> SimpleFs::mount() {
  MsgBuffer raw = co_await client_.read_blocks(0, 1, true);
  auto bytes = raw.to_bytes();
  ByteReader r(bytes);
  sb_ = SuperBlock::parse(r);
  block_rotor_ = sb_.data_start;
  mounted_ = true;
  cache_.set_device_limit(sb_.total_blocks);
}

// --- inode table -------------------------------------------------------------

Task<DiskInode> SimpleFs::load_inode(std::uint32_t ino) {
  InodeLocation loc = locate_inode(sb_, ino);
  auto block = co_await cache_.get(loc.block, true);
  auto bytes = block->bytes();
  ByteReader r({bytes.data() + loc.offset, kInodeSize});
  co_return DiskInode::parse(r);
}

Task<void> SimpleFs::store_inode(std::uint32_t ino, const DiskInode& inode) {
  InodeLocation loc = locate_inode(sb_, ino);
  auto block = co_await cache_.get(loc.block, true);
  std::vector<std::byte> bytes;
  ByteWriter w(bytes);
  inode.serialize(w);
  auto span = block->writable_bytes();
  std::memcpy(span.data() + loc.offset, bytes.data(), kInodeSize);
  cache_.mark_dirty(block);
}

// --- bitmaps ------------------------------------------------------------------

Task<void> SimpleFs::set_bitmap_bit(std::uint32_t bitmap_start,
                                    std::uint64_t index, bool value) {
  std::uint64_t block_index = index / (kBlockSize * 8);
  std::uint64_t bit_in_block = index % (kBlockSize * 8);
  auto block = co_await cache_.get(bitmap_start + block_index, true);
  bitmap_set(block->writable_bytes(), bit_in_block, value);
  cache_.mark_dirty(block);
}

Task<std::uint32_t> SimpleFs::alloc_block() {
  std::uint64_t bits_per_block = kBlockSize * 8;
  // Scan bitmap blocks starting at the rotor position.
  for (std::uint32_t pass = 0; pass < sb_.block_bitmap_blocks + 1; ++pass) {
    std::uint64_t probe = block_rotor_ + std::uint64_t(pass) * bits_per_block;
    std::uint64_t block_index = (probe / bits_per_block) %
                                sb_.block_bitmap_blocks;
    auto block = co_await cache_.get(sb_.block_bitmap_start + block_index,
                                     true);
    auto bytes = block->bytes();
    std::uint64_t base = block_index * bits_per_block;
    std::uint64_t limit =
        std::min<std::uint64_t>(bits_per_block, sb_.total_blocks - base);
    std::uint64_t start = pass == 0 ? block_rotor_ % bits_per_block : 0;
    auto found = bitmap_find_clear(bytes, start, limit);
    if (!found) continue;
    std::uint64_t lbn = base + *found;
    if (lbn < sb_.data_start || lbn >= sb_.total_blocks) {
      // Bits below data_start are pre-set at mkfs; this is a corrupt map.
      continue;
    }
    bitmap_set(block->writable_bytes(), *found, true);
    cache_.mark_dirty(block);
    block_rotor_ = lbn + 1;
    co_return std::uint32_t(lbn);
  }
  NC_WARN("fs", "alloc_block: volume full");
  co_return kInvalidBlock;
}

Task<void> SimpleFs::free_block(std::uint32_t lbn) {
  if (lbn == kInvalidBlock) co_return;
  co_await set_bitmap_bit(sb_.block_bitmap_start, lbn, false);
}

Task<std::uint32_t> SimpleFs::alloc_inode() {
  for (std::uint32_t bi = 0; bi < sb_.inode_bitmap_blocks; ++bi) {
    auto block = co_await cache_.get(sb_.inode_bitmap_start + bi, true);
    auto bytes = block->bytes();
    std::uint64_t base = std::uint64_t(bi) * kBlockSize * 8;
    std::uint64_t limit =
        std::min<std::uint64_t>(kBlockSize * 8, sb_.inode_count - base);
    auto found = bitmap_find_clear(bytes, 0, limit);
    if (!found) continue;
    bitmap_set(block->writable_bytes(), *found, true);
    cache_.mark_dirty(block);
    co_return std::uint32_t(base + *found);
  }
  co_return 0;
}

Task<void> SimpleFs::free_inode(std::uint32_t ino) {
  co_await set_bitmap_bit(sb_.inode_bitmap_start, ino, false);
}

// --- block mapping -----------------------------------------------------------

Task<std::uint32_t> SimpleFs::read_ptr(std::uint32_t block_lbn,
                                       std::size_t slot) {
  auto block = co_await cache_.get(block_lbn, true);
  // Gather just the one pointer, not the whole block.
  std::array<std::byte, 4> raw;
  block->data.slice(slot * 4, 4).copy_out(raw);
  ByteReader r(raw);
  co_return r.u32();
}

Task<void> SimpleFs::write_ptr(std::uint32_t block_lbn, std::size_t slot,
                               std::uint32_t value) {
  auto block = co_await cache_.get(block_lbn, true);
  auto span = block->writable_bytes();
  span[slot * 4] = std::byte(value >> 24);
  span[slot * 4 + 1] = std::byte(value >> 16);
  span[slot * 4 + 2] = std::byte(value >> 8);
  span[slot * 4 + 3] = std::byte(value);
  cache_.mark_dirty(block);
}

Task<std::uint32_t> SimpleFs::bmap(const DiskInode& inode,
                                   std::uint64_t fb) {
  if (fb < kDirectBlocks) co_return inode.direct[fb];
  fb -= kDirectBlocks;
  if (fb < kPointersPerBlock) {
    if (inode.indirect == kInvalidBlock) co_return kInvalidBlock;
    co_return co_await read_ptr(inode.indirect, fb);
  }
  fb -= kPointersPerBlock;
  if (fb < kPointersPerBlock * kPointersPerBlock) {
    if (inode.double_indirect == kInvalidBlock) co_return kInvalidBlock;
    std::uint32_t l1 =
        co_await read_ptr(inode.double_indirect, fb / kPointersPerBlock);
    if (l1 == kInvalidBlock) co_return kInvalidBlock;
    co_return co_await read_ptr(l1, fb % kPointersPerBlock);
  }
  co_return kInvalidBlock;
}

Task<std::uint32_t> SimpleFs::bmap_alloc(DiskInode& inode, std::uint64_t fb) {
  if (fb < kDirectBlocks) {
    if (inode.direct[fb] == kInvalidBlock) {
      inode.direct[fb] = co_await alloc_block();
      if (inode.direct[fb] != kInvalidBlock) ++inode.block_count;
    }
    co_return inode.direct[fb];
  }
  fb -= kDirectBlocks;
  if (fb < kPointersPerBlock) {
    if (inode.indirect == kInvalidBlock) {
      inode.indirect = co_await alloc_block();
      if (inode.indirect == kInvalidBlock) co_return kInvalidBlock;
      // Fresh indirect blocks must read as all-zero pointers.
      auto block = co_await cache_.get_for_overwrite(inode.indirect, true);
      auto span = block->writable_bytes();
      std::memset(span.data(), 0, span.size());
      cache_.mark_dirty(block);
    }
    std::uint32_t ptr = co_await read_ptr(inode.indirect, fb);
    if (ptr == kInvalidBlock) {
      ptr = co_await alloc_block();
      if (ptr == kInvalidBlock) co_return kInvalidBlock;
      co_await write_ptr(inode.indirect, fb, ptr);
      ++inode.block_count;
    }
    co_return ptr;
  }
  fb -= kPointersPerBlock;
  if (fb >= kPointersPerBlock * kPointersPerBlock) co_return kInvalidBlock;
  if (inode.double_indirect == kInvalidBlock) {
    inode.double_indirect = co_await alloc_block();
    if (inode.double_indirect == kInvalidBlock) co_return kInvalidBlock;
    auto block =
        co_await cache_.get_for_overwrite(inode.double_indirect, true);
    auto span = block->writable_bytes();
    std::memset(span.data(), 0, span.size());
    cache_.mark_dirty(block);
  }
  std::size_t l1_slot = fb / kPointersPerBlock;
  std::uint32_t l1 = co_await read_ptr(inode.double_indirect, l1_slot);
  if (l1 == kInvalidBlock) {
    l1 = co_await alloc_block();
    if (l1 == kInvalidBlock) co_return kInvalidBlock;
    auto block = co_await cache_.get_for_overwrite(l1, true);
    auto span = block->writable_bytes();
    std::memset(span.data(), 0, span.size());
    cache_.mark_dirty(block);
    co_await write_ptr(inode.double_indirect, l1_slot, l1);
  }
  std::uint32_t ptr = co_await read_ptr(l1, fb % kPointersPerBlock);
  if (ptr == kInvalidBlock) {
    ptr = co_await alloc_block();
    if (ptr == kInvalidBlock) co_return kInvalidBlock;
    co_await write_ptr(l1, fb % kPointersPerBlock, ptr);
    ++inode.block_count;
  }
  co_return ptr;
}

// --- public operations --------------------------------------------------------

Task<FileAttr> SimpleFs::getattr(std::uint32_t ino) {
  DiskInode in = co_await load_inode(ino);
  co_return FileAttr{in.type, in.size, in.nlink, in.block_count};
}

Task<std::optional<std::uint32_t>> SimpleFs::lookup(std::uint32_t dir_ino,
                                                    std::string_view name) {
  ++stats_.lookups;
  DiskInode dir = co_await load_inode(dir_ino);
  if (dir.type != InodeType::Directory) co_return std::nullopt;
  std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < nblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(dir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      Dirent d = Dirent::parse(r);
      if (d.ino != 0 && d.name == name) co_return d.ino;
    }
  }
  co_return std::nullopt;
}

Task<std::vector<Dirent>> SimpleFs::readdir(std::uint32_t dir_ino) {
  DiskInode dir = co_await load_inode(dir_ino);
  std::vector<Dirent> out;
  if (dir.type != InodeType::Directory) co_return out;
  std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < nblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(dir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      Dirent d = Dirent::parse(r);
      if (d.ino != 0) out.push_back(std::move(d));
    }
  }
  co_return out;
}

Task<std::uint32_t> SimpleFs::create(std::uint32_t dir_ino,
                                     std::string_view name, InodeType type) {
  if (name.empty() || name.size() > kMaxNameLen) co_return 0;
  auto existing = co_await lookup(dir_ino, name);
  if (existing) co_return 0;

  std::uint32_t ino = co_await alloc_inode();
  if (ino == 0) co_return 0;

  DiskInode node;
  node.type = type;
  node.nlink = type == InodeType::Directory ? 2 : 1;
  co_await store_inode(ino, node);

  // Insert the dirent: first empty slot, else extend the directory.
  DiskInode dir = co_await load_inode(dir_ino);
  std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  Dirent ent;
  ent.ino = ino;
  ent.type = type;
  ent.name = std::string(name);
  std::vector<std::byte> ent_bytes;
  ByteWriter w(ent_bytes);
  ent.serialize(w);

  for (std::uint64_t fb = 0; fb < nblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(dir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      if (Dirent::parse(r).ino == 0) {
        auto span = block->writable_bytes();
        std::memcpy(span.data() + slot * kDirentSize, ent_bytes.data(),
                    kDirentSize);
        cache_.mark_dirty(block);
        ++stats_.creates;
        co_return ino;
      }
    }
  }
  // Extend the directory by one block.
  std::uint32_t lbn = co_await bmap_alloc(dir, nblocks);
  if (lbn == kInvalidBlock) {
    co_await free_inode(ino);
    co_return 0;
  }
  auto block = co_await cache_.get_for_overwrite(lbn, true);
  auto span = block->writable_bytes();
  std::memset(span.data(), 0, span.size());
  std::memcpy(span.data(), ent_bytes.data(), kDirentSize);
  cache_.mark_dirty(block);
  dir.size = (nblocks + 1) * kBlockSize;
  co_await store_inode(dir_ino, dir);
  ++stats_.creates;
  co_return ino;
}

Task<void> SimpleFs::release_blocks(DiskInode& inode) {
  std::uint64_t nblocks = (inode.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < nblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(inode, fb);
    if (lbn != kInvalidBlock) co_await free_block(lbn);
  }
  if (inode.indirect != kInvalidBlock) co_await free_block(inode.indirect);
  if (inode.double_indirect != kInvalidBlock) {
    for (std::size_t i = 0; i < kPointersPerBlock; ++i) {
      std::uint32_t l1 = co_await read_ptr(inode.double_indirect, i);
      if (l1 != kInvalidBlock) co_await free_block(l1);
    }
    co_await free_block(inode.double_indirect);
  }
  inode.direct.fill(kInvalidBlock);
  inode.indirect = kInvalidBlock;
  inode.double_indirect = kInvalidBlock;
  inode.block_count = 0;
  inode.size = 0;
}

Task<bool> SimpleFs::remove(std::uint32_t dir_ino, std::string_view name) {
  DiskInode dir = co_await load_inode(dir_ino);
  std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < nblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(dir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      Dirent d = Dirent::parse(r);
      if (d.ino == 0 || d.name != name) continue;

      DiskInode victim = co_await load_inode(d.ino);
      co_await release_blocks(victim);
      victim.type = InodeType::Free;
      victim.nlink = 0;
      co_await store_inode(d.ino, victim);
      co_await free_inode(d.ino);

      auto span = block->writable_bytes();
      std::memset(span.data() + slot * kDirentSize, 0, kDirentSize);
      cache_.mark_dirty(block);
      ++stats_.removes;
      co_return true;
    }
  }
  co_return false;
}

Task<bool> SimpleFs::rename(std::uint32_t src_dir, std::string_view src_name,
                            std::uint32_t dst_dir, std::string_view dst_name) {
  if (dst_name.empty() || dst_name.size() > kMaxNameLen) co_return false;
  auto src = co_await lookup(src_dir, src_name);
  if (!src) co_return false;
  if (co_await lookup(dst_dir, dst_name)) co_return false;

  // Insert the new entry first (may need a fresh directory block), then
  // clear the old slot; a failure in between leaves a hard link, never a
  // lost file.
  DiskInode moved = co_await load_inode(*src);
  Dirent ent;
  ent.ino = *src;
  ent.type = moved.type;
  ent.name = std::string(dst_name);
  std::vector<std::byte> ent_bytes;
  ByteWriter w(ent_bytes);
  ent.serialize(w);

  DiskInode dir = co_await load_inode(dst_dir);
  if (dir.type != InodeType::Directory) co_return false;
  bool inserted = false;
  std::uint64_t nblocks = (dir.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < nblocks && !inserted; ++fb) {
    std::uint32_t lbn = co_await bmap(dir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      if (Dirent::parse(r).ino == 0) {
        auto span = block->writable_bytes();
        std::memcpy(span.data() + slot * kDirentSize, ent_bytes.data(),
                    kDirentSize);
        cache_.mark_dirty(block);
        inserted = true;
        break;
      }
    }
  }
  if (!inserted) {
    std::uint32_t lbn = co_await bmap_alloc(dir, nblocks);
    if (lbn == kInvalidBlock) co_return false;
    auto block = co_await cache_.get_for_overwrite(lbn, true);
    auto span = block->writable_bytes();
    std::memset(span.data(), 0, span.size());
    std::memcpy(span.data(), ent_bytes.data(), kDirentSize);
    cache_.mark_dirty(block);
    dir.size = (nblocks + 1) * kBlockSize;
    co_await store_inode(dst_dir, dir);
  }

  // Clear the old slot without releasing the inode.
  DiskInode sdir = co_await load_inode(src_dir);
  std::uint64_t sblocks = (sdir.size + kBlockSize - 1) / kBlockSize;
  for (std::uint64_t fb = 0; fb < sblocks; ++fb) {
    std::uint32_t lbn = co_await bmap(sdir, fb);
    if (lbn == kInvalidBlock) continue;
    auto block = co_await cache_.get(lbn, true);
    auto bytes = block->bytes();
    for (std::size_t slot = 0; slot < kDirentsPerBlock; ++slot) {
      ByteReader r({bytes.data() + slot * kDirentSize, kDirentSize});
      Dirent d = Dirent::parse(r);
      if (d.ino == *src && d.name == src_name) {
        auto span = block->writable_bytes();
        std::memset(span.data() + slot * kDirentSize, 0, kDirentSize);
        cache_.mark_dirty(block);
        co_return true;
      }
    }
  }
  co_return false;  // old slot vanished: should be unreachable
}

Task<netbuf::MsgBuffer> SimpleFs::read(std::uint32_t ino, std::uint64_t off,
                                       std::uint32_t len) {
  ++stats_.reads;
  DiskInode in = co_await load_inode(ino);
  if (off >= in.size) co_return MsgBuffer{};
  len = std::uint32_t(std::min<std::uint64_t>(len, in.size - off));
  if (len == 0) co_return MsgBuffer{};

  std::uint64_t first_fb = off / kBlockSize;
  std::uint64_t last_fb = (off + len - 1) / kBlockSize;

  // File-aware read-ahead (§5.4: the window is tuned so the average disk
  // request matches the NFS request size): extend the mapped range by the
  // window, clamped to EOF, so prefetching never strays into blocks that
  // belong to other files or to metadata.
  std::uint64_t eof_fb = (in.size - 1) / kBlockSize;
  std::uint64_t ext_fb =
      std::min<std::uint64_t>(last_fb + cache_.readahead(), eof_fb);

  std::vector<std::uint32_t> lbns;
  lbns.reserve(ext_fb - first_fb + 1);
  for (std::uint64_t fb = first_fb; fb <= ext_fb; ++fb) {
    lbns.push_back(co_await bmap(in, fb));
  }
  std::size_t needed = std::size_t(last_fb - first_fb + 1);

  std::vector<BufferCache::BlockPtr> blocks(lbns.size());
  std::size_t i = 0;
  while (i < lbns.size()) {
    if (lbns[i] == kInvalidBlock) {
      blocks[i] = nullptr;  // hole: zeros
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < lbns.size() && lbns[j] == lbns[j - 1] + 1) ++j;
    std::uint32_t required = std::uint32_t(
        i < needed ? std::min(j, needed) - i : 0);
    auto run = co_await cache_.get_range(lbns[i], std::uint32_t(j - i), false,
                                         required);
    for (std::size_t k = 0; k < run.size(); ++k) blocks[i + k] = run[k];
    i = j;
  }
  blocks.resize(needed);

  MsgBuffer out;
  std::uint64_t pos = off;
  std::uint32_t remaining = len;
  for (std::size_t b = 0; b < blocks.size() && remaining > 0; ++b) {
    std::uint64_t block_start = (first_fb + b) * kBlockSize;
    std::uint32_t in_off = std::uint32_t(pos - block_start);
    std::uint32_t take =
        std::min<std::uint32_t>(remaining, std::uint32_t(kBlockSize - in_off));
    if (blocks[b]) {
      out.append(blocks[b]->data.slice(in_off, take));
    } else {
      out.append(MsgBuffer::junk(take));  // hole reads as filler
    }
    pos += take;
    remaining -= take;
  }
  stats_.read_bytes += out.size();
  co_return out;
}

Task<std::uint32_t> SimpleFs::write(std::uint32_t ino, std::uint64_t off,
                                    MsgBuffer data) {
  ++stats_.writes;
  if (data.empty()) co_return 0;
  if (off + data.size() > kMaxFileSize) co_return 0;
  DiskInode in = co_await load_inode(ino);

  std::uint64_t end = off + data.size();
  std::uint64_t first_fb = off / kBlockSize;
  std::uint64_t last_fb = (end - 1) / kBlockSize;

  std::uint64_t pos = off;
  std::size_t consumed = 0;
  for (std::uint64_t fb = first_fb; fb <= last_fb; ++fb) {
    std::uint32_t lbn = co_await bmap_alloc(in, fb);
    if (lbn == kInvalidBlock) break;  // out of space: partial write

    std::uint64_t block_start = fb * kBlockSize;
    std::uint32_t in_off = std::uint32_t(pos - block_start);
    std::uint32_t take = std::uint32_t(
        std::min<std::uint64_t>(kBlockSize - in_off, end - pos));

    bool whole = in_off == 0 && take == kBlockSize;
    BufferCache::BlockPtr block;
    if (whole || block_start >= in.size) {
      // Full overwrite, or writing past EOF (no old data to preserve).
      block = co_await cache_.get_for_overwrite(lbn, false);
    } else {
      block = co_await cache_.get(lbn, false);
    }

    MsgBuffer incoming = data.slice(consumed, take);
    if (whole) {
      block->data = std::move(incoming);
    } else {
      // Read-modify-write splice around [in_off, in_off+take).
      MsgBuffer merged;
      if (in_off > 0) merged.append(block->data.slice(0, in_off));
      merged.append(std::move(incoming));
      std::uint32_t tail = std::uint32_t(kBlockSize) - in_off - take;
      if (tail > 0) {
        if (block->data.size() >= kBlockSize) {
          merged.append(block->data.slice(in_off + take, tail));
        } else {
          merged.append(MsgBuffer::junk(tail));
        }
      }
      block->data = std::move(merged);
    }
    cache_.mark_dirty(block);
    pos += take;
    consumed += take;
  }

  if (pos > in.size) in.size = pos;
  co_await store_inode(ino, in);
  stats_.write_bytes += consumed;
  co_return std::uint32_t(consumed);
}

Task<bool> SimpleFs::truncate(std::uint32_t ino, std::uint64_t new_size) {
  DiskInode in = co_await load_inode(ino);
  if (new_size == 0) {
    co_await release_blocks(in);
  } else if (new_size < in.size) {
    // Free whole blocks past the new end and clear their pointers so a
    // later regrow does not resurrect stale block numbers.
    std::uint64_t keep = (new_size + kBlockSize - 1) / kBlockSize;
    std::uint64_t had = (in.size + kBlockSize - 1) / kBlockSize;
    for (std::uint64_t fb = keep; fb < had; ++fb) {
      std::uint32_t lbn = co_await bmap(in, fb);
      if (lbn == kInvalidBlock) continue;
      co_await free_block(lbn);
      --in.block_count;
      if (fb < kDirectBlocks) {
        in.direct[fb] = kInvalidBlock;
      } else if (fb - kDirectBlocks < kPointersPerBlock) {
        co_await write_ptr(in.indirect, fb - kDirectBlocks, kInvalidBlock);
      } else {
        std::uint64_t di = fb - kDirectBlocks - kPointersPerBlock;
        std::uint32_t l1 =
            co_await read_ptr(in.double_indirect, di / kPointersPerBlock);
        if (l1 != kInvalidBlock) {
          co_await write_ptr(l1, di % kPointersPerBlock, kInvalidBlock);
        }
      }
    }
  }
  in.size = new_size;
  co_await store_inode(ino, in);
  co_return true;
}

Task<void> SimpleFs::sync() { co_await cache_.flush_all(); }

Task<std::vector<std::uint32_t>> SimpleFs::map_range(std::uint32_t ino,
                                                     std::uint64_t off,
                                                     std::uint32_t len) {
  std::vector<std::uint32_t> lbns;
  if (len == 0) co_return lbns;
  DiskInode in = co_await load_inode(ino);
  std::uint64_t end = std::min<std::uint64_t>(off + len, in.size);
  if (off >= end) co_return lbns;
  for (std::uint64_t fb = off / kBlockSize; fb <= (end - 1) / kBlockSize;
       ++fb) {
    std::uint32_t lbn = co_await bmap(in, fb);
    if (lbn != kInvalidBlock) lbns.push_back(lbn);
  }
  co_return lbns;
}

}  // namespace ncache::fs
