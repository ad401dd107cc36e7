// File-system buffer cache.
//
// LRU, write-back, block-granular, with a hard block-count budget — the
// budget is the §3.4/§4.1 double-buffering control: NCache configurations
// shrink this cache and let the (much larger, pinned) network-centric
// cache act as the second level.
//
// Reclamation follows the paper exactly: clean buffers first, then dirty
// buffers are flushed and reclaimed. Reads coalesce contiguous misses into
// single block-client commands and honour a read-ahead window, which is
// the "file system read ahead window was tuned so that the average disk
// request size matches the NFS request size" knob from §5.4.
//
// Block contents are MsgBuffers: physical bytes in the original
// configuration, key-bearing logical segments under NCache ("the retrieved
// block contains only a key and some junk data", §3.2), junk placeholders
// in the baseline. The cache itself never interprets them.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/intrusive_list.h"
#include "common/task.h"
#include "fs/layout.h"
#include "iscsi/initiator.h"
#include "netbuf/msg_buffer.h"
#include "sim/inline_callback.h"

namespace ncache {
class MetricRegistry;
}

namespace ncache::fs {

struct BufferCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t readahead_blocks = 0;
  std::uint64_t coalesced_reads = 0;
};

class BufferCache {
 public:
  struct Block : ListHook {
    std::uint64_t lbn = 0;
    netbuf::MsgBuffer data;  ///< exactly kBlockSize logical bytes
    bool dirty = false;
    bool metadata = false;
    bool valid = false;

    /// Mutable access to physical contents; materializes a private copy if
    /// the block is non-physical or shares its buffer (metadata only).
    std::span<std::byte> writable_bytes();
    /// Read-only view of the contents: in place when the block is one
    /// physical segment (as every block written through writable_bytes()
    /// is), else gathered into `scratch`.
    std::span<const std::byte> view(
        std::array<std::byte, kBlockSize>& scratch) const;
  };
  using BlockPtr = std::shared_ptr<Block>;

  BufferCache(sim::EventLoop& loop, iscsi::BlockClient& client,
              std::size_t capacity_blocks, std::size_t readahead_blocks = 0);

  /// Read-through get of one block: ready at once (no frame) when the
  /// block is resident.
  MaybeTask<BlockPtr> get(std::uint64_t lbn, bool metadata);

  /// Gets `count` consecutive blocks, coalescing misses into as few
  /// block-client reads as possible. Blocks beyond the first `required`
  /// are speculative read-ahead (fetched, counted, but callers typically
  /// only consume the required prefix). Read-ahead is driven by the file
  /// system (file-aware), never by raw adjacent LBNs — a raw-LBN window
  /// would sweep metadata blocks (e.g. a file's indirect block) into the
  /// regular-data path and misclassify them (§3.3).
  /// `required` == count by default; pass 0 for a pure prefetch call
  /// (every block counts as read-ahead, nobody blocks on stragglers).
  /// Fills `out` (out.size() == count) with the blocks; ready at once
  /// when all of them are resident.
  static constexpr std::uint32_t kAllRequired = ~0u;
  MaybeTask<void> get_range(std::uint64_t lbn, std::uint32_t count,
                            bool metadata, std::uint32_t required,
                            std::span<BlockPtr> out);

  /// Returns the block for a full overwrite without reading it first;
  /// ready at once when the block is resident.
  MaybeTask<BlockPtr> get_for_overwrite(std::uint64_t lbn, bool metadata);

  void mark_dirty(const BlockPtr& b);

  /// Writes one dirty block back (no-op when clean).
  Task<void> flush_block(BlockPtr b);
  /// Flushes every dirty block.
  Task<void> flush_all();
  /// Drops every clean block (testing). Dirty blocks are flushed first.
  Task<void> drop_all();
  /// Crash semantics: every block vanishes, dirty ones included — nothing
  /// is flushed. External holders keep their (now invalidated) pins.
  void discard_all();

  bool contains(std::uint64_t lbn) const { return resident(lbn) != nullptr; }

  /// The resident block, or nullptr — no I/O, no LRU touch (cluster peers
  /// probe each other's caches through this; a probe must not look like a
  /// local access).
  BlockPtr peek(std::uint64_t lbn) const {
    const BlockPtr* b = resident(lbn);
    return b ? *b : nullptr;
  }

  /// Forgets one block without flushing it, dirty or not (remote write
  /// invalidation: the writer's replica already put fresh bytes on the
  /// target, so whatever this cache holds is stale). Returns whether the
  /// block was resident. External holders keep their (stale) pins.
  bool discard(std::uint64_t lbn);

  /// Ascending LBNs of every resident, valid regular-data block. The
  /// anti-entropy repair pass enumerates these for digest exchange;
  /// metadata blocks never peer (§3.3) and are excluded.
  std::vector<std::uint64_t> cached_data_lbns() const;

  std::size_t size() const noexcept { return resident_; }
  std::size_t capacity() const noexcept { return capacity_; }
  void set_capacity(std::size_t blocks) noexcept { capacity_ = blocks; }
  void set_readahead(std::size_t blocks) noexcept { readahead_ = blocks; }
  std::size_t readahead() const noexcept { return readahead_; }
  /// Clamp for read-ahead: never fetch at or beyond this LBN.
  void set_device_limit(std::uint64_t blocks) noexcept {
    device_blocks_ = blocks;
  }

  const BufferCacheStats& stats() const noexcept { return stats_; }

  /// Publishes fscache.* counters under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  /// One LBN's state: its resident block and/or an in-flight read that
  /// later requesters join instead of issuing duplicate commands.
  struct Slot {
    BlockPtr block;
    bool inflight = false;
    std::vector<sim::InlineCallback> joiners;
  };
  /// Awaits the in-flight read of `lbn` (claiming it, as a join always
  /// has, if nobody holds the claim any more).
  struct Join {
    BufferCache& cache;
    std::uint64_t lbn;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  const BlockPtr* resident(std::uint64_t lbn) const {
    const Slot* s = table_.find(lbn);
    return s && s->block ? &s->block : nullptr;
  }
  bool inflight(std::uint64_t lbn) const {
    const Slot* s = table_.find(lbn);
    return s && s->inflight;
  }
  void claim(std::uint64_t lbn) { table_[lbn].inflight = true; }
  /// Forgets the resident block (the slot goes once nothing is in flight).
  void unmap(std::uint64_t lbn);

  Task<BlockPtr> get_slow(std::uint64_t lbn, bool metadata);
  Task<BlockPtr> overwrite_slow(std::uint64_t lbn, bool metadata);
  Task<void> get_range_slow(std::uint64_t lbn, std::uint32_t count,
                            bool metadata, std::uint32_t required,
                            std::span<BlockPtr> out);
  Task<void> ensure_space(std::size_t incoming);
  /// Fetches [lbn, lbn+count) from the client and installs the blocks.
  Task<void> fetch_run(std::uint64_t lbn, std::uint32_t count, bool metadata);
  BlockPtr install(std::uint64_t lbn, netbuf::MsgBuffer content,
                   bool metadata);
  void touch(Block& b);

  sim::EventLoop& loop_;
  iscsi::BlockClient& client_;
  std::size_t capacity_;
  std::size_t readahead_;
  std::uint64_t device_blocks_ = ~0ULL;

  FlatMap<std::uint64_t, Slot> table_;
  std::size_t resident_ = 0;  ///< slots holding a block
  IntrusiveList<Block> lru_;

  BufferCacheStats stats_;
};

}  // namespace ncache::fs
