#include "fs/buffer_cache.h"

#include <algorithm>

#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "fs/layout.h"

namespace ncache::fs {

using netbuf::MsgBuffer;

std::span<std::byte> BufferCache::Block::writable_bytes() {
  // Fast path: a single exclusively-owned physical segment.
  if (data.segments().size() == 1) {
    if (const auto* b = std::get_if<netbuf::ByteSeg>(&data.segments()[0])) {
      if (b->buf.use_count() == 1 && b->off == 0 &&
          b->len == b->buf->size()) {
        return b->buf->data();
      }
    }
  }
  // Materialize a private physical copy (metadata manipulation path).
  auto buf = netbuf::make_buffer(kBlockSize, 0);
  auto flat = data.to_bytes();
  flat.resize(kBlockSize);
  buf->append(flat);
  data = MsgBuffer::wrap(std::move(buf));
  const auto* b = std::get_if<netbuf::ByteSeg>(&data.segments()[0]);
  return b->buf->data();
}

BufferCache::BufferCache(sim::EventLoop& loop, iscsi::BlockClient& client,
                         std::size_t capacity_blocks,
                         std::size_t readahead_blocks)
    : loop_(loop),
      client_(client),
      capacity_(capacity_blocks),
      readahead_(readahead_blocks) {}

void BufferCache::touch(Block& b) { lru_.move_to_back(b); }

BufferCache::BlockPtr BufferCache::install(std::uint64_t lbn,
                                           MsgBuffer content, bool metadata) {
  auto it = map_.find(lbn);
  if (it != map_.end()) {
    // Raced with another installer (e.g. overlapping run fetch): keep the
    // existing block, which may already be dirty.
    return it->second;
  }
  auto block = std::make_shared<Block>();
  block->lbn = lbn;
  block->data = std::move(content);
  block->metadata = metadata;
  block->valid = true;
  map_[lbn] = block;
  lru_.push_back(*block);
  return block;
}

Task<void> BufferCache::ensure_space(std::size_t incoming) {
  while (map_.size() + incoming > capacity_) {
    // Pass 1: clean, unreferenced blocks from the LRU head.
    Block* victim = nullptr;
    for (auto& b : lru_) {
      auto it = map_.find(b.lbn);
      if (!b.dirty && it->second.use_count() == 1) {
        victim = &b;
        break;
      }
    }
    if (victim) {
      ++stats_.evictions;
      lru_.remove(*victim);
      map_.erase(victim->lbn);
      continue;
    }
    // Pass 2: flush the least-recently-used dirty, unreferenced block.
    Block* dirty = nullptr;
    for (auto& b : lru_) {
      auto it = map_.find(b.lbn);
      if (b.dirty && it->second.use_count() == 1) {
        dirty = &b;
        break;
      }
    }
    if (!dirty) {
      // Everything is pinned: allow transient overflow rather than
      // deadlocking the daemons.
      NC_DEBUG("bufcache", "all blocks pinned; overflowing capacity");
      co_return;
    }
    BlockPtr keep = map_[dirty->lbn];
    co_await flush_block(keep);
    if (keep->linked() && keep.use_count() == 2) {  // map + keep
      ++stats_.evictions;
      lru_.remove(*keep);
      map_.erase(keep->lbn);
    }
  }
}

Task<void> BufferCache::fetch_run(std::uint64_t lbn, std::uint32_t count,
                                  bool metadata) {
  MsgBuffer chain = co_await client_.read_blocks(lbn, count, metadata);
  if (chain.size() != std::size_t(count) * kBlockSize) {
    throw std::runtime_error("BufferCache: short read from block client");
  }
  co_await ensure_space(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    install(lbn + i, chain.slice(std::size_t(i) * kBlockSize, kBlockSize),
            metadata);
    auto waiters = inflight_.find(lbn + i);
    if (waiters != inflight_.end()) {
      auto list = std::move(waiters->second);
      inflight_.erase(waiters);
      for (auto& w : list) w();
    }
  }
}

Task<BufferCache::BlockPtr> BufferCache::get(std::uint64_t lbn,
                                             bool metadata) {
  auto blocks = co_await get_range(lbn, 1, metadata);
  co_return blocks.at(0);
}

Task<std::vector<BufferCache::BlockPtr>> BufferCache::get_range(
    std::uint64_t lbn, std::uint32_t count, bool metadata,
    std::uint32_t required) {
  if (required > count) required = count;  // kAllRequired -> count
  std::uint32_t fetch_count = count;
  if (lbn + fetch_count > device_blocks_) {
    throw std::out_of_range("BufferCache: read beyond device");
  }

  struct Run {
    std::uint64_t start;
    std::uint32_t len;
  };
  std::vector<Run> runs;
  std::vector<std::uint64_t> waits;  // blocks someone else is fetching
  for (std::uint32_t i = 0; i < fetch_count; ++i) {
    std::uint64_t b = lbn + i;
    bool cached = map_.contains(b);
    bool inflight = inflight_.contains(b);
    if (cached) {
      if (i < required) ++stats_.hits;
      continue;
    }
    if (inflight) {
      if (i < required) waits.push_back(b);  // only wait for required blocks
      continue;
    }
    if (i < required) {
      ++stats_.misses;
    } else {
      ++stats_.readahead_blocks;
    }
    inflight_[b];  // claim
    if (!runs.empty() && runs.back().start + runs.back().len == b) {
      ++runs.back().len;
    } else {
      runs.push_back(Run{b, 1});
    }
  }

  if (runs.size() == 1 && runs[0].len > 1) ++stats_.coalesced_reads;

  // Issue all runs; await them sequentially (they proceed concurrently on
  // the wire only if the client pipelines; ours serializes per await, which
  // is fine since runs are rare beyond one).
  for (const auto& r : runs) {
    co_await fetch_run(r.start, r.len, metadata);
  }
  // Wait for blocks someone else was already fetching.
  for (std::uint64_t b : waits) {
    if (map_.contains(b)) continue;
    AwaitCallback<bool> joined([this, b](auto resolve) {
      auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
      inflight_[b].push_back([r] { (*r)(true); });
    });
    co_await joined;
  }

  std::vector<BlockPtr> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BlockPtr block;
    // Under heavy pressure a freshly-installed block can be evicted by a
    // concurrent reader's ensure_space before we pin it here; refetch.
    // Holding the BlockPtrs already collected keeps them safe.
    for (int attempt = 0; attempt < 16 && !block; ++attempt) {
      auto it = map_.find(lbn + i);
      if (it != map_.end()) {
        block = it->second;
        break;
      }
      if (!inflight_.contains(lbn + i)) {
        inflight_[lbn + i];
        co_await fetch_run(lbn + i, 1, metadata);
      } else {
        std::uint64_t b = lbn + i;
        AwaitCallback<bool> joined([this, b](auto resolve) {
          auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
          inflight_[b].push_back([r] { (*r)(true); });
        });
        co_await joined;
      }
    }
    if (!block) {
      throw std::runtime_error("BufferCache: cache thrashing, block lost");
    }
    touch(*block);
    out.push_back(std::move(block));
  }
  co_return out;
}

Task<BufferCache::BlockPtr> BufferCache::get_for_overwrite(std::uint64_t lbn,
                                                           bool metadata) {
  auto it = map_.find(lbn);
  if (it != map_.end()) {
    ++stats_.hits;
    touch(*it->second);
    co_return it->second;
  }
  ++stats_.misses;
  co_await ensure_space(1);
  // Full overwrite: no read needed; content arrives via the caller.
  co_return install(lbn, MsgBuffer::junk(kBlockSize), metadata);
}

void BufferCache::mark_dirty(const BlockPtr& b) {
  b->dirty = true;
  touch(*b);
}

Task<void> BufferCache::flush_block(BlockPtr b) {
  if (!b->dirty) co_return;
  b->dirty = false;  // clear first; a racing write re-dirties
  ++stats_.writebacks;
  bool ok = co_await client_.write_blocks(b->lbn, b->data, b->metadata);
  if (!ok) {
    NC_WARN("bufcache", "writeback of lbn %llu failed",
            static_cast<unsigned long long>(b->lbn));
    b->dirty = true;
  }
}

Task<void> BufferCache::flush_all() {
  // Snapshot the dirty set, sort by LBN (elevator order — the disks then
  // see near-sequential writes), and keep a window of writes in flight so
  // flushing is bounded by the disk array, not by one round trip at a
  // time.
  std::vector<BlockPtr> dirty;
  for (auto& [lbn, b] : map_) {
    if (b->dirty) dirty.push_back(b);
  }
  std::sort(dirty.begin(), dirty.end(),
            [](const BlockPtr& a, const BlockPtr& b) { return a->lbn < b->lbn; });

  constexpr std::size_t kWindow = 16;
  std::size_t next = 0;
  std::size_t inflight = 0;
  std::vector<std::function<void()>> waiters;

  // Issue loop implemented with a completion callback so up to kWindow
  // writebacks overlap.
  while (next < dirty.size() || inflight > 0) {
    while (next < dirty.size() && inflight < kWindow) {
      BlockPtr b = dirty[next++];
      if (!b->dirty) continue;
      ++inflight;
      auto runner = [](BufferCache* self, BlockPtr blk,
                       std::size_t* in_flight) -> Task<void> {
        co_await self->flush_block(std::move(blk));
        --*in_flight;
      };
      runner(this, std::move(b), &inflight).detach(loop_.reaper());
    }
    if (inflight > 0) {
      co_await sim::sleep_for(loop_, 200 * sim::kMicrosecond);
    }
  }
}

Task<void> BufferCache::drop_all() {
  co_await flush_all();
  std::vector<BlockPtr> all;
  for (auto& [lbn, b] : map_) all.push_back(b);
  for (auto& b : all) {
    if (b.use_count() > 2) continue;  // externally pinned
    lru_.remove(*b);
    map_.erase(b->lbn);
  }
}

void BufferCache::discard_all() {
  for (auto& [lbn, b] : map_) {
    b->dirty = false;  // do NOT flush: the crash already lost these bytes
    b->valid = false;
    lru_.remove(*b);
  }
  map_.clear();
}

bool BufferCache::discard(std::uint64_t lbn) {
  auto it = map_.find(lbn);
  if (it == map_.end()) return false;
  BlockPtr b = it->second;
  b->dirty = false;  // do NOT flush: the target already holds fresher bytes
  b->valid = false;
  lru_.remove(*b);
  map_.erase(it);
  return true;
}

std::vector<std::uint64_t> BufferCache::cached_data_lbns() const {
  std::vector<std::uint64_t> out;
  out.reserve(map_.size());
  for (const auto& [lbn, b] : map_) {
    if (b->valid && !b->metadata) out.push_back(lbn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BufferCache::register_metrics(MetricRegistry& registry,
                                   const std::string& node) {
  registry.counter(node, "fscache.hits", &stats_.hits);
  registry.counter(node, "fscache.misses", &stats_.misses);
  registry.counter(node, "fscache.evictions", &stats_.evictions);
  registry.counter(node, "fscache.writebacks", &stats_.writebacks);
  registry.counter(node, "fscache.readahead_blocks", &stats_.readahead_blocks);
  registry.counter(node, "fscache.coalesced_reads", &stats_.coalesced_reads);
  registry.gauge(node, "fscache.resident_blocks",
                 [this] { return double(map_.size()); });
}

}  // namespace ncache::fs
