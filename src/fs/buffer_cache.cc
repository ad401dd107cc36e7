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

std::span<const std::byte> BufferCache::Block::view(
    std::array<std::byte, kBlockSize>& scratch) const {
  if (data.segments().size() == 1) {
    if (const auto* b = std::get_if<netbuf::ByteSeg>(&data.segments()[0])) {
      return b->view();
    }
  }
  auto out = std::span(scratch).first(data.size());
  data.copy_out(out);
  return out;
}

BufferCache::BufferCache(sim::EventLoop& loop, iscsi::BlockClient& client,
                         std::size_t capacity_blocks,
                         std::size_t readahead_blocks)
    : loop_(loop),
      client_(client),
      capacity_(capacity_blocks),
      readahead_(readahead_blocks) {}

void BufferCache::touch(Block& b) { lru_.move_to_back(b); }

void BufferCache::unmap(std::uint64_t lbn) {
  Slot* s = table_.find(lbn);
  s->block = nullptr;
  --resident_;
  if (!s->inflight) table_.erase(lbn);
}

BufferCache::BlockPtr BufferCache::install(std::uint64_t lbn,
                                           MsgBuffer content, bool metadata) {
  Slot& slot = table_[lbn];
  if (slot.block) {
    // Raced with another installer (e.g. overlapping run fetch): keep the
    // existing block, which may already be dirty.
    return slot.block;
  }
  auto block = std::make_shared<Block>();
  block->lbn = lbn;
  block->data = std::move(content);
  block->metadata = metadata;
  block->valid = true;
  slot.block = block;
  ++resident_;
  lru_.push_back(*block);
  return block;
}

Task<void> BufferCache::ensure_space(std::size_t incoming) {
  while (resident_ + incoming > capacity_) {
    // Pass 1: clean, unreferenced blocks from the LRU head.
    Block* victim = nullptr;
    for (auto& b : lru_) {
      if (!b.dirty && resident(b.lbn)->use_count() == 1) {
        victim = &b;
        break;
      }
    }
    if (victim) {
      ++stats_.evictions;
      lru_.remove(*victim);
      unmap(victim->lbn);
      continue;
    }
    // Pass 2: flush the least-recently-used dirty, unreferenced block.
    Block* dirty = nullptr;
    for (auto& b : lru_) {
      if (b.dirty && resident(b.lbn)->use_count() == 1) {
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
    BlockPtr keep = *resident(dirty->lbn);
    co_await flush_block(keep);
    if (keep->linked() && keep.use_count() == 2) {  // table + keep
      ++stats_.evictions;
      lru_.remove(*keep);
      unmap(keep->lbn);
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
    Slot* s = table_.find(lbn + i);
    if (s->inflight) {
      // Joiners may touch the table as they resume; take them out first.
      auto joiners = std::move(s->joiners);
      s->inflight = false;
      s->joiners.clear();
      for (auto& j : joiners) j();
    }
  }
}

void BufferCache::Join::await_suspend(std::coroutine_handle<> h) {
  Slot& s = cache.table_[lbn];
  s.inflight = true;
  s.joiners.emplace_back([h] { h.resume(); });
}

MaybeTask<BufferCache::BlockPtr> BufferCache::get(std::uint64_t lbn,
                                                  bool metadata) {
  if (lbn < device_blocks_) {
    if (const BlockPtr* b = resident(lbn)) {
      ++stats_.hits;
      touch(**b);
      return *b;
    }
  }
  return get_slow(lbn, metadata);
}

Task<BufferCache::BlockPtr> BufferCache::get_slow(std::uint64_t lbn,
                                                  bool metadata) {
  BlockPtr block;
  co_await get_range_slow(lbn, 1, metadata, kAllRequired, {&block, 1});
  co_return block;
}

MaybeTask<void> BufferCache::get_range(std::uint64_t lbn, std::uint32_t count,
                                       bool metadata, std::uint32_t required,
                                       std::span<BlockPtr> out) {
  if (lbn + count <= device_blocks_) {
    std::uint32_t i = 0;
    for (; i < count; ++i) {
      const BlockPtr* b = resident(lbn + i);
      if (!b) break;
      out[i] = *b;
    }
    if (i == count) {
      stats_.hits += std::min(required, count);
      for (const BlockPtr& b : out) touch(*b);
      return {};
    }
    // Drop the pins taken so far: eviction must see the same reference
    // counts the slow path would.
    for (std::uint32_t k = 0; k < i; ++k) out[k] = nullptr;
  }
  return get_range_slow(lbn, count, metadata, required, out);
}

Task<void> BufferCache::get_range_slow(std::uint64_t lbn, std::uint32_t count,
                                       bool metadata, std::uint32_t required,
                                       std::span<BlockPtr> out) {
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
    if (resident(b)) {
      if (i < required) ++stats_.hits;
      continue;
    }
    if (inflight(b)) {
      if (i < required) waits.push_back(b);  // only wait for required blocks
      continue;
    }
    if (i < required) {
      ++stats_.misses;
    } else {
      ++stats_.readahead_blocks;
    }
    claim(b);
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
    if (resident(b)) continue;
    co_await Join{*this, b};
  }

  for (std::uint32_t i = 0; i < count; ++i) {
    BlockPtr block;
    // Under heavy pressure a freshly-installed block can be evicted by a
    // concurrent reader's ensure_space before we pin it here; refetch.
    // Holding the BlockPtrs already collected keeps them safe.
    for (int attempt = 0; attempt < 16 && !block; ++attempt) {
      if (const BlockPtr* b = resident(lbn + i)) {
        block = *b;
        break;
      }
      if (!inflight(lbn + i)) {
        claim(lbn + i);
        co_await fetch_run(lbn + i, 1, metadata);
      } else {
        co_await Join{*this, lbn + i};
      }
    }
    if (!block) {
      throw std::runtime_error("BufferCache: cache thrashing, block lost");
    }
    touch(*block);
    out[i] = std::move(block);
  }
}

MaybeTask<BufferCache::BlockPtr> BufferCache::get_for_overwrite(
    std::uint64_t lbn, bool metadata) {
  if (const BlockPtr* b = resident(lbn)) {
    ++stats_.hits;
    touch(**b);
    return *b;
  }
  return overwrite_slow(lbn, metadata);
}

Task<BufferCache::BlockPtr> BufferCache::overwrite_slow(std::uint64_t lbn,
                                                        bool metadata) {
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
  table_.for_each([&](std::uint64_t, const Slot& s) {
    if (s.block && s.block->dirty) dirty.push_back(s.block);
  });
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
  table_.for_each([&](std::uint64_t, const Slot& s) {
    if (s.block) all.push_back(s.block);
  });
  for (auto& b : all) {
    if (b.use_count() > 2) continue;  // externally pinned
    lru_.remove(*b);
    unmap(b->lbn);
  }
}

void BufferCache::discard_all() {
  std::vector<std::uint64_t> lbns;
  table_.for_each([&](std::uint64_t lbn, const Slot& s) {
    if (!s.block) return;
    s.block->dirty = false;  // do NOT flush: the crash lost these bytes
    s.block->valid = false;
    lru_.remove(*s.block);
    lbns.push_back(lbn);
  });
  for (std::uint64_t lbn : lbns) unmap(lbn);
}

bool BufferCache::discard(std::uint64_t lbn) {
  const BlockPtr* p = resident(lbn);
  if (!p) return false;
  BlockPtr b = *p;
  b->dirty = false;  // do NOT flush: the target already holds fresher bytes
  b->valid = false;
  lru_.remove(*b);
  unmap(lbn);
  return true;
}

std::vector<std::uint64_t> BufferCache::cached_data_lbns() const {
  std::vector<std::uint64_t> out;
  out.reserve(resident_);
  table_.for_each([&](std::uint64_t lbn, const Slot& s) {
    if (s.block && s.block->valid && !s.block->metadata) out.push_back(lbn);
  });
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
                 [this] { return double(resident_); });
}

}  // namespace ncache::fs
