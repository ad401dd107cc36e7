// §6 extension: network-ready data at the storage server.
//
// The paper closes with "it is possible to take this idea one step further
// by organizing disk-resident data in a network-ready format ... so that
// even non-pass-through file servers can also benefit". This adapter
// applies the same NetCentricCache to the *iSCSI target*: read payloads
// are kept as wire-format chains on the storage server, so warm reads are
// sent with zero target-side copies (and no disk I/O), and cold reads pay
// a single disk-to-wire copy instead of the stock target's two.
//
// Combined with an NCache app server, the whole storage-to-client path
// then moves each byte exactly once — at the original disk DMA.
#pragma once

#include "core/net_centric_cache.h"
#include "iscsi/target.h"

namespace ncache::core {

class WireFormatTarget {
 public:
  WireFormatTarget(proto::NetworkStack& storage_stack,
                   NetCentricCache::Config config)
      : cache_(storage_stack.cpu(), storage_stack.costs(), config),
        cpu_(storage_stack.cpu()),
        costs_(storage_stack.costs()) {}

  /// Installs the lookup/insert hooks on the target.
  void attach(iscsi::IscsiTarget& target) {
    target.set_wire_cache(
        [this](std::uint64_t lbn) { return lookup(lbn); },
        [this](std::uint64_t lbn, netbuf::MsgBuffer chain) {
          insert(lbn, std::move(chain));
        });
  }

  NetCentricCache& cache() noexcept { return cache_; }

 private:
  std::optional<netbuf::MsgBuffer> lookup(std::uint64_t lbn) {
    const netbuf::MsgBuffer* chain =
        cache_.lookup(netbuf::CacheKey(netbuf::LbnKey{0, lbn}));
    if (!chain) return std::nullopt;
    return *chain;
  }

  void insert(std::uint64_t lbn, netbuf::MsgBuffer chain) {
    // Target-side chunks are always clean: the disk (or the in-flight
    // write that is about to land) holds the same bytes.
    cache_.insert_lbn(netbuf::LbnKey{0, lbn}, std::move(chain));
  }

  NetCentricCache cache_;
  sim::CpuModel& cpu_;
  const sim::CostModel& costs_;
};

}  // namespace ncache::core
