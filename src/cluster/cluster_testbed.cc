#include "cluster/cluster_testbed.h"

namespace ncache::cluster {

topo::WorldConfig ClusterTestbed::world_config(const ClusterConfig& config) {
  topo::WorldConfig wc;
  wc.mode = config.mode;
  wc.volume_blocks = config.volume_blocks;
  wc.inode_count = config.inode_count;
  wc.fs_cache_blocks = config.fs_cache_blocks;
  wc.fs_readahead_blocks = config.fs_readahead_blocks;
  wc.ncache_budget_bytes = config.ncache_budget_bytes;
  wc.nfs_daemons = config.nfs_daemons;
  wc.peering = config.peering;
  wc.routing = config.routing;
  wc.overload = config.overload;
  wc.costs = config.costs;
  return wc;
}

ClusterTestbed::ClusterTestbed(ClusterConfig config)
    : config_(config),
      world_(topo::presets::cluster(config.server_count, config.client_count),
             world_config(config)) {}

std::uint64_t ClusterTestbed::total_target_reads() const {
  return world_.target().stats().reads;
}

std::uint64_t ClusterTestbed::total_peer_hits() const {
  std::uint64_t total = 0;
  for (int i = 0; i < world_.server_count(); ++i) {
    total += world_.server(i).peers->stats().peer_hits;
  }
  return total;
}

std::uint64_t ClusterTestbed::total_peer_misses() const {
  std::uint64_t total = 0;
  for (int i = 0; i < world_.server_count(); ++i) {
    total += world_.server(i).peers->stats().peer_misses;
  }
  return total;
}

}  // namespace ncache::cluster
