// Canonical topology shapes. Every testbed, bench and fault plan in the
// repo builds one of these (or describes its own graph with
// TopologyBuilder / Topology::parse — the presets are convenience, not a
// separate mechanism).
#pragma once

#include "topo/topology.h"

namespace ncache::topo::presets {

/// The paper's 4-node testbed (§5.2): one switch, one storage target, one
/// app server with `server_nics` NICs (1 for Fig 5a, 2 for Fig 5b),
/// `client_count` clients. Node ids: switch0, storage0, server0,
/// client0..
Topology single_server(int server_nics = 1, int client_count = 2);

/// The M×N×1 scale-out cluster: one switch, one storage target, a load
/// balancer fronting `server_count` replicas, `client_count` clients.
/// Node ids: switch0, storage0, lb0, server0.., client0..
Topology cluster(int server_count = 2, int client_count = 2);

/// `rack_count` racks, each a switch with one NCache server and
/// `clients_per_rack` clients, all trunked to a core switch that holds
/// the storage target. No balancer: each client mounts its rack-local
/// server directly and the servers peer cooperatively. One event-loop
/// domain per switch, so this is the shape the partitioned engine runs
/// (set WorldConfig::partitioned). `server_cores` > 1 marks
/// every server SMP (cores= attribute). Node ids: core0, storage0,
/// rack0.., server0.., client0.. (clients numbered across racks).
Topology cluster_racks(int rack_count = 2, int clients_per_rack = 2,
                       unsigned server_cores = 1);

/// Two racks joined by a WAN trunk — the shape the bespoke constructors
/// could not express. Clients sit on rack_a; the server and storage on
/// rack_b; the trunk carries the given profile (defaults: 200 Mb/s,
/// 5 ms, lossless). Node ids: rack_a, rack_b, storage0, server0,
/// client0..
Topology two_racks_wan(int client_count = 2,
                       std::uint64_t wan_bandwidth_bps = 200'000'000,
                       sim::Duration wan_latency_ns = 5 * sim::kMillisecond,
                       double wan_loss = 0.0);

}  // namespace ncache::topo::presets
