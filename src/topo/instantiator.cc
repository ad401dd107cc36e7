#include "topo/instantiator.h"

#include <stdexcept>
#include <unordered_set>

#include "common/logging.h"
#include "netbuf/slab_cache.h"

namespace ncache::topo {

using proto::make_ipv4;

World::World(Topology topo, WorldConfig config)
    : topo_(std::move(topo)), config_(std::move(config)) {
  topo_.validate();
  if (config_.mode == core::PassMode::Baseline) config_.peering = false;

  if (config_.partitioned) build_domains();
  book_ = std::make_shared<proto::AddressBook>();
  // Partitioned note: the injector lives in domain 0; scheduled fault
  // plans are a single-loop feature (chaos suites run classic worlds).
  faults_ = std::make_unique<fault::FaultInjector>(
      engine_ ? *domain_loops_.front() : loop_, config_.fault_seed);

  build_fabric();
  build_hosts();
  build_roles();
  register_all_metrics();
}

void World::build_domains() {
  engine_ = std::make_unique<sim::ParallelEngine>(
      config_.threads == 0 ? 1 : config_.threads);
  for (const NodeSpec& n : topo_.nodes) {
    if (n.kind != NodeKind::Switch) continue;
    domain_loops_.push_back(std::make_unique<sim::EventLoop>());
    domain_slabs_.push_back(std::make_unique<netbuf::SlabCache>());
    switch_domain_.emplace(
        n.id, engine_->add_domain(*domain_loops_.back(), n.id));
  }
  // Every host must be rack-local: its models live on one domain loop, so
  // its NICs cannot cable into two different domains.
  for (const NodeSpec& n : topo_.nodes) {
    if (n.kind == NodeKind::Switch) continue;
    const EdgeSpec* first = nullptr;
    for (const EdgeSpec* e : topo_.edges_of(n.id)) {
      const std::string& sw = e->a == n.id ? e->b : e->a;
      if (!switch_domain_.count(sw)) continue;  // host-host edge: validated out
      if (!first) {
        first = e;
        continue;
      }
      const std::string& fsw = first->a == n.id ? first->b : first->a;
      if (fsw != sw) {
        throw TopologyError("partitioned world: host '" + n.id +
                            "' cables into switches '" + fsw + "' and '" +
                            sw + "' (hosts must be rack-local)");
      }
    }
  }
  // Conservative lookahead = the minimum trunk latency: nothing crosses a
  // domain boundary faster than the fastest trunk.
  sim::Duration lookahead = config_.costs.link_latency_ns;
  bool first_trunk = true;
  for (const EdgeSpec& e : topo_.edges) {
    if (!switch_domain_.count(e.a) || !switch_domain_.count(e.b)) continue;
    sim::Duration lat = e.link.latency_ns.value_or(config_.costs.link_latency_ns);
    lookahead = first_trunk ? lat : std::min(lookahead, lat);
    first_trunk = false;
  }
  engine_->set_lookahead(lookahead);
  // Each domain recycles buffers through its own slab while its window
  // runs — keeps the slabs single-threaded and their counters independent
  // of the worker-thread count.
  engine_->set_scope_hooks(
      [this](unsigned d) { netbuf::SlabCache::bind(domain_slabs_[d].get()); },
      [](unsigned) { netbuf::SlabCache::bind(nullptr); });
}

unsigned World::domain_of(std::string_view node_id) const {
  if (!engine_) {
    throw std::logic_error("World::domain_of: world is not partitioned");
  }
  auto sw = switch_domain_.find(std::string(node_id));
  if (sw != switch_domain_.end()) return sw->second;
  auto it = hosts_.find(std::string(node_id));
  if (it == hosts_.end()) {
    throw std::out_of_range("World: no node '" + std::string(node_id) + "'");
  }
  return switch_domain_.at(it->second.nic_switch.front()->name());
}

sim::EventLoop& World::loop_of(const NodeSpec& n) {
  if (!engine_) return loop_;
  for (const EdgeSpec* e : topo_.edges_of(n.id)) {
    const std::string& sw = e->a == n.id ? e->b : e->a;
    auto it = switch_domain_.find(sw);
    if (it != switch_domain_.end()) return *domain_loops_[it->second];
  }
  throw TopologyError("partitioned world: host '" + n.id +
                      "' has no switch edge");
}

World::Host& World::host(std::string_view id) {
  auto it = hosts_.find(std::string(id));
  if (it == hosts_.end()) {
    throw std::out_of_range("World: no host node '" + std::string(id) + "'");
  }
  return it->second;
}

Node& World::node(std::string_view id) { return *host(id).node; }

proto::EthernetSwitch& World::ether(std::string_view id) {
  auto it = switches_.find(std::string(id));
  if (it == switches_.end()) {
    throw std::out_of_range("World: no switch '" + std::string(id) + "'");
  }
  return *it->second;
}

sim::DuplexLink& World::cable(std::string_view host_id, std::size_t nic) {
  Host& h = host(host_id);
  proto::EthernetSwitch* sw = h.nic_switch.at(nic);
  return sw->cable_of(h.node->stack.nic(nic));
}

sim::DuplexLink& World::trunk(std::string_view a, std::string_view b) {
  return ether(a).trunk_of(ether(b));
}

fault::Partition World::make_partition(const std::vector<std::string>& side,
                                       bool one_way) {
  std::unordered_set<std::string> side_switches;
  std::vector<std::string> side_hosts;
  for (const std::string& id : side) {
    if (switches_.contains(id)) {
      side_switches.insert(id);
    } else {
      (void)host(id);  // throws std::out_of_range on unknown ids
      side_hosts.push_back(id);
    }
  }

  fault::Partition part;
  for (const std::string& id : side) {
    if (!part.name.empty()) part.name += '+';
    part.name += id;
  }
  if (one_way) part.name += " (one-way)";

  auto domain_loop = [this](const std::string& sw) -> sim::EventLoop* {
    return engine_ ? domain_loops_[switch_domain_.at(sw)].get() : nullptr;
  };

  // Trunks with exactly one endpoint inside the side cross the boundary.
  // build_fabric created each trunk via a.connect_switch(b), so a_to_b
  // transmits from e.a's switch (and lives on e.a's domain loop).
  for (const EdgeSpec& e : topo_.edges) {
    if (!switches_.contains(e.a) || !switches_.contains(e.b)) continue;
    bool a_in = side_switches.contains(e.a);
    bool b_in = side_switches.contains(e.b);
    if (a_in == b_in) continue;
    sim::DuplexLink& wire = trunk(e.a, e.b);
    if (a_in) {  // inbound direction is b -> a
      part.cuts.push_back({&wire.b_to_a, domain_loop(e.b)});
      if (!one_way) part.cuts.push_back({&wire.a_to_b, domain_loop(e.a)});
    } else {     // inbound direction is a -> b
      part.cuts.push_back({&wire.a_to_b, domain_loop(e.a)});
      if (!one_way) part.cuts.push_back({&wire.b_to_a, domain_loop(e.b)});
    }
  }

  // Listed hosts: cut their NIC cables. Both directions of a host cable
  // run on the host's (= its switch's) domain loop; a_to_b is NIC->switch,
  // b_to_a is switch->NIC (the inbound direction).
  for (const std::string& id : side_hosts) {
    Host& h = host(id);
    sim::EventLoop* l = engine_ ? h.loop : nullptr;
    for (std::size_t n = 0; n < h.node->stack.nic_count(); ++n) {
      // Skip cables into switches that are themselves inside the side —
      // rack-internal traffic survives a rack partition.
      if (side_switches.contains(h.nic_switch[n]->name())) continue;
      auto& c = h.nic_switch[n]->cable_of(h.node->stack.nic(n));
      part.cuts.push_back({&c.b_to_a, l});
      if (!one_way) part.cuts.push_back({&c.a_to_b, l});
    }
  }

  if (part.cuts.empty()) {
    throw TopologyError("make_partition: side '" + part.name +
                        "' has no crossing links to cut");
  }
  return part;
}

proto::Ipv4Addr World::server_ip(int i, int nic) const {
  const ServerStack& s = *servers_.at(std::size_t(i));
  return s.node->stack.nic(std::size_t(nic)).ip();
}

proto::Ipv4Addr World::client_ip(int i) const {
  return clients_.at(std::size_t(i))->node->stack.nic(0).ip();
}

void World::build_fabric() {
  for (const NodeSpec& n : topo_.nodes) {
    if (n.kind != NodeKind::Switch) continue;
    sim::EventLoop& swloop =
        engine_ ? *domain_loops_[switch_domain_.at(n.id)] : loop_;
    auto sw =
        std::make_unique<proto::EthernetSwitch>(swloop, n.id, config_.costs);
    switch_order_.push_back(sw.get());
    switches_.emplace(n.id, std::move(sw));
  }
  for (const EdgeSpec& e : topo_.edges) {
    auto a = switches_.find(e.a);
    auto b = switches_.find(e.b);
    if (a == switches_.end() || b == switches_.end()) continue;  // host edge
    std::uint64_t bw = e.link.bandwidth_bps.value_or(
        config_.costs.link_bandwidth_bps);
    sim::Duration lat =
        e.link.latency_ns.value_or(config_.costs.link_latency_ns);
    sim::DuplexLink& wire = a->second->connect_switch(*b->second, bw, lat);
    if (engine_) {
      // Trunks are the only cables crossing domains: deliveries to the
      // far switch are staged with the engine and merged at its barrier.
      unsigned da = switch_domain_.at(e.a);
      unsigned db = switch_domain_.at(e.b);
      wire.a_to_b.set_remote_hook(engine_->remote_hook(da, db));
      wire.b_to_a.set_remote_hook(engine_->remote_hook(db, da));
    }
  }
}

void World::build_hosts() {
  // Address assignment follows the classic testbed conventions (see
  // instantiator.h); `slot` runs over server NICs in declaration order so
  // the single 2-NIC server and the N 1-NIC replicas both land on the
  // historical 10.0.0.10+ / 0x20+ sequence.
  std::uint64_t server_slot = 0;
  std::uint64_t client_index = 0;

  for (const NodeSpec& n : topo_.nodes) {
    if (n.kind == NodeKind::Switch) continue;

    // This host's NICs: its switch edges, in edge-declaration order.
    std::vector<NicSpec> specs;
    std::vector<proto::EthernetSwitch*> nic_switch;
    for (const EdgeSpec* e : topo_.edges_of(n.id)) {
      const std::string& sw_id = e->a == n.id ? e->b : e->a;
      auto sw = switches_.find(sw_id);
      if (sw == switches_.end()) continue;  // validated: cannot happen
      NicSpec spec;
      spec.ether = sw->second.get();
      if (e->link.bandwidth_bps) spec.bandwidth_bps = *e->link.bandwidth_bps;
      spec.latency_ns = e->link.latency_ns;
      switch (n.kind) {
        case NodeKind::Target:
          spec.mac = 0x10;
          spec.ip = kStorageIp;
          break;
        case NodeKind::Balancer:
          spec.mac = 0x50;
          spec.ip = kLbIp;
          break;
        case NodeKind::Server:
          spec.mac = 0x20 + server_slot;
          spec.ip = make_ipv4(10, 0, 0, std::uint8_t(10 + server_slot));
          ++server_slot;
          break;
        case NodeKind::Client:
          spec.mac = 0x30 + client_index;
          spec.ip = make_ipv4(10, 0, 0, std::uint8_t(100 + client_index));
          break;
        case NodeKind::Switch:
          break;
      }
      nic_switch.push_back(sw->second.get());
      specs.push_back(spec);
    }
    if (n.kind == NodeKind::Client) ++client_index;

    Host h;
    h.spec = &n;
    h.loop = &loop_of(n);
    h.node = make_wired_node(*h.loop, config_.costs, book_,
                             *switch_order_.front(), n.id, specs);
    h.nic_switch = std::move(nic_switch);
    if (n.kind == NodeKind::Server) {
      // SMP: the node attribute wins over the config default; K = 1 keeps
      // the historical single-core model bit-for-bit.
      unsigned cores = config_.server_cores == 0 ? 1 : config_.server_cores;
      auto attr = n.attrs.find("cores");
      if (attr != n.attrs.end()) {
        cores = unsigned(std::stoul(attr->second));  // validated [1, 64]
      }
      if (cores != 1) h.node->cpu.set_cores(cores);
      h.node->cpu.set_steal_threshold(config_.costs.cpu_steal_threshold_ns);
    }
    auto [it, _] = hosts_.emplace(n.id, std::move(h));
    host_order_.push_back(&it->second);

    switch (n.kind) {
      case NodeKind::Target: storage_ = &it->second; break;
      case NodeKind::Balancer: lb_host_ = &it->second; break;
      case NodeKind::Server: {
        auto s = std::make_unique<ServerStack>();
        s->id = n.id;
        s->node = it->second.node.get();
        server_ips_.push_back(s->node->stack.nic(0).ip());
        servers_.push_back(std::move(s));
        break;
      }
      case NodeKind::Client: clients_.push_back(&it->second); break;
      case NodeKind::Switch: break;
    }
  }

  // Steady-state loss: a deterministic Bernoulli drop hook per lossy link
  // direction, seeded from (fault_seed, ordinal) so adding a lossy edge
  // never perturbs earlier ones.
  std::uint64_t ordinal = 0;
  for (const EdgeSpec& e : topo_.edges) {
    if (e.link.loss == 0.0) {
      continue;
    }
    bool a_switch = switches_.count(e.a) != 0;
    bool b_switch = switches_.count(e.b) != 0;
    sim::DuplexLink* wire = nullptr;
    if (a_switch && b_switch) {
      wire = &trunk(e.a, e.b);
    } else {
      const std::string& host_id = a_switch ? e.b : e.a;
      // Which NIC of the host this edge is: count prior switch edges.
      std::size_t nic = 0;
      for (const EdgeSpec* he : topo_.edges_of(host_id)) {
        if (he == &e) break;
        ++nic;
      }
      wire = &cable(host_id, nic);
    }
    double p = e.link.loss;
    for (sim::Link* dir : {&wire->a_to_b, &wire->b_to_a}) {
      loss_rngs_.push_back(
          std::make_unique<Pcg32>(config_.fault_seed, ordinal++));
      Pcg32* rng = loss_rngs_.back().get();
      dir->set_drop_hook([rng, p](std::size_t) { return rng->uniform() < p; });
    }
  }
}

void World::build_roles() {
  // Target-side stack (on the storage host's loop — its own domain in a
  // partitioned world).
  store_ = std::make_unique<blockdev::BlockStore>(
      *storage_->loop, config_.costs, "raid0", config_.volume_blocks);
  image_ = std::make_unique<fs::FsImageBuilder>(*store_, config_.volume_blocks,
                                                config_.inode_count);
  target_ = std::make_unique<iscsi::IscsiTarget>(storage_->node->stack,
                                                 *store_);
  if (config_.wire_format_target) {
    core::NetCentricCache::Config wc;
    wc.pool_budget_bytes = config_.wire_target_budget_bytes;
    wire_target_ = std::make_unique<core::WireFormatTarget>(
        storage_->node->stack, wc);
    wire_target_->attach(*target_);
  }

  // Balancer (and the peer list every PeerCache shares). Multi-server
  // worlds without a balancer (per-rack direct binding) still peer when
  // configured to.
  const bool clustered =
      lb_host_ != nullptr ||
      (config_.peer_without_balancer && servers_.size() > 1);
  std::vector<cluster::Peer> peer_list;
  if (clustered) {
    for (std::size_t i = 0; i < server_ips_.size(); ++i) {
      peer_list.push_back({std::uint32_t(i), server_ips_[i]});
    }
  }
  if (lb_host_) {
    std::vector<cluster::LoadBalancer::Member> member_list;
    for (std::size_t i = 0; i < server_ips_.size(); ++i) {
      member_list.push_back({std::uint32_t(i), server_ips_[i]});
    }
    cluster::LoadBalancer::Config lc;
    lc.routing = config_.routing;
    lc.heartbeat_interval = config_.heartbeat_interval;
    lc.heartbeat_miss_limit = config_.heartbeat_miss_limit;
    lc.readmit_quiet_rounds = config_.readmit_quiet_rounds;
    lc.admission.enabled = config_.overload.admission;
    lc.admission.aimd = config_.overload.aimd;
    lc.admission.qdepth_high = config_.overload.admission_qdepth_high;
    lb_ = std::make_unique<cluster::LoadBalancer>(lb_host_->node->stack, lc,
                                                  std::move(member_list));
  }

  // Server stacks.
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    ServerStack& s = *servers_[i];
    s.initiator = std::make_unique<iscsi::IscsiInitiator>(
        s.node->stack, server_ips_[i], kStorageIp, /*target_id=*/0);
    if (config_.overload.retry_budget) {
      s.retry_budget =
          std::make_unique<overload::RetryBudget>(config_.overload.budget);
      s.initiator->set_retry_budget(s.retry_budget.get());
    }

    switch (config_.mode) {
      case core::PassMode::Original:
        s.initiator->set_payload_policy(iscsi::PayloadPolicy::Copy);
        break;
      case core::PassMode::NCache: {
        core::NetCentricCache::Config cc;
        cc.pool_budget_bytes = config_.ncache_budget_bytes;
        s.ncache = std::make_unique<core::NCacheModule>(s.node->stack, cc);
        s.ncache->attach_egress();
        s.ncache->attach_initiator(*s.initiator);
        s.ncache->ladder_config() = config_.overload.ncache_ladder;
        break;
      }
      case core::PassMode::Baseline:
        s.initiator->set_payload_policy(iscsi::PayloadPolicy::Junk);
        break;
    }

    sim::EventLoop& sloop = *host(s.id).loop;
    if (clustered) {
      cluster::PeerCache::Config pc;
      pc.self_id = std::uint32_t(i);
      pc.target_id = 0;
      pc.mode = config_.mode;
      pc.enabled = config_.peering;
      pc.push_on_miss = config_.push_on_miss;
      s.peers = std::make_unique<cluster::PeerCache>(s.node->stack, pc,
                                                     peer_list);
      s.block_client = std::make_unique<cluster::PeerBlockClient>(
          *s.initiator, *s.peers, s.ncache.get());
      s.fs = std::make_unique<fs::SimpleFs>(sloop, *s.block_client,
                                            config_.fs_cache_blocks,
                                            config_.fs_readahead_blocks);
      // Late wiring: the agent serves from / invalidates into these
      // caches, but the block client had to exist before the fs could.
      s.peers->attach(s.ncache.get(), s.fs.get());
      if (s.retry_budget) s.peers->set_retry_budget(s.retry_budget.get());
      if (config_.overload.qdepth_feedback) {
        // Zero-suppressed piggyback: the ack gains a depth word only when
        // the replica's NFS queue is non-empty (see PeerCache::Heartbeat).
        ServerStack* sp = &s;
        s.peers->set_qdepth_probe([sp]() -> std::size_t {
          return (sp->nfs && !sp->crashed) ? sp->nfs->queue_depth() : 0;
        });
      }
    } else {
      s.fs = std::make_unique<fs::SimpleFs>(sloop, *s.initiator,
                                            config_.fs_cache_blocks,
                                            config_.fs_readahead_blocks);
    }
  }
}

void World::register_all_metrics() {
  // Canonical registration order: sim counters, then every node's
  // subsystems in topology declaration order, then the fault injector.
  // NFS servers/clients join in start_nfs(). Node ids are the metric
  // labels, so JSON keys are identical across world shapes.
  metrics_.counter("sim", "clamped_events", [this] {
    if (!engine_) return loop_.clamped_events();
    std::uint64_t total = 0;
    for (auto& l : domain_loops_) total += l->clamped_events();
    return total;
  });
  // Partitioned worlds recycle through per-domain slabs. These are
  // host-side counters: a buffer referenced from two domains returns to
  // the slab of whichever domain drops its last reference, and with more
  // than one worker thread that order is a host race, so the sums vary
  // between runs. (The process slab is also warm from earlier worlds in
  // the same process.)
  metrics_.host_counter("sim", "netbuf.slab_hits", [this] {
    if (!engine_) return netbuf::SlabCache::process().hits();
    std::uint64_t total = 0;
    for (auto& s : domain_slabs_) total += s->hits();
    return total;
  });
  metrics_.host_counter("sim", "netbuf.slab_misses", [this] {
    if (!engine_) return netbuf::SlabCache::process().misses();
    std::uint64_t total = 0;
    for (auto& s : domain_slabs_) total += s->misses();
    return total;
  });

  std::size_t server_i = 0;
  for (Host* h : host_order_) {
    const std::string& id = h->spec->id;
    h->node->register_metrics(metrics_, id);
    switch (h->spec->kind) {
      case NodeKind::Target:
        store_->register_metrics(metrics_, id);
        if (wire_target_) {
          wire_target_->cache().register_metrics(metrics_, id, "wire.cache");
        }
        break;
      case NodeKind::Balancer:
        lb_->register_metrics(metrics_, id);
        break;
      case NodeKind::Server: {
        ServerStack& s = *servers_[server_i++];
        s.initiator->register_metrics(metrics_, id);
        s.fs->cache().register_metrics(metrics_, id);
        if (s.ncache) s.ncache->register_metrics(metrics_, id);
        if (s.peers) s.peers->register_metrics(metrics_, id);
        if (s.block_client) s.block_client->register_metrics(metrics_, id);
        if (s.retry_budget) {
          overload::RetryBudget* b = s.retry_budget.get();
          metrics_.counter(id, "retry_budget.denied",
                           [b] { return b->denied(); });
          metrics_.counter(id, "retry_budget.withdrawn",
                           [b] { return b->withdrawn(); });
          metrics_.on_reset([b] { b->reset_counters(); });
        }
        break;
      }
      case NodeKind::Client:
      case NodeKind::Switch:
        break;
    }
  }
  faults_->register_metrics(metrics_, "faults");
}

Task<void> World::bring_up_server(int i) {
  ServerStack& s = *servers_.at(std::size_t(i));
  bool ok = co_await s.initiator->login();
  if (!ok) {
    throw std::runtime_error("World: iSCSI login failed (" + s.id + ")");
  }
  co_await s.fs->mount();
}

Task<void> World::bring_up_counted(int i, std::atomic<int>* remaining) {
  co_await bring_up_server(i);
  remaining->fetch_sub(1, std::memory_order_relaxed);
}

void World::start_base() {
  if (started_) return;
  started_ = true;
  if (!image_->finished()) image_->finish();
  target_->start();
  if (!engine_) {
    for (int i = 0; i < server_count(); ++i) {
      sim::sync_wait(loop_, bring_up_server(i));
    }
    return;
  }
  // Partitioned: every server logs in concurrently, the engine drives the
  // cross-domain iSCSI traffic until all mounts land.
  std::atomic<int> remaining{server_count()};
  for (int i = 0; i < server_count(); ++i) {
    bring_up_counted(i, &remaining)
        .detach(host(servers_[std::size_t(i)]->id).loop->reaper());
  }
  engine_->run(
      [&] { return remaining.load(std::memory_order_relaxed) == 0; });
  if (remaining.load(std::memory_order_relaxed) != 0) {
    throw std::runtime_error("World: partitioned bring-up stalled");
  }
}

void World::start_nfs() {
  start_base();
  for (int i = 0; i < server_count(); ++i) {
    ServerStack& s = *servers_[std::size_t(i)];
    if (s.peers) s.peers->start();
    nfs::NfsServer::Config sc;
    sc.mode = config_.mode;
    sc.daemons = config_.nfs_daemons;
    sc.overload.enabled = config_.overload.server_queue;
    sc.overload.codel = config_.overload.codel;
    sc.overload.queue_limit = config_.overload.nfs_queue_limit;
    s.nfs = std::make_unique<nfs::NfsServer>(s.node->stack, *s.fs, sc,
                                             s.ncache.get());
    if (s.ncache && s.ncache->ladder_config().shed_at) {
      s.nfs->set_shed_probe(
          [nc = s.ncache.get()] { return nc->shed_probe(); });
    }
    if (s.peers && config_.peering) {
      TaskReaper& reaper = host(s.id).loop->reaper();
      s.nfs->set_write_observer(
          [this, i, &reaper](std::uint64_t fh, std::uint64_t offset,
                             std::uint32_t count) {
            if (servers_[std::size_t(i)]->crashed) return;
            write_coherence_task(i, fh, offset, count).detach(reaper);
          });
    }
    s.nfs->register_metrics(metrics_, s.id);
    s.nfs->start();
  }
  if (lb_) lb_->start();

  // Clients bind to the VIP when a balancer fronts the servers; with one
  // server, round-robin over its NICs (the paper's 2-NIC experiment);
  // with several servers and no balancer, to the server on their own
  // switch (per-rack direct binding — presets::cluster_racks).
  std::size_t s0_nics = servers_.front()->node->stack.nic_count();
  for (int i = 0; i < client_count(); ++i) {
    proto::Ipv4Addr dst;
    if (lb_) {
      dst = kLbIp;
    } else if (servers_.size() == 1) {
      dst = server_ip(0, int(std::size_t(i) % s0_nics));
    } else {
      dst = server_ip(0, 0);
      proto::EthernetSwitch* rack =
          clients_[std::size_t(i)]->nic_switch.front();
      for (int s = 0; s < server_count(); ++s) {
        if (host(servers_[std::size_t(s)]->id).nic_switch.front() == rack) {
          dst = server_ip(s, 0);
          break;
        }
      }
    }
    nfs_clients_.push_back(std::make_unique<nfs::NfsClient>(
        clients_[std::size_t(i)]->node->stack, client_ip(i), dst,
        std::uint16_t(700 + i)));
    const std::string& client_id = clients_[std::size_t(i)]->spec->id;
    if (config_.overload.retry_budget) {
      client_budgets_.push_back(
          std::make_unique<overload::RetryBudget>(config_.overload.budget));
      overload::RetryBudget* b = client_budgets_.back().get();
      nfs_clients_.back()->set_retry_budget(b);
      metrics_.counter(client_id, "retry_budget.denied",
                       [b] { return b->denied(); });
      metrics_.counter(client_id, "retry_budget.withdrawn",
                       [b] { return b->withdrawn(); });
      metrics_.on_reset([b] { b->reset_counters(); });
    }
    nfs_clients_.back()->register_metrics(metrics_, client_id);
  }
}

Task<void> World::write_coherence_task(int i, std::uint64_t fh,
                                       std::uint64_t offset,
                                       std::uint32_t count) {
  // Order matters: the dirtied blocks must reach the target before peers
  // are told to drop their copies, or a peer could re-fetch stale bytes.
  ServerStack& s = *servers_.at(std::size_t(i));
  std::vector<std::uint32_t> lbns =
      co_await s.fs->map_range(std::uint32_t(fh), offset, count);
  if (lbns.empty()) co_return;
  co_await s.fs->sync();
  if (s.crashed) co_return;  // died while flushing
  s.peers->broadcast_invalidate(lbns);
}

void World::set_host_cables(Host& h, bool up) {
  for (std::size_t n = 0; n < h.node->stack.nic_count(); ++n) {
    auto& cable = h.nic_switch[n]->cable_of(h.node->stack.nic(n));
    cable.a_to_b.set_admin_up(up);
    cable.b_to_a.set_admin_up(up);
  }
}

void World::crash_server(int i) {
  ServerStack& s = *servers_.at(std::size_t(i));
  if (s.crashed) return;
  s.crashed = true;
  // Cables first: frames already queued by the dying daemons must vanish
  // on the wire instead of racing the restarted instance.
  set_host_cables(host(s.id), false);
  if (s.peers) s.peers->stop();
  s.initiator->abort_session(/*allow_reconnect=*/false);
  if (s.nfs) s.nfs->stop();
  s.fs->cache().discard_all();
  if (s.ncache) s.ncache->cache().clear();
  NC_WARN("topo", "%s crashed: caches and sessions lost", s.id.c_str());
}

void World::restart_server(int i) {
  ServerStack& s = *servers_.at(std::size_t(i));
  if (!s.crashed) return;
  s.crashed = false;
  set_host_cables(host(s.id), true);
  restart_task(i).detach(host(s.id).loop->reaper());
}

Task<void> World::restart_task(int i) {
  ServerStack& s = *servers_.at(std::size_t(i));
  bool ok = co_await s.initiator->login();
  if (!ok) {
    NC_WARN("topo", "%s: iSCSI re-login failed after restart", s.id.c_str());
    co_return;
  }
  if (s.peers) s.peers->start();
  if (s.nfs) s.nfs->start();
  NC_WARN("topo", "%s restarted: session re-established", s.id.c_str());
}

}  // namespace ncache::topo
