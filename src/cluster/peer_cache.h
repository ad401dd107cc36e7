// Cooperative NCache peering across replicas (the scale-out extension).
//
// Every pass-through replica runs a PeerCache agent on a dedicated UDP
// port. Cached regular-data blocks have a single hash-designated *owner*
// replica (consistent hashing over 8-block extents); on a local miss the
// replica asks the owner before touching the iSCSI target:
//
//   * FETCH / FETCH_REPLY — the requester names an LBN run; the owner
//     answers from its network-centric cache (or its fs buffer cache) with
//     the wire-format chain as a logical copy, or reports a miss. Only a
//     peer miss falls through to the target. The request carries the
//     requester's membership epoch and the reply carries per-block
//     versions, so a stale peer on either end of a healed partition can
//     never inject old bytes: the server refuses requests from a newer
//     epoch than its own (it may have missed a ring change — "fencing"),
//     and the requester rejects replies whose versions lag what it knows.
//   * TRANSFER — unsolicited chunk push: after a target read the requester
//     pushes the bytes (version-stamped) to the hash owner, and after a
//     membership change each replica re-homes chunks the new ring assigns
//     elsewhere. Stale pushes are dropped by the version check.
//   * INVALIDATE / INVALIDATE_ACK — write coherence: the replica that
//     served an NFS WRITE flushes, bumps each dirtied LBN's version, then
//     broadcasts (lbn, version) pairs to every configured peer.
//     Invalidation is *reliable*: each datagram is retransmitted with
//     capped exponential backoff until the peer acks, from a bounded
//     pending set — a peer behind a network partition converges as soon
//     as the cut heals, because the retransmissions are still flowing.
//     Applying an invalidate is a version max-merge, so duplicates and
//     reorderings are harmless.
//   * DIGEST_REQUEST / DIGEST_REPLY — anti-entropy repair: after a
//     partition heals (epoch gap observed, or an explicit run_repair()),
//     a replica sends (lbn, version) digests of everything it caches to
//     the responsible peers; both sides max-merge and drop blocks the
//     other proves stale. While its own digests are outstanding a replica
//     refuses to serve fetches — repair is a fence too.
//   * MEMBERSHIP — epoch-numbered live-set broadcasts from the load
//     balancer; each agent rebuilds its ring identically. Epochs compare
//     with serial-number (RFC 1982) arithmetic so the u32 counter wraps
//     seamlessly. An agent that finds itself excluded from the newest
//     live set it has seen is *fenced*: it refuses to serve extents it no
//     longer owns until a newer epoch re-admits it.
//   * HEARTBEAT / HEARTBEAT_ACK — the balancer's liveness probe.
//
// All messages ride the existing proto/sock stack; payloads go through the
// extended-socket mode seam, so in NCache mode a fetched chunk crosses the
// owner's boundaries as a logical copy and materializes at its NIC.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/hash_ring.h"
#include "common/overload.h"
#include "core/ncache_module.h"
#include "core/pass_mode.h"
#include "fs/simple_fs.h"
#include "sock/socket.h"

namespace ncache::cluster {

/// Peering agent port (NFS is 2049; keep clear of ephemeral NAT range).
constexpr std::uint16_t kPeerPort = 2149;
/// Load-balancer heartbeat/membership control port.
constexpr std::uint16_t kLbControlPort = 2150;
/// Ownership granularity: one 8-block (32 KB) extent — matches the NFS
/// max I/O size, so one client read maps to one owner.
constexpr std::uint32_t kExtentBlocks = 8;

enum class PeerMsg : std::uint32_t {
  Fetch = 1,
  FetchReply = 2,
  Invalidate = 3,
  Transfer = 4,
  Membership = 5,
  Heartbeat = 6,
  HeartbeatAck = 7,
  InvalidateAck = 8,
  DigestRequest = 9,
  DigestReply = 10,
};

struct Peer {
  std::uint32_t id = 0;
  proto::Ipv4Addr ip = 0;
};

struct PeerCacheStats {
  std::uint64_t fetches_sent = 0;
  std::uint64_t peer_hits = 0;    ///< fetches answered with data
  std::uint64_t peer_misses = 0;  ///< fetches answered miss
  std::uint64_t fetch_timeouts = 0;
  std::uint64_t serve_hits = 0;    ///< fetches we answered with data
  std::uint64_t serve_misses = 0;  ///< fetches we answered miss
  std::uint64_t pushes = 0;        ///< miss-path chunk pushes to the owner
  std::uint64_t invalidates_sent = 0;      ///< broadcast datagrams
  std::uint64_t invalidates_received = 0;  ///< datagrams handled
  std::uint64_t blocks_invalidated = 0;    ///< blocks actually dropped
  std::uint64_t transfers_sent = 0;
  std::uint64_t transfers_received = 0;
  std::uint64_t blocks_transferred = 0;  ///< rebalance re-homing, sent side
  std::uint64_t membership_updates = 0;  ///< epoch advances applied
  std::uint64_t heartbeats_answered = 0;
  // --- reliability / partition tolerance ---
  std::uint64_t retransmits = 0;        ///< reliable-datagram resends
  std::uint64_t invalidate_acks = 0;    ///< acks received (sender side)
  std::uint64_t pending_overflow = 0;   ///< reliable entries evicted (full set)
  std::uint64_t reliable_expired = 0;   ///< entries dropped at the retry cap
  std::uint64_t fenced_refusals = 0;    ///< fetches refused while fenced/repairing
  std::uint64_t ownership_refusals = 0; ///< fetches refused: not owner locally
  std::uint64_t stale_replies_rejected = 0;  ///< fetch replies behind known versions
  std::uint64_t stale_epoch_ignored = 0;     ///< membership broadcasts ignored
  std::uint64_t digests_sent = 0;       ///< DIGEST_REQUEST datagrams
  std::uint64_t digests_answered = 0;   ///< DIGEST_REPLY datagrams sent
  std::uint64_t repair_drops = 0;       ///< blocks dropped by anti-entropy
  std::uint64_t repair_rounds = 0;      ///< run_repair() passes started
};

/// One replica's peering agent. Construct, `attach()` the caches once they
/// exist (the block client interposes *under* the fs, so construction
/// order forces late wiring), then `start()`.
class PeerCache {
 public:
  struct Config {
    std::uint32_t self_id = 0;
    std::uint32_t target_id = 0;  ///< iSCSI target the LBNs belong to
    core::PassMode mode = core::PassMode::Original;
    bool enabled = true;  ///< peering on/off (off: pure fall-through)
    std::uint16_t port = kPeerPort;
    sim::Duration fetch_timeout = 10 * sim::kMillisecond;
    /// Cap on chunks re-homed per membership change (bounds the rebalance
    /// burst on the wire).
    std::size_t max_transfer_blocks = 256;
    int vnodes = 64;
    /// Reliable-invalidate retransmission: first backoff, doubling to the
    /// cap, giving up after `reliable_max_attempts` sends (anti-entropy
    /// repair is the backstop for partitions outlasting the budget).
    sim::Duration reliable_backoff = 5 * sim::kMillisecond;
    sim::Duration reliable_backoff_cap = 80 * sim::kMillisecond;
    int reliable_max_attempts = 40;
    /// Bound on simultaneously un-acked reliable datagrams; the oldest is
    /// evicted (and counted) when a new one would exceed it.
    std::size_t max_pending_reliable = 1024;
  };

  PeerCache(proto::NetworkStack& stack, Config config, std::vector<Peer> peers);

  /// Wires the caches this agent serves from / invalidates into. Either
  /// may be null (ncache is null outside NCache mode).
  void attach(core::NCacheModule* ncache, fs::SimpleFs* fs);

  void start();
  void stop();
  bool running() const noexcept { return running_; }
  bool enabled() const noexcept { return config_.enabled; }

  /// The replica owning `lbn`'s extent under the current ring. Callers
  /// must not ask when the ring is empty (cannot happen while self runs:
  /// a live agent is always its own member).
  std::uint32_t owner_of(std::uint64_t lbn) const;
  bool is_owner(std::uint64_t lbn) const {
    return owner_of(lbn) == config_.self_id;
  }

  /// Asks the owner of `lbn` for `count` blocks. Resolves with the
  /// payload chain on a peer hit, nullopt on miss/timeout/stale reply.
  Task<std::optional<netbuf::MsgBuffer>> fetch(std::uint64_t lbn,
                                               std::uint32_t count);

  /// Pushes freshly-read blocks to their hash owner (miss path; NCache
  /// mode only — there is no cache to ingest into otherwise).
  void push_to_owner(std::uint64_t lbn, std::uint32_t count,
                     const netbuf::MsgBuffer& chain);

  /// Write coherence: bumps each LBN's version and reliably tells every
  /// configured peer (dead or partitioned ones included — retransmission
  /// drains once they are reachable) to drop its copies.
  void broadcast_invalidate(const std::vector<std::uint32_t>& lbns);

  /// Applies an epoch-numbered live set (serially-stale epochs ignored),
  /// re-homes cached chunks the new ring assigns to other live members,
  /// and — after rejoining from a fence or observing an epoch gap —
  /// starts an anti-entropy repair pass.
  void apply_membership(std::uint32_t epoch,
                        const std::vector<std::uint32_t>& live);

  /// Anti-entropy: digests every cached extent to the peer responsible
  /// for it under the current ring (the owner, or the lowest-id other
  /// live member for self-owned extents) and reconciles versions both
  /// ways. Invoked automatically on epoch-gap rejoin; balancer-less
  /// worlds (presets::cluster_racks) call it explicitly after a heal.
  void run_repair();

  std::uint32_t epoch() const noexcept { return epoch_; }
  /// True while excluded from the newest live set seen (must not serve).
  bool fenced() const noexcept { return fenced_; }
  /// True while repair digests are outstanding (also refuses serving).
  bool repairing() const noexcept { return repair_outstanding_ > 0; }
  /// Un-acked reliable datagrams (0 = the cluster has converged as far as
  /// this sender can tell).
  std::size_t pending_reliable() const noexcept { return reliable_.size(); }
  /// Known version of one LBN (0 = never written/invalidated).
  std::uint64_t version_of(std::uint64_t lbn) const {
    auto it = versions_.find(lbn);
    return it == versions_.end() ? 0 : it->second;
  }
  const HashRing& ring() const noexcept { return ring_; }
  const Config& config() const noexcept { return config_; }
  const PeerCacheStats& stats() const noexcept { return stats_; }

  /// Publishes peer.* counters and ring gauges under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

  /// Queue-depth feedback for the balancer's admission controller: when
  /// set, heartbeat acks carry a trailing u32 with the probed depth —
  /// zero-suppressed, so an idle replica's acks keep their pre-feedback
  /// wire bytes and fault-free runs stay byte-identical.
  void set_qdepth_probe(std::function<std::size_t()> fn) {
    qdepth_probe_ = std::move(fn);
  }

  /// Shared retry budget: when set, every reliable retransmission must
  /// win a token first. A denial re-arms the timer at the backoff cap
  /// without sending — delivery stays eventual, but recovery traffic can
  /// never exceed the budgeted fraction of goodput.
  void set_retry_budget(overload::RetryBudget* budget) {
    retry_budget_ = budget;
  }

 private:
  struct PendingFetch {
    std::uint64_t lbn = 0;
    std::uint32_t count = 0;
    std::function<void(std::optional<netbuf::MsgBuffer>)> fn;
  };
  /// One un-acked reliable datagram (INVALIDATE or DIGEST_REQUEST).
  struct Reliable {
    std::uint32_t peer = 0;
    std::uint32_t seq = 0;
    bool digest = false;  ///< DIGEST_REQUEST: the reply acts as the ack
    int attempts = 1;     ///< sends so far
    sim::Duration backoff{};
    std::vector<std::byte> payload;
  };

  void on_datagram(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                   proto::Ipv4Addr dst_ip, std::uint16_t dst_port,
                   netbuf::MsgBuffer msg);
  void handle_fetch(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                    proto::Ipv4Addr dst_ip, ByteReader& head);
  void handle_fetch_reply(ByteReader& head, const netbuf::MsgBuffer& msg,
                          bool stamped);
  void handle_invalidate(ByteReader& head);
  void handle_transfer(ByteReader& head, const netbuf::MsgBuffer& msg,
                       bool stamped);
  void handle_membership(ByteReader& head);
  void handle_invalidate_ack(ByteReader& head);
  void handle_digest_request(ByteReader& head);
  void handle_digest_reply(ByteReader& head);

  /// Registers `payload` for at-least-once delivery to `peer` and sends
  /// the first copy; retransmits with capped backoff until acked.
  void send_reliable(std::uint32_t peer, std::uint32_t seq, bool digest,
                     const std::vector<std::byte>& payload);
  void retransmit(std::uint64_t ticket);
  void ack_reliable(std::uint32_t peer, std::uint32_t seq);
  void erase_reliable(std::map<std::uint64_t, Reliable>::iterator it);

  /// True when any of the `count` blocks from `lbn` has a nonzero
  /// version — i.e. the run has seen a write and stamps must go on the
  /// wire (all-zero stamp arrays are omitted from TRANSFER/FETCH_REPLY).
  bool versions_stamped(std::uint64_t lbn, std::uint32_t count) const;

  /// Drops every local copy of `lbn` (fs cache and NCache). Returns
  /// whether anything was resident.
  bool drop_local(std::uint64_t lbn);
  /// Every regular-data LBN this node caches, ascending (fs ∪ ncache).
  std::vector<std::uint64_t> cached_lbns() const;

  /// One block from the local caches in wire-ready physical form, or
  /// nullopt (serving never touches the target — that is the requester's
  /// fall-through, charged to *its* node).
  std::optional<netbuf::MsgBuffer> local_block(std::uint64_t lbn);

  std::optional<proto::Ipv4Addr> peer_ip(std::uint32_t id) const;
  sock::UdpSocket::Endpoint peer_endpoint(std::uint32_t id) const;

  proto::NetworkStack& stack_;
  Config config_;
  std::vector<Peer> peers_;
  core::NCacheModule* ncache_ = nullptr;
  fs::SimpleFs* fs_ = nullptr;
  sock::UdpSocket sock_;

  HashRing ring_;
  std::unordered_set<std::uint32_t> live_;
  std::uint32_t epoch_ = 0;
  bool fenced_ = false;

  /// Per-LBN write versions, max-merged from INVALIDATE / fetch replies /
  /// digests. Monotone, so every apply order converges to the same map.
  std::unordered_map<std::uint64_t, std::uint64_t> versions_;

  bool running_ = false;
  std::uint32_t next_seq_ = 1;
  std::unordered_map<std::uint32_t, PendingFetch> pending_;

  /// Reliable-delivery window: ticket -> entry, insertion-ordered so the
  /// bound evicts oldest-first; the index maps (peer,seq) to tickets for
  /// O(1) acks.
  std::map<std::uint64_t, Reliable> reliable_;
  std::unordered_map<std::uint64_t, std::uint64_t> reliable_index_;
  std::uint64_t next_ticket_ = 1;
  std::size_t repair_outstanding_ = 0;  ///< pending digest entries

  std::function<std::size_t()> qdepth_probe_;
  overload::RetryBudget* retry_budget_ = nullptr;

  PeerCacheStats stats_;
};

struct PeerBlockClientStats {
  std::uint64_t local_reads = 0;   ///< served by the local NCache probe
  std::uint64_t peer_reads = 0;    ///< served by a peer fetch
  std::uint64_t target_reads = 0;  ///< fell through to the iSCSI target
};

/// The interposition seam: sits between the fs buffer cache and the iSCSI
/// initiator, steering regular-data misses through the peer protocol.
/// Metadata always goes straight to the target (§3.3 classification — a
/// peer cannot be trusted to hold interpretable metadata).
class PeerBlockClient final : public iscsi::BlockClient {
 public:
  PeerBlockClient(iscsi::IscsiInitiator& initiator, PeerCache& peers,
                  core::NCacheModule* ncache)
      : initiator_(initiator), peers_(peers), ncache_(ncache) {}

  Task<netbuf::MsgBuffer> read_blocks(std::uint64_t lbn, std::uint32_t count,
                                      bool metadata) override;
  Task<bool> write_blocks(std::uint64_t lbn, netbuf::MsgBuffer data,
                          bool metadata) override;

  const PeerBlockClientStats& stats() const noexcept { return stats_; }
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  iscsi::IscsiInitiator& initiator_;
  PeerCache& peers_;
  core::NCacheModule* ncache_;
  PeerBlockClientStats stats_;
};

}  // namespace ncache::cluster
