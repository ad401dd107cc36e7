#include "cluster/peer_cache.h"

#include <algorithm>
#include <array>

#include "cluster/epoch.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "fs/layout.h"

namespace ncache::cluster {

using netbuf::MsgBuffer;

namespace {
constexpr std::size_t kFetchHeadBytes = 24;
constexpr std::size_t kFetchReplyHeadBytes = 16;  // + 8 per block (versions)
constexpr std::size_t kTransferHeadBytes = 16;    // + 8 per block (versions)
constexpr std::size_t kDigestBatch = 128;  ///< (lbn,version) pairs per datagram

std::uint64_t reliable_key(std::uint32_t peer, std::uint32_t seq) {
  return (std::uint64_t(peer) << 32) | seq;
}
}  // namespace

PeerCache::PeerCache(proto::NetworkStack& stack, Config config,
                     std::vector<Peer> peers)
    : stack_(stack),
      config_(config),
      peers_(std::move(peers)),
      sock_(stack, config.mode, config.port),
      ring_(config.vnodes) {
  for (const Peer& p : peers_) {
    ring_.add_member(p.id);
    live_.insert(p.id);
  }
}

void PeerCache::attach(core::NCacheModule* ncache, fs::SimpleFs* fs) {
  ncache_ = ncache;
  fs_ = fs;
}

void PeerCache::start() {
  if (running_) return;
  running_ = true;
  sock_.bind([this](proto::Ipv4Addr sip, std::uint16_t sport,
                    proto::Ipv4Addr dip, std::uint16_t dport, MsgBuffer msg) {
    on_datagram(sip, sport, dip, dport, std::move(msg));
  });
}

void PeerCache::stop() {
  if (!running_) return;
  running_ = false;
  sock_.unbind();
  // Fail outstanding fetches so their daemons fall through to the target
  // instead of parking until teardown.
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& [seq, pf] : pending) pf.fn(std::nullopt);
  // Forget the reliable window: whatever this instance owed the cluster
  // is re-derived after restart (crash semantics — the caches are gone
  // too). Orphaned retransmit timers no-op on the missing tickets.
  reliable_.clear();
  reliable_index_.clear();
  repair_outstanding_ = 0;
}

std::uint32_t PeerCache::owner_of(std::uint64_t lbn) const {
  return ring_.owner(HashRing::mix64(lbn / kExtentBlocks));
}

std::optional<proto::Ipv4Addr> PeerCache::peer_ip(std::uint32_t id) const {
  for (const Peer& p : peers_) {
    if (p.id == id) return p.ip;
  }
  return std::nullopt;
}

sock::UdpSocket::Endpoint PeerCache::peer_endpoint(std::uint32_t id) const {
  return {stack_.primary_ip(), *peer_ip(id), config_.port};
}

bool PeerCache::versions_stamped(std::uint64_t lbn,
                                 std::uint32_t count) const {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (version_of(lbn + i) != 0) return true;
  }
  return false;
}

// ---- reliable delivery -------------------------------------------------------

void PeerCache::erase_reliable(std::map<std::uint64_t, Reliable>::iterator it) {
  if (it->second.digest && repair_outstanding_ > 0) --repair_outstanding_;
  reliable_index_.erase(reliable_key(it->second.peer, it->second.seq));
  reliable_.erase(it);
}

void PeerCache::send_reliable(std::uint32_t peer, std::uint32_t seq,
                              bool digest,
                              const std::vector<std::byte>& payload) {
  if (!peer_ip(peer)) return;
  // Bounded pending set: evict the oldest entry rather than grow without
  // limit while a peer stays unreachable (anti-entropy repair covers what
  // an evicted invalidate would have told it).
  while (reliable_.size() >= config_.max_pending_reliable) {
    ++stats_.pending_overflow;
    erase_reliable(reliable_.begin());
  }
  std::uint64_t ticket = next_ticket_++;
  Reliable r;
  r.peer = peer;
  r.seq = seq;
  r.digest = digest;
  r.backoff = config_.reliable_backoff;
  r.payload = payload;
  if (digest) ++repair_outstanding_;
  sock_.send_meta(peer_endpoint(peer), payload);
  stack_.loop().schedule_in(r.backoff, [this, ticket] { retransmit(ticket); });
  reliable_index_[reliable_key(peer, seq)] = ticket;
  reliable_.emplace(ticket, std::move(r));
}

void PeerCache::retransmit(std::uint64_t ticket) {
  auto it = reliable_.find(ticket);
  if (it == reliable_.end() || !running_) return;  // acked or stopped
  Reliable& r = it->second;
  if (r.attempts >= config_.reliable_max_attempts) {
    ++stats_.reliable_expired;
    erase_reliable(it);
    return;
  }
  if (retry_budget_ &&
      !retry_budget_->try_withdraw(stack_.loop().now())) {
    // Budget exhausted: stay silent this round but keep the entry armed
    // at the backoff cap — delivery remains eventual, without feeding
    // the retry storm. Attempts only count actual sends.
    stack_.loop().schedule_in(config_.reliable_backoff_cap,
                              [this, ticket] { retransmit(ticket); });
    return;
  }
  ++r.attempts;
  ++stats_.retransmits;
  sock_.send_meta(peer_endpoint(r.peer), r.payload);
  r.backoff = std::min(r.backoff * 2, config_.reliable_backoff_cap);
  stack_.loop().schedule_in(r.backoff, [this, ticket] { retransmit(ticket); });
}

void PeerCache::ack_reliable(std::uint32_t peer, std::uint32_t seq) {
  auto idx = reliable_index_.find(reliable_key(peer, seq));
  if (idx == reliable_index_.end()) return;  // duplicate ack
  auto it = reliable_.find(idx->second);
  if (it != reliable_.end()) {
    // A confirmed delivery is goodput: it earns the budget back a
    // fraction of a retry token.
    if (retry_budget_) retry_budget_->deposit(stack_.loop().now());
    erase_reliable(it);
  }
}

// ---- fetch -------------------------------------------------------------------

Task<std::optional<MsgBuffer>> PeerCache::fetch(std::uint64_t lbn,
                                                std::uint32_t count) {
  std::uint32_t owner = owner_of(lbn);
  auto ip = peer_ip(owner);
  // A fenced agent's ring may be stale: do not route by it at all.
  if (!running_ || fenced_ || !ip || owner == config_.self_id) {
    co_return std::nullopt;
  }

  std::uint32_t seq = next_seq_++;
  std::vector<std::byte> head;
  ByteWriter w(head);
  w.u32(std::uint32_t(PeerMsg::Fetch));
  w.u32(seq);
  w.u64(lbn);
  w.u32(count);
  w.u32(epoch_);
  ++stats_.fetches_sent;

  AwaitCallback<std::optional<MsgBuffer>> waiter([&](auto resolve) {
    auto r = std::make_shared<decltype(resolve)>(std::move(resolve));
    pending_[seq] = PendingFetch{
        lbn, count, [r](std::optional<MsgBuffer> m) { (*r)(std::move(m)); }};
    sock_.send_meta({stack_.primary_ip(), *ip, config_.port}, head);
    stack_.loop().schedule_in(config_.fetch_timeout, [this, seq] {
      auto it = pending_.find(seq);
      if (it == pending_.end()) return;  // reply won
      auto fn = std::move(it->second.fn);
      pending_.erase(it);
      ++stats_.fetch_timeouts;
      fn(std::nullopt);
    });
  });
  std::optional<MsgBuffer> result = co_await waiter;
  if (result && config_.mode == core::PassMode::Original) {
    // Copy-semantics ingress: socket buffer -> application buffer.
    result = sock_.receive_copied(*result);
  }
  co_return result;
}

void PeerCache::push_to_owner(std::uint64_t lbn, std::uint32_t count,
                              const MsgBuffer& chain) {
  if (!running_ || fenced_ || !ncache_) return;
  if (count == 0 || count > kExtentBlocks) return;  // one extent per datagram
  std::uint32_t owner = owner_of(lbn);
  if (owner == config_.self_id || !peer_ip(owner)) return;
  std::vector<std::byte> head;
  ByteWriter w(head);
  w.u32(std::uint32_t(PeerMsg::Transfer));
  w.u64(lbn);
  w.u32(count);
  // Version stamps ride along only once a write has touched the run (the
  // receiver tells the two layouts apart by datagram size); all-zero
  // stamps carry no information, and a never-written cluster must put
  // byte-identical traffic on the wire with or without the coherence
  // machinery.
  if (versions_stamped(lbn, count)) {
    for (std::uint32_t i = 0; i < count; ++i) w.u64(version_of(lbn + i));
  }
  // Key-bearing chains materialize at the NIC (the egress interceptor), so
  // the owner receives physical bytes it can ingest.
  sock_.send_data(peer_endpoint(owner), head, chain, sock::Via::Sendfile);
  ++stats_.pushes;
}

// ---- write coherence ---------------------------------------------------------

void PeerCache::broadcast_invalidate(
    const std::vector<std::uint32_t>& lbns) {
  if (!running_ || !config_.enabled || lbns.empty()) return;
  std::uint32_t seq = next_seq_++;
  std::vector<std::byte> head;
  ByteWriter w(head);
  w.u32(std::uint32_t(PeerMsg::Invalidate));
  w.u32(config_.self_id);
  w.u32(epoch_);
  w.u32(seq);
  w.u32(std::uint32_t(lbns.size()));
  for (std::uint32_t lbn : lbns) {
    // The writer's copy is the fresh one; bumping the version here makes
    // every older replica copy provably stale.
    std::uint64_t v = ++versions_[lbn];
    w.u64(lbn);
    w.u64(v);
  }
  // Reliable broadcast to every *configured* peer, not just live ones: a
  // partitioned peer is exactly the one that must eventually hear this,
  // and the retransmit stream delivers it once the cut heals. Iterating
  // the fixed peer list keeps the send order deterministic.
  for (const Peer& p : peers_) {
    if (p.id == config_.self_id) continue;
    send_reliable(p.id, seq, /*digest=*/false, head);
    ++stats_.invalidates_sent;
  }
}

// ---- membership / fencing ----------------------------------------------------

void PeerCache::apply_membership(std::uint32_t epoch,
                                 const std::vector<std::uint32_t>& live) {
  if (!epoch_newer(epoch, epoch_)) {
    ++stats_.stale_epoch_ignored;  // stale or duplicate broadcast
    return;
  }
  // A serial gap means we missed at least one broadcast — and with it,
  // possibly invalidates sent while we were cut off; repair below.
  bool gap = std::uint32_t(epoch - epoch_) > 1;
  bool was_fenced = fenced_;
  epoch_ = epoch;
  ++stats_.membership_updates;
  ring_ = HashRing(config_.vnodes);
  live_.clear();
  for (std::uint32_t id : live) {
    if (!peer_ip(id)) continue;  // unknown member: ignore
    ring_.add_member(id);
    live_.insert(id);
  }
  // The fencing rule: excluded from the newest live set we have seen =>
  // our ring (and possibly our data) is suspect; serve nothing until a
  // newer epoch re-admits us.
  fenced_ = config_.enabled && !live_.contains(config_.self_id);
  if (fenced_) {
    NC_WARN("peer", "agent %u fenced at epoch %u", config_.self_id, epoch_);
  }
  if (ring_.empty() || fenced_ || !running_) return;

  if (ncache_) {
    // Re-home cached chunks the new ring assigns to another live member,
    // so fetches routed by the rebuilt ring hit immediately. lbn_keys()
    // is sorted, which keeps the transfer order deterministic.
    std::size_t moved = 0;
    for (const netbuf::LbnKey& key : ncache_->cache().lbn_keys()) {
      if (key.target != config_.target_id) continue;
      if (moved >= config_.max_transfer_blocks) break;
      std::uint32_t owner = owner_of(key.lbn);
      if (owner == config_.self_id) continue;
      const MsgBuffer* chain = ncache_->cache().lookup(netbuf::CacheKey{key});
      if (!chain) continue;
      std::vector<std::byte> head;
      ByteWriter w(head);
      w.u32(std::uint32_t(PeerMsg::Transfer));
      w.u64(key.lbn);
      w.u32(1);
      if (versions_stamped(key.lbn, 1)) w.u64(version_of(key.lbn));
      sock_.send_data(peer_endpoint(owner), head, *chain, sock::Via::Sendfile);
      ++stats_.transfers_sent;
      ++stats_.blocks_transferred;
      ++moved;
    }
  }

  // Rejoining after a fence, or jumping an epoch gap, means invalidates
  // may have been lost to the partition: reconcile versions with the
  // responsible peers before trusting (or serving) the local contents.
  if (was_fenced || gap) run_repair();
}

// ---- anti-entropy repair -----------------------------------------------------

std::vector<std::uint64_t> PeerCache::cached_lbns() const {
  std::vector<std::uint64_t> out;
  if (ncache_) {
    for (const netbuf::LbnKey& key : ncache_->cache().lbn_keys()) {
      if (key.target == config_.target_id) out.push_back(key.lbn);
    }
  }
  if (fs_) {
    for (std::uint64_t lbn : fs_->cache().cached_data_lbns()) {
      out.push_back(lbn);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void PeerCache::run_repair() {
  if (!running_ || !config_.enabled || fenced_) return;
  ++stats_.repair_rounds;
  std::vector<std::uint64_t> lbns = cached_lbns();
  if (lbns.empty()) return;

  // Group each cached LBN under the peer responsible for checking it: the
  // ring owner, or — for extents we own ourselves — the lowest-id other
  // live member (someone must cross-check the owner too). std::map keeps
  // the peer iteration order deterministic.
  std::map<std::uint32_t, std::vector<std::uint64_t>> per_peer;
  for (std::uint64_t lbn : lbns) {
    std::uint32_t peer = owner_of(lbn);
    if (peer == config_.self_id) {
      peer = config_.self_id;
      for (std::uint32_t id : ring_.members()) {  // sorted
        if (id != config_.self_id) {
          peer = id;
          break;
        }
      }
      if (peer == config_.self_id) continue;  // alone in the ring
    }
    if (!live_.contains(peer) || !peer_ip(peer)) continue;
    per_peer[peer].push_back(lbn);
  }

  for (auto& [peer, list] : per_peer) {
    for (std::size_t off = 0; off < list.size(); off += kDigestBatch) {
      std::size_t n = std::min(kDigestBatch, list.size() - off);
      std::uint32_t seq = next_seq_++;
      std::vector<std::byte> head;
      ByteWriter w(head);
      w.u32(std::uint32_t(PeerMsg::DigestRequest));
      w.u32(config_.self_id);
      w.u32(epoch_);
      w.u32(seq);
      w.u32(std::uint32_t(n));
      for (std::size_t i = 0; i < n; ++i) {
        w.u64(list[off + i]);
        w.u64(version_of(list[off + i]));
      }
      // The DIGEST_REPLY doubles as the ack; until every reply is in,
      // repairing() fences our own serving.
      send_reliable(peer, seq, /*digest=*/true, head);
      ++stats_.digests_sent;
    }
  }
}

// ---- local cache plumbing ----------------------------------------------------

bool PeerCache::drop_local(std::uint64_t lbn) {
  bool dropped = false;
  if (fs_ && fs_->cache().discard(lbn)) dropped = true;
  if (ncache_ && ncache_->cache().invalidate_lbn(
                     netbuf::LbnKey{config_.target_id, lbn})) {
    dropped = true;
  }
  return dropped;
}

std::optional<MsgBuffer> PeerCache::local_block(std::uint64_t lbn) {
  if (ncache_ &&
      ncache_->cache().contains_lbn(lbn, config_.target_id)) {
    const MsgBuffer* hit = ncache_->cache().lookup(
        netbuf::CacheKey{netbuf::LbnKey{config_.target_id, lbn}});
    if (hit && hit->size() == fs::kBlockSize) return *hit;
  }
  if (fs_) {
    auto blk = fs_->cache().peek(lbn);
    if (blk && blk->valid && !blk->metadata &&
        blk->data.size() == fs::kBlockSize && blk->data.fully_physical()) {
      return blk->data;  // ByteSegs share buffers; no copy here
    }
  }
  return std::nullopt;
}

// ---- datagram dispatch -------------------------------------------------------

void PeerCache::on_datagram(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                            proto::Ipv4Addr dst_ip, std::uint16_t /*dst_port*/,
                            MsgBuffer msg) {
  if (!running_ || msg.size() < 4) return;
  std::array<std::byte, 4> type_bytes;
  ByteReader tr(msg.peek_into(type_bytes));
  auto type = PeerMsg(tr.u32());
  switch (type) {
    case PeerMsg::Fetch: {
      if (msg.size() < kFetchHeadBytes) return;
      std::array<std::byte, kFetchHeadBytes> bytes;
      ByteReader head(msg.peek_into(bytes));
      head.skip(4);
      handle_fetch(src_ip, src_port, dst_ip, head);
      return;
    }
    case PeerMsg::FetchReply: {
      if (msg.size() < kFetchReplyHeadBytes) return;
      // Only the header (+ optional version array) is guaranteed physical
      // — the payload may be a logical key-bearing chain, so peek, never
      // flatten. The version array is omitted while all-zero; datagram
      // size tells the layouts apart (payload is a whole multiple of the
      // block size).
      std::array<std::byte, kFetchReplyHeadBytes> cb;
      ByteReader cr(msg.peek_into(cb));
      cr.skip(12);
      std::uint32_t count = cr.u32();
      if (count > kExtentBlocks) return;
      bool stamped =
          count > 0 && msg.size() != kFetchReplyHeadBytes +
                                         std::size_t(count) * fs::kBlockSize;
      std::size_t head_bytes =
          kFetchReplyHeadBytes + (stamped ? 8 * std::size_t(count) : 0);
      auto bytes = msg.peek_bytes(std::min(msg.size(), head_bytes));
      ByteReader head(bytes);
      head.skip(4);
      handle_fetch_reply(head, msg, stamped);
      return;
    }
    case PeerMsg::Invalidate: {
      auto bytes = msg.to_bytes();
      ByteReader head(bytes);
      head.skip(4);
      handle_invalidate(head);
      return;
    }
    case PeerMsg::InvalidateAck: {
      if (msg.size() < 12) return;
      std::array<std::byte, 12> bytes;
      ByteReader head(msg.peek_into(bytes));
      head.skip(4);
      handle_invalidate_ack(head);
      return;
    }
    case PeerMsg::Transfer: {
      if (msg.size() < kTransferHeadBytes) return;
      // Peek exactly header + version array (both physical); the payload
      // may be a logical chain and must not be flattened here. The stamp
      // array is optional (omitted while every version is 0) — datagram
      // size tells the layouts apart, unambiguously because the payload
      // is a whole multiple of the block size.
      std::array<std::byte, kTransferHeadBytes> cb;
      ByteReader cr(msg.peek_into(cb));
      cr.skip(12);
      std::uint32_t count = cr.u32();
      if (count == 0 || count > kExtentBlocks) return;
      bool stamped =
          msg.size() != kTransferHeadBytes + std::size_t(count) * fs::kBlockSize;
      std::size_t head_bytes =
          kTransferHeadBytes + (stamped ? 8 * std::size_t(count) : 0);
      if (msg.size() < head_bytes) return;
      auto bytes = msg.peek_bytes(head_bytes);
      ByteReader head(bytes);
      head.skip(4);
      handle_transfer(head, msg, stamped);
      return;
    }
    case PeerMsg::Membership: {
      auto bytes = msg.to_bytes();
      ByteReader head(bytes);
      head.skip(4);
      handle_membership(head);
      return;
    }
    case PeerMsg::DigestRequest: {
      auto bytes = msg.to_bytes();
      ByteReader head(bytes);
      head.skip(4);
      handle_digest_request(head);
      return;
    }
    case PeerMsg::DigestReply: {
      auto bytes = msg.to_bytes();
      ByteReader head(bytes);
      head.skip(4);
      handle_digest_reply(head);
      return;
    }
    case PeerMsg::Heartbeat: {
      if (msg.size() < 8) return;
      std::array<std::byte, 8> bytes;
      ByteReader head(msg.peek_into(bytes));
      head.skip(4);
      std::uint32_t hb_seq = head.u32();
      std::vector<std::byte> ack;
      ByteWriter w(ack);
      w.u32(std::uint32_t(PeerMsg::HeartbeatAck));
      w.u32(hb_seq);
      w.u32(config_.self_id);
      if (qdepth_probe_) {
        // Piggybacked queue depth for the balancer's admission control —
        // zero extra packets, and zero-suppressed so an idle replica's
        // ack bytes are unchanged from the probe-less wire format.
        std::size_t depth = qdepth_probe_();
        if (depth > 0) w.u32(std::uint32_t(depth));
      }
      ++stats_.heartbeats_answered;
      sock_.send_meta({dst_ip, src_ip, src_port}, ack);
      return;
    }
    case PeerMsg::HeartbeatAck:
      return;  // balancer-side message; not ours
  }
}

void PeerCache::handle_fetch(proto::Ipv4Addr src_ip, std::uint16_t src_port,
                             proto::Ipv4Addr dst_ip, ByteReader& head) {
  std::uint32_t seq = head.u32();
  std::uint64_t lbn = head.u64();
  std::uint32_t count = head.u32();
  std::uint32_t req_epoch = head.u32();

  // Fences first. A fenced or mid-repair agent must not serve at all; a
  // requester ahead of our epoch proves we missed a ring change (our
  // ownership view is suspect); and an extent the *current* local ring
  // assigns elsewhere is not ours to serve even if cached.
  bool refuse = false;
  if (fenced_ || repair_outstanding_ > 0 || epoch_newer(req_epoch, epoch_)) {
    ++stats_.fenced_refusals;
    refuse = true;
  } else if (!is_owner(lbn)) {
    ++stats_.ownership_refusals;
    refuse = true;
  }

  MsgBuffer payload;
  // Fetches are extent-sized by construction (the block client splits
  // multi-extent runs), which also keeps every reply one legal datagram.
  bool all = !refuse && count > 0 && count <= kExtentBlocks;
  for (std::uint32_t i = 0; all && i < count; ++i) {
    auto blk = local_block(lbn + i);
    if (!blk) {
      all = false;
      break;
    }
    payload.append(std::move(*blk));
  }

  std::vector<std::byte> rhead;
  ByteWriter w(rhead);
  w.u32(std::uint32_t(PeerMsg::FetchReply));
  w.u32(seq);
  w.u32(all ? 1 : 0);
  w.u32(all ? count : 0);
  if (all && versions_stamped(lbn, count)) {
    // Per-block versions: the requester rejects anything behind what it
    // already knows, so a stale-but-unfenced server cannot poison it.
    // All-zero stamps are omitted (the requester infers zeros from the
    // datagram size), keeping never-written traffic byte-identical to a
    // version-less cluster.
    for (std::uint32_t i = 0; i < count; ++i) w.u64(version_of(lbn + i));
  }
  sock::UdpSocket::Endpoint ep{dst_ip, src_ip, src_port};
  if (all) {
    ++stats_.serve_hits;
    // The mode seam: Original relays with physical copies, NCache forwards
    // the chain as a logical copy (one crossing — in-kernel agent).
    sock_.send_data(ep, rhead, payload, sock::Via::Sendfile);
  } else {
    ++stats_.serve_misses;
    sock_.send_meta(ep, rhead);
  }
}

void PeerCache::handle_fetch_reply(ByteReader& head, const MsgBuffer& msg,
                                   bool stamped) {
  std::uint32_t seq = head.u32();
  std::uint32_t hit = head.u32();
  std::uint32_t count = head.u32();
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // timed out; late reply dropped
  PendingFetch pf = std::move(it->second);
  pending_.erase(it);
  std::size_t head_bytes =
      kFetchReplyHeadBytes + (stamped ? std::size_t(count) * 8 : 0);
  std::size_t want = std::size_t(count) * fs::kBlockSize;
  if (hit != 0 && count > 0 && count <= kExtentBlocks && count == pf.count &&
      msg.size() == head_bytes + want) {
    // Version gate: if any block in the reply lags a version we already
    // know about, the server missed an invalidate — reject the whole
    // extent and let the requester fall through to the target. An
    // unstamped reply means the server knows only version 0 everywhere.
    bool stale = false;
    std::vector<std::uint64_t> vers(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      vers[i] = stamped ? head.u64() : 0;
      if (vers[i] < version_of(pf.lbn + i)) stale = true;
    }
    if (stale) {
      ++stats_.stale_replies_rejected;
      ++stats_.peer_misses;
      pf.fn(std::nullopt);
      return;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      if (vers[i] > version_of(pf.lbn + i)) versions_[pf.lbn + i] = vers[i];
    }
    ++stats_.peer_hits;
    pf.fn(msg.slice(head_bytes, want));
  } else {
    ++stats_.peer_misses;
    pf.fn(std::nullopt);
  }
}

void PeerCache::handle_invalidate(ByteReader& head) {
  std::uint32_t writer = head.u32();
  head.u32();  // writer's epoch (informational)
  std::uint32_t seq = head.u32();
  std::uint32_t n = head.u32();
  ++stats_.invalidates_received;
  for (std::uint32_t i = 0; i < n && head.remaining() >= 16; ++i) {
    std::uint64_t lbn = head.u64();
    std::uint64_t v = head.u64();
    // Version max-merge: retransmitted duplicates and reordered
    // broadcasts change nothing once the newest version is recorded.
    if (v <= version_of(lbn)) continue;
    versions_[lbn] = v;
    if (drop_local(lbn)) ++stats_.blocks_invalidated;
  }
  if (peer_ip(writer)) {
    std::vector<std::byte> ack;
    ByteWriter w(ack);
    w.u32(std::uint32_t(PeerMsg::InvalidateAck));
    w.u32(config_.self_id);
    w.u32(seq);
    sock_.send_meta(peer_endpoint(writer), ack);
  }
}

void PeerCache::handle_invalidate_ack(ByteReader& head) {
  std::uint32_t acker = head.u32();
  std::uint32_t seq = head.u32();
  ++stats_.invalidate_acks;
  ack_reliable(acker, seq);
}

void PeerCache::handle_transfer(ByteReader& head, const MsgBuffer& msg,
                                bool stamped) {
  if (!ncache_) return;  // nothing to ingest into (Original mode)
  std::uint64_t lbn = head.u64();
  std::uint32_t count = head.u32();
  std::size_t head_bytes =
      kTransferHeadBytes + (stamped ? std::size_t(count) * 8 : 0);
  std::size_t want = std::size_t(count) * fs::kBlockSize;
  if (count == 0 || count > kExtentBlocks ||
      msg.size() != head_bytes + want) {
    return;
  }
  ++stats_.transfers_received;
  MsgBuffer payload = msg.slice(head_bytes, want);
  if (!payload.fully_physical()) return;  // junk/unresolved keys: drop
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t v = stamped ? head.u64() : 0;
    // A push carrying an older version than we know about is stale bytes
    // from before a write we already heard of — drop that block.
    if (v < version_of(lbn + i)) continue;
    if (v > version_of(lbn + i)) versions_[lbn + i] = v;
    // Ingest and discard the key message — nothing travels up here; the
    // point is populating the owner's cache for future fetches.
    (void)ncache_->ingest_lbn(config_.target_id, lbn + i,
                              payload.slice(std::size_t(i) * fs::kBlockSize,
                                            fs::kBlockSize));
  }
}

void PeerCache::handle_membership(ByteReader& head) {
  std::uint32_t epoch = head.u32();
  std::uint32_t n = head.u32();
  std::vector<std::uint32_t> live;
  live.reserve(n);
  for (std::uint32_t i = 0; i < n && head.remaining() >= 4; ++i) {
    live.push_back(head.u32());
  }
  apply_membership(epoch, live);
}

void PeerCache::handle_digest_request(ByteReader& head) {
  std::uint32_t requester = head.u32();
  head.u32();  // requester's epoch (informational)
  std::uint32_t seq = head.u32();
  std::uint32_t n = head.u32();
  if (!peer_ip(requester)) return;

  // Two-way reconciliation: versions the requester is ahead on are
  // max-merged (and our stale copies dropped) right here; versions we are
  // ahead on go back in the reply.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> newer;
  for (std::uint32_t i = 0; i < n && head.remaining() >= 16; ++i) {
    std::uint64_t lbn = head.u64();
    std::uint64_t v = head.u64();
    std::uint64_t mine = version_of(lbn);
    if (v > mine) {
      versions_[lbn] = v;
      if (drop_local(lbn)) ++stats_.repair_drops;
    } else if (mine > v) {
      newer.push_back({lbn, mine});
    }
  }

  std::vector<std::byte> reply;
  ByteWriter w(reply);
  w.u32(std::uint32_t(PeerMsg::DigestReply));
  w.u32(config_.self_id);
  w.u32(seq);
  w.u32(std::uint32_t(newer.size()));
  for (auto& [lbn, v] : newer) {
    w.u64(lbn);
    w.u64(v);
  }
  ++stats_.digests_answered;
  // The reply is the ack for the (reliable) request; a lost reply just
  // provokes an idempotent re-request.
  sock_.send_meta(peer_endpoint(requester), reply);
}

void PeerCache::handle_digest_reply(ByteReader& head) {
  std::uint32_t replier = head.u32();
  std::uint32_t seq = head.u32();
  std::uint32_t n = head.u32();
  ack_reliable(replier, seq);
  for (std::uint32_t i = 0; i < n && head.remaining() >= 16; ++i) {
    std::uint64_t lbn = head.u64();
    std::uint64_t v = head.u64();
    if (v <= version_of(lbn)) continue;
    versions_[lbn] = v;
    if (drop_local(lbn)) ++stats_.repair_drops;
  }
}

void PeerCache::register_metrics(MetricRegistry& registry,
                                 const std::string& node) {
  registry.counter(node, "peer.fetches_sent", &stats_.fetches_sent);
  registry.counter(node, "peer.hits", &stats_.peer_hits);
  registry.counter(node, "peer.misses", &stats_.peer_misses);
  registry.counter(node, "peer.fetch_timeouts", &stats_.fetch_timeouts);
  registry.counter(node, "peer.serve_hits", &stats_.serve_hits);
  registry.counter(node, "peer.serve_misses", &stats_.serve_misses);
  registry.counter(node, "peer.pushes", &stats_.pushes);
  registry.counter(node, "peer.invalidates_sent", &stats_.invalidates_sent);
  registry.counter(node, "peer.invalidates_received",
                   &stats_.invalidates_received);
  registry.counter(node, "peer.blocks_invalidated", &stats_.blocks_invalidated);
  registry.counter(node, "peer.transfers_sent", &stats_.transfers_sent);
  registry.counter(node, "peer.transfers_received", &stats_.transfers_received);
  registry.counter(node, "peer.blocks_transferred", &stats_.blocks_transferred);
  registry.counter(node, "peer.membership_updates", &stats_.membership_updates);
  registry.counter(node, "peer.heartbeats_answered",
                   &stats_.heartbeats_answered);
  registry.counter(node, "peer.retransmits", &stats_.retransmits);
  registry.counter(node, "peer.invalidate_acks", &stats_.invalidate_acks);
  registry.counter(node, "peer.pending_overflow", &stats_.pending_overflow);
  registry.counter(node, "peer.reliable_expired", &stats_.reliable_expired);
  registry.counter(node, "peer.fenced_refusals", &stats_.fenced_refusals);
  registry.counter(node, "peer.ownership_refusals", &stats_.ownership_refusals);
  registry.counter(node, "peer.stale_replies_rejected",
                   &stats_.stale_replies_rejected);
  registry.counter(node, "peer.stale_epoch_ignored",
                   &stats_.stale_epoch_ignored);
  registry.counter(node, "peer.digests_sent", &stats_.digests_sent);
  registry.counter(node, "peer.digests_answered", &stats_.digests_answered);
  registry.counter(node, "peer.repair_drops", &stats_.repair_drops);
  registry.counter(node, "peer.repair_rounds", &stats_.repair_rounds);
  registry.gauge(node, "peer.ring_members",
                 [this] { return double(ring_.member_count()); });
  registry.gauge(node, "peer.epoch", [this] { return double(epoch_); });
  registry.gauge(node, "peer.pending_reliable",
                 [this] { return double(reliable_.size()); });
}

// ---- PeerBlockClient ---------------------------------------------------------

Task<MsgBuffer> PeerBlockClient::read_blocks(std::uint64_t lbn,
                                             std::uint32_t count,
                                             bool metadata) {
  // Metadata is interpreted above us and always classified to the physical
  // path; disabled/stopped peering is a pure fall-through.
  if (metadata || !peers_.enabled() || !peers_.running()) {
    co_return co_await initiator_.read_blocks(lbn, count, metadata);
  }

  if (ncache_) {
    bool all_local = count > 0;
    for (std::uint32_t i = 0; all_local && i < count; ++i) {
      all_local = ncache_->cache().contains_lbn(
          lbn + i, peers_.config().target_id);
    }
    if (all_local) {
      // The initiator's second-level-cache probe serves this without
      // touching the network.
      ++stats_.local_reads;
      co_return co_await initiator_.read_blocks(lbn, count, metadata);
    }
  }

  // Ownership changes every kExtentBlocks, so a run that crosses an extent
  // boundary may belong to several peers; split it and recurse, one extent
  // per piece. This also bounds every fetch/push at one legal datagram
  // (coalesced readahead runs can otherwise exceed the 64 KB UDP limit).
  std::uint64_t extent_end = (lbn / kExtentBlocks + 1) * kExtentBlocks;
  if (lbn + count > extent_end) {
    MsgBuffer out;
    std::uint64_t at = lbn;
    std::uint32_t left = count;
    while (left > 0) {
      auto piece = std::uint32_t(std::min<std::uint64_t>(
          left, (at / kExtentBlocks + 1) * kExtentBlocks - at));
      out.append(co_await read_blocks(at, piece, metadata));
      at += piece;
      left -= piece;
    }
    co_return out;
  }

  if (!peers_.is_owner(lbn)) {
    auto hit = co_await peers_.fetch(lbn, count);
    if (hit) {
      ++stats_.peer_reads;
      if (ncache_) {
        // Populate the local LBN cache and hand keys up, exactly as an
        // initiator ingest would.
        MsgBuffer keys;
        for (std::uint32_t i = 0; i < count; ++i) {
          keys.append(ncache_->ingest_lbn(
              peers_.config().target_id, lbn + i,
              hit->slice(std::size_t(i) * fs::kBlockSize, fs::kBlockSize)));
        }
        co_return keys;
      }
      co_return std::move(*hit);
    }
  }

  ++stats_.target_reads;
  MsgBuffer data = co_await initiator_.read_blocks(lbn, count, metadata);
  if (!peers_.is_owner(lbn)) peers_.push_to_owner(lbn, count, data);
  co_return data;
}

Task<bool> PeerBlockClient::write_blocks(std::uint64_t lbn, MsgBuffer data,
                                         bool metadata) {
  // Writes always go to the target; coherence is the NFS write observer's
  // job (flush then INVALIDATE broadcast), not the block layer's.
  co_return co_await initiator_.write_blocks(lbn, std::move(data), metadata);
}

void PeerBlockClient::register_metrics(MetricRegistry& registry,
                                       const std::string& node) {
  registry.counter(node, "peer.reads_local", &stats_.local_reads);
  registry.counter(node, "peer.reads_peer", &stats_.peer_reads);
  registry.counter(node, "peer.reads_target", &stats_.target_reads);
}

}  // namespace ncache::cluster
