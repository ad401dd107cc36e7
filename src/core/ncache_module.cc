#include "core/ncache_module.h"

#include <algorithm>

#include "common/logging.h"

namespace ncache::core {

using netbuf::CacheKey;
using netbuf::CacheKeyHash;
using netbuf::FhoKey;
using netbuf::KeySeg;
using netbuf::LbnKey;
using netbuf::MsgBuffer;

NCacheModule::NCacheModule(proto::NetworkStack& stack,
                           NetCentricCache::Config config)
    : stack_(stack), cache_(stack.cpu(), stack.costs(), config) {
  // Freshness stamps cost nothing and are never serialized; the brownout
  // ServeStale tier reads them through lbn_inserted_at.
  cache_.set_clock([this] { return stack_.loop().now(); });
}

void NCacheModule::attach_egress() {
  stack_.set_egress_filter(
      [this](proto::Frame& f) { return egress_filter(f); });
}

void NCacheModule::attach_initiator(iscsi::IscsiInitiator& initiator) {
  initiator.set_payload_policy(iscsi::PayloadPolicy::NCache);
  std::uint32_t target = initiator.target_id();
  initiator.set_ingest_hook(
      [this, target](std::uint64_t lbn, MsgBuffer chain) {
        return ingest_lbn(target, lbn, std::move(chain));
      });
  initiator.set_remap_hook(
      [this, target](std::uint64_t lbn, const MsgBuffer& payload) {
        remap_on_flush(target, lbn, payload);
      });
  initiator.set_lbn_probe([this, target](std::uint64_t lbn) {
    maybe_recover();
    if (degraded()) return false;  // fall through to the physical chain
    if (tier_ == BrownoutTier::ServeStale) {
      // Ingestion is bypassed in this tier, so cached chunks only age;
      // answer from cache while they are younger than the TTL.
      auto at = cache_.lbn_inserted_at(lbn, target);
      if (!at) return false;
      if (stack_.loop().now() - *at > ladder_.stale_ttl) return false;
      ++stats_.second_level_hits;
      ++stats_.brownout_stale_hits;
      return true;
    }
    if (!cache_.contains_lbn(lbn, target)) return false;
    ++stats_.second_level_hits;
    return true;
  });
}

namespace {

/// The window count that enters `tier`; nullopt when the ladder skips it.
std::optional<std::size_t> threshold(const LadderConfig& c, BrownoutTier tier) {
  switch (tier) {
    case BrownoutTier::ServeStale:
      return c.serve_stale_at;
    case BrownoutTier::PhysicalCopy:
      return c.physical_copy_at;
    case BrownoutTier::Shed:
      return c.shed_at;
    case BrownoutTier::Normal:
      break;
  }
  return std::nullopt;
}

BrownoutTier below(BrownoutTier tier) { return BrownoutTier(int(tier) - 1); }

}  // namespace

void NCacheModule::note_pressure() {
  sim::Time now = stack_.loop().now();
  last_pressure_ = now;
  pressure_events_.push_back(now);
  sim::Time horizon =
      now > ladder_.pressure_window ? now - ladder_.pressure_window : 0;
  while (!pressure_events_.empty() && pressure_events_.front() < horizon) {
    pressure_events_.pop_front();
  }
  // The window is NOT cleared on escalation: sustained pressure keeps the
  // count climbing through the higher thresholds.
  std::size_t n = pressure_events_.size();
  for (auto t = BrownoutTier::Shed; t > tier_; t = below(t)) {
    auto at = threshold(ladder_, t);
    if (at && n >= *at) {
      set_tier(t, now);
      return;
    }
  }
}

void NCacheModule::maybe_recover() {
  if (tier_ == BrownoutTier::Normal) return;
  sim::Time now = stack_.loop().now();
  if (now - tier_since_ < ladder_.min_dwell) return;
  if (now - last_pressure_ < ladder_.quiet_period) return;
  // One configured tier at a time; the dwell clock restarts at every step.
  auto t = below(tier_);
  while (t != BrownoutTier::Normal && !threshold(ladder_, t)) t = below(t);
  set_tier(t, now);
}

void NCacheModule::set_tier(BrownoutTier tier, sim::Time now) {
  bool was_degraded = degraded();
  if (tier > tier_) {
    ++stats_.brownout_escalations;
    NC_WARN("ncache", "pressure spike: tier %d -> %d", int(tier_), int(tier));
  } else {
    ++stats_.brownout_deescalations;
    NC_WARN("ncache", "pressure subsided: tier %d -> %d", int(tier_),
            int(tier));
  }
  tier_ = tier;
  tier_since_ = now;
  if (!was_degraded && degraded()) {
    degraded_since_ = now;
    ++stats_.degrade_entries;
  } else if (was_degraded && !degraded()) {
    degraded_total_ns_ += now - std::max(degraded_since_, window_start_);
    ++stats_.degrade_exits;
  }
}

sim::Duration NCacheModule::degraded_ns() const noexcept {
  sim::Duration total = degraded_total_ns_;
  if (degraded()) {
    total += stack_.loop().now() - std::max(degraded_since_, window_start_);
  }
  return total;
}

MsgBuffer NCacheModule::ingest_lbn(std::uint32_t target, std::uint64_t lbn,
                                   MsgBuffer chain) {
  maybe_recover();
  auto len = std::uint32_t(chain.size());
  if (ingest_bypass()) {
    // Degraded: behave like the Original path — one physical copy up, no
    // cache traffic, so replies carry real bytes regardless of pool state.
    ++stats_.degraded_ingest_bypass;
    return stack_.copier().copy_message(chain, netbuf::CopyClass::RegularData);
  }
  LbnKey key{target, lbn};
  if (!cache_.insert_lbn(key, std::move(chain))) {
    note_pressure();
    NC_WARN("ncache", "LBN ingest failed for block %llu; passing physical",
            static_cast<unsigned long long>(lbn));
    // Caller still needs the data; re-resolve (insert kept nothing).
    // Fall back to a junk marker only if the chain was consumed — it was
    // moved, so resolve through lookup or return junk.
    const MsgBuffer* cached = cache_.lookup(CacheKey(key));
    if (cached) return *cached;
    return MsgBuffer::junk(len);
  }
  return MsgBuffer::from_key(CacheKey(key), 0, len);
}

MsgBuffer NCacheModule::ingest_fho(FhoKey key, MsgBuffer chain) {
  maybe_recover();
  auto len = std::uint32_t(chain.size());
  if (ingest_bypass()) {
    ++stats_.degraded_ingest_bypass;
    return stack_.copier().copy_message(chain, netbuf::CopyClass::RegularData);
  }
  if (!cache_.insert_fho(key, std::move(chain))) {
    note_pressure();
    NC_WARN("ncache", "FHO ingest failed for %s", to_string(CacheKey(key)).c_str());
    return MsgBuffer::junk(len);
  }
  return MsgBuffer::from_key(CacheKey(key), 0, len);
}

void NCacheModule::remap_on_flush(std::uint32_t target, std::uint64_t lbn,
                                  const MsgBuffer& payload) {
  for (const auto& seg : payload.segments()) {
    const auto* k = std::get_if<KeySeg>(&seg);
    if (!k) continue;
    if (const auto* f = std::get_if<FhoKey>(&k->key)) {
      cache_.remap(*f, LbnKey{target, lbn});
    }
  }
}

bool NCacheModule::egress_filter(proto::Frame& frame) {
  if (!frame.payload.has_keys()) {
    ++stats_.frames_passed;
    return true;
  }

  MsgBuffer rebuilt;
  std::size_t keys = 0;
  for (const auto& seg : frame.payload.segments()) {
    const auto* k = std::get_if<KeySeg>(&seg);
    if (!k) {
      rebuilt.append(seg);
      continue;
    }
    ++keys;
    const MsgBuffer* cached = cache_.lookup(k->key);
    if (!cached || k->off + k->len > cached->size()) {
      ++stats_.substitution_misses;
      note_pressure();
      NC_WARN("ncache", "egress key %s unresolved; junk substituted",
              to_string(k->key).c_str());
      rebuilt.append(MsgBuffer::junk(k->len));
      continue;
    }
    // SMP: the cache is logically partitioned by key hash — the same RSS
    // map that steers flows. Materializing a key whose owner core differs
    // from the transmitting core pulls the chain's cache lines across the
    // interconnect; charge the handoff to the core doing the transmit.
    if (stack_.cpu().cores() > 1) {
      unsigned owner = stack_.cpu().steer(CacheKeyHash{}(k->key));
      unsigned here = stack_.cpu().current_core();
      if (here == sim::CpuModel::kNoCore) here = 0;
      if (owner != here) {
        ++stats_.cross_core_handoffs;
        stack_.cpu().charge_on(here, stack_.costs().cross_core_handoff_ns);
      }
    }
    rebuilt.append(cached->slice(k->off, k->len));
  }
  frame.payload = std::move(rebuilt);
  // Checksums are inherited from the cached originator (§1); no CPU cost.
  frame.l4_checksum_inherited = true;
  ++stats_.frames_substituted;
  stats_.keys_substituted += keys;
  // Hash lookup + pointer splice per frame (§5.4 "packet substitution").
  stack_.cpu().charge(stack_.costs().ncache_substitute_ns);
  return true;
}

void NCacheModule::register_metrics(MetricRegistry& registry,
                                    const std::string& node) {
  registry.counter(node, "ncache.frames_substituted",
                   &stats_.frames_substituted);
  registry.counter(node, "ncache.keys_substituted", &stats_.keys_substituted);
  registry.counter(node, "ncache.substitution_misses",
                   &stats_.substitution_misses);
  registry.counter(node, "ncache.frames_passed", &stats_.frames_passed);
  // SMP-only row, mirroring cpu.coreN.*: K=1 output stays byte-identical
  // to the historical single-core model.
  if (stack_.cpu().cores() > 1) {
    registry.counter(node, "ncache.cross_core_handoff",
                     &stats_.cross_core_handoffs);
  }
  registry.counter(node, "ncache.second_level_hits", &stats_.second_level_hits);
  registry.counter(node, "ncache.degrade_entries", &stats_.degrade_entries);
  registry.counter(node, "ncache.degrade_exits", &stats_.degrade_exits);
  registry.counter(node, "ncache.degraded_ingest_bypass",
                   &stats_.degraded_ingest_bypass);
  registry.gauge(node, "ncache.degraded", [this] { return degraded() ? 1.0 : 0.0; });
  // Computed from time (the open stretch grows with it), so this module's
  // hook below restarts it.
  registry.computed_counter(node, "ncache.degraded_ns",
                            [this] { return std::uint64_t(degraded_ns()); });
  // Brownout rows only exist when the ladder goes beyond the physical-copy
  // fallback: runs without ServeStale or Shed keep the historical metrics
  // JSON byte-for-byte.
  if (ladder_.serve_stale_at || ladder_.shed_at) {
    registry.gauge(node, "ncache.brownout.tier",
                   [this] { return double(int(tier_)); });
    registry.counter(node, "ncache.brownout.escalations",
                     &stats_.brownout_escalations);
    registry.counter(node, "ncache.brownout.deescalations",
                     &stats_.brownout_deescalations);
    registry.counter(node, "ncache.brownout.stale_hits",
                     &stats_.brownout_stale_hits);
  }
  registry.on_reset([this] {
    degraded_total_ns_ = 0;
    window_start_ = stack_.loop().now();
  });
  cache_.register_metrics(registry, node, "ncache.cache");
}

}  // namespace ncache::core
