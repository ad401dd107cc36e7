// Overload-control primitives shared by every layer of the request path:
// token buckets (LoadBalancer admission), retry budgets (NFS client, iSCSI
// initiator, PeerCache retransmits), CoDel sojourn-time shedding (NFS
// server + kHTTPd queues) and an AIMD rate controller (VIP admission).
//
// All state advances on simulated nanoseconds passed in by the caller,
// never on host time, so identical call sequences produce identical
// decisions bit-for-bit.
#pragma once

#include <cstdint>
#include <string>

namespace ncache {
class MetricRegistry;
}

namespace ncache::overload {

/// Deterministic token bucket. Tokens accrue continuously at `rate_per_sec`
/// up to `burst`; `try_take` withdraws one token or reports depletion.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double burst)
      : rate_per_sec_(rate_per_sec), burst_(burst), tokens_(burst) {}

  void configure(double rate_per_sec, double burst) {
    rate_per_sec_ = rate_per_sec;
    burst_ = burst;
    if (tokens_ > burst_) tokens_ = burst_;
  }

  /// Retunes the refill rate without disturbing the stored balance
  /// (the AIMD controller calls this every feedback round).
  void set_rate(double rate_per_sec) { rate_per_sec_ = rate_per_sec; }
  double rate() const noexcept { return rate_per_sec_; }
  double burst() const noexcept { return burst_; }

  bool try_take(std::uint64_t now_ns, double cost = 1.0) {
    refill(now_ns);
    if (tokens_ < cost) return false;
    tokens_ -= cost;
    return true;
  }

  double available(std::uint64_t now_ns) {
    refill(now_ns);
    return tokens_;
  }

 private:
  void refill(std::uint64_t now_ns);

  double rate_per_sec_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  std::uint64_t last_ns_ = 0;
};

/// Finagle-style retry budget: every success deposits `deposit_ratio`
/// tokens, every retry withdraws one, so sustained retry traffic is capped
/// at ~deposit_ratio of goodput. A slow time-based reserve keeps a trickle
/// of probes alive when successes stop entirely — without it a total
/// outage would drain the budget and recovery could never begin.
class RetryBudget {
 public:
  struct Config {
    double deposit_ratio = 0.1;    ///< tokens deposited per success
    double capacity = 100.0;       ///< max stored tokens
    double reserve_per_sec = 2.0;  ///< background refill (probe floor)
    double initial = 10.0;         ///< starting balance
  };

  RetryBudget() : RetryBudget(Config{}) {}
  explicit RetryBudget(const Config& c)
      : config_(c), tokens_(c.initial) {}

  /// Record a successful (non-retried) response.
  void deposit(std::uint64_t now_ns) {
    refill(now_ns);
    tokens_ += config_.deposit_ratio;
    if (tokens_ > config_.capacity) tokens_ = config_.capacity;
  }

  /// Ask permission to send one retry. Denials are counted for metering.
  bool try_withdraw(std::uint64_t now_ns) {
    refill(now_ns);
    if (tokens_ < 1.0) {
      ++denied_;
      return false;
    }
    tokens_ -= 1.0;
    ++withdrawn_;
    return true;
  }

  double balance(std::uint64_t now_ns) {
    refill(now_ns);
    return tokens_;
  }

  std::uint64_t denied() const noexcept { return denied_; }
  std::uint64_t withdrawn() const noexcept { return withdrawn_; }
  const Config& config() const noexcept { return config_; }

  /// Publishes retry_budget.denied / retry_budget.withdrawn under `node`.
  void register_metrics(MetricRegistry& registry, const std::string& node);

 private:
  void refill(std::uint64_t now_ns);

  Config config_;
  double tokens_ = 0.0;
  std::uint64_t last_ns_ = 0;
  std::uint64_t denied_ = 0;
  std::uint64_t withdrawn_ = 0;
};

/// CoDel control law over queue sojourn time (Nichols/Jacobson). The
/// caller reports each dequeue's sojourn; `on_dequeue` returns true when
/// that item should be shed. Shedding starts only after sojourn has stayed
/// above `target_ns` for a full `interval_ns`, then repeats at
/// interval/sqrt(drop_count) until sojourn dips below target — so brief
/// bursts ride through untouched while standing queues drain.
class CoDelState {
 public:
  struct Config {
    std::uint64_t target_ns = 5'000'000;     ///< 5 ms acceptable sojourn
    std::uint64_t interval_ns = 100'000'000; ///< 100 ms observation window
  };

  CoDelState() : CoDelState(Config{}) {}
  explicit CoDelState(const Config& c) : config_(c) {}

  bool on_dequeue(std::uint64_t now_ns, std::uint64_t sojourn_ns);

  bool dropping() const noexcept { return dropping_; }
  std::uint64_t drop_count() const noexcept { return count_; }

 private:
  std::uint64_t next_drop_at(std::uint64_t from_ns) const;

  Config config_;
  bool dropping_ = false;
  std::uint64_t first_above_ns_ = 0;  ///< 0 = sojourn currently below target
  std::uint64_t drop_next_ns_ = 0;
  std::uint64_t count_ = 0;           ///< drops in the current dropping spell
};

/// AIMD rate controller for ingress admission: each feedback round either
/// adds `increase_per_round` (healthy) or multiplies by `decrease_factor`
/// (congested), clamped to [min_rate, max_rate].
class AimdRate {
 public:
  struct Config {
    double min_rate = 50.0;
    double max_rate = 1'000'000.0;
    double initial = 1'000'000.0;
    double increase_per_round = 100.0;
    double decrease_factor = 0.7;
  };

  AimdRate() : AimdRate(Config{}) {}
  explicit AimdRate(const Config& c) : config_(c), rate_(c.initial) {
    clamp();
  }

  /// One feedback round; returns the new rate.
  double on_round(bool congested) {
    if (congested) {
      rate_ *= config_.decrease_factor;
      ++decreases_;
    } else {
      rate_ += config_.increase_per_round;
      ++increases_;
    }
    clamp();
    return rate_;
  }

  double rate() const noexcept { return rate_; }
  std::uint64_t increases() const noexcept { return increases_; }
  std::uint64_t decreases() const noexcept { return decreases_; }

 private:
  void clamp() {
    if (rate_ < config_.min_rate) rate_ = config_.min_rate;
    if (rate_ > config_.max_rate) rate_ = config_.max_rate;
  }

  Config config_;
  double rate_ = 0.0;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;
};

}  // namespace ncache::overload
