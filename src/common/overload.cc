#include "common/overload.h"

#include <cmath>

#include "common/metrics.h"

namespace ncache::overload {

void TokenBucket::refill(std::uint64_t now_ns) {
  if (now_ns <= last_ns_) return;
  const std::uint64_t dt = now_ns - last_ns_;
  last_ns_ = now_ns;
  tokens_ += rate_per_sec_ * (static_cast<double>(dt) * 1e-9);
  if (tokens_ > burst_) tokens_ = burst_;
}

void RetryBudget::refill(std::uint64_t now_ns) {
  if (now_ns <= last_ns_) return;
  const std::uint64_t dt = now_ns - last_ns_;
  last_ns_ = now_ns;
  tokens_ += config_.reserve_per_sec * (static_cast<double>(dt) * 1e-9);
  if (tokens_ > config_.capacity) tokens_ = config_.capacity;
}

void RetryBudget::register_metrics(MetricRegistry& registry,
                                   const std::string& node) {
  registry.counter(node, "retry_budget.denied", &denied_);
  registry.counter(node, "retry_budget.withdrawn", &withdrawn_);
}

std::uint64_t CoDelState::next_drop_at(std::uint64_t from_ns) const {
  // interval / sqrt(count): the classic CoDel drop-rate ramp.
  const double denom = std::sqrt(static_cast<double>(count_ ? count_ : 1));
  return from_ns + static_cast<std::uint64_t>(
                       static_cast<double>(config_.interval_ns) / denom);
}

bool CoDelState::on_dequeue(std::uint64_t now_ns, std::uint64_t sojourn_ns) {
  if (sojourn_ns < config_.target_ns) {
    // Below target: leave the dropping state and restart the observation
    // window from scratch.
    first_above_ns_ = 0;
    dropping_ = false;
    return false;
  }

  if (!dropping_) {
    if (first_above_ns_ == 0) {
      // First sample above target — arm the window.
      first_above_ns_ = now_ns + config_.interval_ns;
      return false;
    }
    if (now_ns < first_above_ns_) return false;
    // Sojourn stayed above target for a full interval: start shedding.
    dropping_ = true;
    // Resume near the previous drop rate if the last spell was recent
    // (standard CoDel refinement); otherwise start the ramp over.
    count_ = (count_ > 2) ? count_ - 2 : 1;
    drop_next_ns_ = next_drop_at(now_ns);
    return true;
  }

  if (now_ns >= drop_next_ns_) {
    ++count_;
    drop_next_ns_ = next_drop_at(drop_next_ns_);
    return true;
  }
  return false;
}

}  // namespace ncache::overload
