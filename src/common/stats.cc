#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ncache {

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

namespace {
// Bucket i covers [1us * 2^(i-1), 1us * 2^i); bucket 0 covers [0, 1us).
int bucket_for(std::uint64_t ns) {
  if (ns < 1000) return 0;
  int b = 1;
  std::uint64_t bound = 2000;
  while (ns >= bound && b < 39) {
    bound <<= 1;
    ++b;
  }
  return b;
}

std::uint64_t bucket_upper(int i) {
  if (i == 0) return 1000;
  return 1000ull << i;
}
}  // namespace

void LatencyHistogram::record(std::uint64_t ns) noexcept {
  buckets_[std::min(bucket_for(ns), kBuckets - 1)]++;
  if (count_ == 0 || ns < min_) min_ = ns;
  if (ns > max_) max_ = ns;
  sum_ += ns;
  ++count_;
}

double LatencyHistogram::mean_ns() const noexcept {
  return count_ ? double(sum_) / double(count_) : 0.0;
}

std::uint64_t LatencyHistogram::quantile_ns(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q <= 0.0) return min_ns();
  if (q >= 1.0) return max_ns();
  // Rank of the requested sample, 1-based; q*count rounds up so that
  // e.g. q=0.5 over 2 samples lands on the first, not the zeroth.
  std::uint64_t target =
      std::max<std::uint64_t>(1, std::uint64_t(std::ceil(q * double(count_))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    // A bucket's upper bound can lie up to 2x past its largest sample;
    // no quantile may exceed the recorded extremes.
    if (seen >= target) return std::clamp(bucket_upper(i), min_, max_);
  }
  return max_;
}

void LatencyHistogram::reset() noexcept {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = sum_ = min_ = max_ = 0;
}

std::string LatencyHistogram::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
                static_cast<unsigned long long>(count_), mean_ns() / 1e3,
                double(quantile_ns(0.5)) / 1e3, double(quantile_ns(0.99)) / 1e3,
                double(max_) / 1e3);
  return buf;
}

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace ncache
