// Lightweight metric primitives used by the testbed and benches: a
// fixed-bucket latency histogram and a running mean/variance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ncache {

/// Log-scaled latency histogram (ns). Buckets double from 1us.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::uint64_t ns) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean_ns() const noexcept;
  std::uint64_t max_ns() const noexcept { return max_; }
  std::uint64_t min_ns() const noexcept { return count_ ? min_ : 0; }
  /// Approximate quantile, q in [0,1]: the upper bound of the bucket
  /// holding the rank, clamped to [min_ns(), max_ns()].
  std::uint64_t quantile_ns(double q) const noexcept;
  void reset() noexcept;

  std::string summary() const;

 private:
  static constexpr int kBuckets = 40;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Simple online mean/variance (Welford) for bench summaries.
class RunningStat {
 public:
  void add(double x) noexcept;
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ncache
