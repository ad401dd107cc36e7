// Time-varying offered load (PR 9): a deterministic request-rate curve —
// base rate, optional diurnal sine, and flash-crowd spike windows — plus
// an *open-loop* arrival worker that launches requests at the curve's
// rate regardless of completions. Open-loop arrivals are what make
// overload metastable: a closed-loop worker slows down with the server,
// an open-loop crowd does not (it is the crowd, not the benchmark, that
// backs off — i.e. nobody).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nfs/client.h"
#include "workload/counters.h"
#include "workload/file_set.h"

namespace ncache::workload {

/// Pure function of simulated time: every worker sampling the same curve
/// at the same sim time sees the same rate.
class LoadCurve {
 public:
  struct Spike {
    sim::Time start = 0;
    sim::Duration duration = 0;
    double multiplier = 1.0;  ///< rate factor inside [start, start+duration)
  };

  struct Config {
    double base_rate_per_sec = 1000.0;
    /// Diurnal sine: rate swings ±amplitude·base over one period.
    /// Amplitude 0 or period 0 disables it.
    double diurnal_amplitude = 0.0;
    sim::Duration diurnal_period = 0;
    std::vector<Spike> spikes;
  };

  explicit LoadCurve(Config config) : config_(std::move(config)) {}

  /// Aggregate arrival rate (requests/sec) at `now`. Never below 1/sec so
  /// interarrival draws stay finite.
  double rate_at(sim::Time now) const;

  /// One exponential interarrival draw at the current rate (Poisson
  /// arrivals; deterministic given the caller's RNG state).
  sim::Duration interarrival_at(sim::Time now, Pcg32& rng) const;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

/// Open-loop NFS read arrivals: sleeps out curve interarrivals and fires
/// one detached READ per arrival at a uniform FileSet::draw of `files`,
/// reporting each completion, timed from its launch, to `stream`. In-flight
/// reads count in `stop->live_workers`, so run_measurement's drain waits
/// for the tail.
Task<void> open_loop_nfs_reads(nfs::NfsClient& client,
                               std::shared_ptr<const LoadCurve> curve,
                               std::shared_ptr<const FileSet> files,
                               std::uint32_t request_size, std::uint32_t seed,
                               StopFlag* stop, Stream* stream);

}  // namespace ncache::workload
