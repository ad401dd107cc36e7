#include "workload/load_curve.h"

#include <cmath>

namespace ncache::workload {

double LoadCurve::rate_at(sim::Time now) const {
  double rate = config_.base_rate_per_sec;
  if (config_.diurnal_amplitude > 0.0 && config_.diurnal_period > 0) {
    double phase = double(now % config_.diurnal_period) /
                   double(config_.diurnal_period);
    rate *= 1.0 + config_.diurnal_amplitude * std::sin(2.0 * M_PI * phase);
  }
  for (const auto& s : config_.spikes) {
    if (now >= s.start && now < s.start + s.duration) rate *= s.multiplier;
  }
  return rate < 1.0 ? 1.0 : rate;
}

sim::Duration LoadCurve::interarrival_at(sim::Time now, Pcg32& rng) const {
  // Exponential draw with mean 1/rate; 1-u keeps the log argument in (0,1].
  double u = 1.0 - rng.uniform();
  double seconds = -std::log(u) / rate_at(now);
  auto ns = sim::Duration(seconds * 1e9);
  return ns == 0 ? 1 : ns;  // never two arrivals at the same instant
}

namespace {

// Free coroutine, everything by value/pointer: detached frames must not
// reference a caller's locals.
Task<void> one_read(nfs::NfsClient* client, std::uint32_t ino,
                    std::uint64_t offset, std::uint32_t count,
                    sim::Time launched, StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  auto r = co_await client->read(ino, offset, count);
  stream->read(ino, offset, r.data, client->loop().now() - launched,
               r.status == nfs::Status::Ok);
  --stop->live_workers;
}

}  // namespace

Task<void> open_loop_nfs_reads(nfs::NfsClient& client,
                               std::shared_ptr<const LoadCurve> curve,
                               std::shared_ptr<const FileSet> files,
                               std::uint32_t request_size, std::uint32_t seed,
                               StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  Pcg32 rng(seed * 40503u + 9973u);
  sim::EventLoop& loop = client.loop();
  while (!stop->stopped) {
    co_await sleep_for(loop, curve->interarrival_at(loop.now(), rng));
    if (stop->stopped) break;
    FileSet::Draw d = files->draw(nullptr, rng, request_size);
    one_read(&client, d.file->ino, d.offset, d.length, loop.now(), stop,
             stream)
        .detach(loop.reaper());
  }
  --stop->live_workers;
}

}  // namespace ncache::workload
