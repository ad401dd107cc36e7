#include "workload/web_workloads.h"

namespace ncache::workload {

FileSet build_web_fileset(fs::FsImageBuilder& image,
                          std::uint64_t working_set_bytes,
                          std::uint64_t mean_page_bytes, std::uint32_t seed) {
  // SPECweb99-like size classes (weight, size-as-fraction-of-mean): many
  // small pages, a tail of large ones; calibrated so the weighted mean is
  // ~1.0x `mean_page_bytes`.
  struct Class {
    double weight;
    double scale;
  };
  static const Class kClasses[] = {
      {0.35, 0.12},  // small html
      {0.50, 0.60},  // images
      {0.14, 3.00},  // documents
      {0.01, 13.0},  // downloads
  };

  FileSet out;
  Pcg32 rng(seed);
  std::uint64_t accumulated = 0;
  std::uint32_t index = 0;
  while (accumulated < working_set_bytes) {
    double u = rng.uniform();
    double scale = kClasses[3].scale;
    for (const auto& c : kClasses) {
      if (u < c.weight) {
        scale = c.scale;
        break;
      }
      u -= c.weight;
    }
    // +/-30% spread within a class.
    double jitter = 0.7 + 0.6 * rng.uniform();
    auto size = std::uint64_t(double(mean_page_bytes) * scale * jitter);
    size = std::max<std::uint64_t>(size, 512);
    size = std::min(size, working_set_bytes);  // no monster outliers

    std::string name = "p" + std::to_string(index++);
    std::uint32_t ino = image.add_file(name, size);
    if (ino == 0) break;  // volume full
    out.entries.push_back({ino, size, std::move(name)});
    accumulated += size;
  }
  return out;
}


Task<void> web_get_worker(http::HttpClient& client, sim::EventLoop& loop,
                          std::shared_ptr<const FileSet> files,
                          std::shared_ptr<const ZipfSampler> zipf,
                          std::uint32_t seed, StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  Pcg32 rng(seed);
  std::string path;  // reused: a request allocates no name
  while (!stop->stopped) {
    const FileSet::Entry& page = files->entries[zipf->sample(rng)];
    path.assign(1, '/');
    path += page.name;
    sim::Time t0 = loop.now();
    auto r = co_await client.get(path);
    stream->read(page.ino, 0, r.body, loop.now() - t0, r.status == 200);
  }
  --stop->live_workers;
}

Task<void> web_hot_worker(http::HttpClient& client, sim::EventLoop& loop,
                          FileSet::Entry page, StopFlag* stop,
                          Stream* stream) {
  ++stop->live_workers;
  const std::string path = "/" + page.name;
  while (!stop->stopped) {
    sim::Time t0 = loop.now();
    auto r = co_await client.get(path);
    stream->read(page.ino, 0, r.body, loop.now() - t0, r.status == 200);
  }
  --stop->live_workers;
}

}  // namespace ncache::workload
