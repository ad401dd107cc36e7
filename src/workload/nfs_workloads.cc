#include "workload/nfs_workloads.h"

#include "fs/image_builder.h"

namespace ncache::workload {

using nfs::Status;

Task<void> sequential_reader(nfs::NfsClient& client, std::uint32_t ino,
                             std::uint64_t size, std::uint32_t chunk,
                             std::shared_ptr<std::uint64_t> cursor,
                             StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  while (!stop->stopped) {
    std::uint64_t offset = *cursor;
    *cursor += chunk;
    if (*cursor >= size) *cursor = 0;
    auto want = std::uint32_t(std::min<std::uint64_t>(chunk, size - offset));
    sim::Time t0 = client.loop().now();
    auto r = co_await client.read(ino, offset, want);
    stream->read(ino, offset, r.data, client.loop().now() - t0,
                 r.status == Status::Ok);
  }
  --stop->live_workers;
}

Task<void> random_reader(nfs::NfsClient& client,
                         std::shared_ptr<const FileSet> files,
                         std::shared_ptr<const ZipfSampler> zipf, Pcg32 rng,
                         std::uint32_t chunk, StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  while (!stop->stopped) {
    FileSet::Draw d = files->draw(zipf.get(), rng, chunk);
    sim::Time t0 = client.loop().now();
    auto r = co_await client.read(d.file->ino, d.offset, d.length);
    stream->read(d.file->ino, d.offset, r.data, client.loop().now() - t0,
                 r.status == Status::Ok);
  }
  --stop->live_workers;
}

Task<void> read_file(nfs::NfsClient& client, std::uint32_t ino,
                     std::uint64_t begin, std::uint64_t end,
                     std::uint32_t chunk, Stream* stream) {
  for (std::uint64_t off = begin; off < end; off += chunk) {
    auto want = std::uint32_t(std::min<std::uint64_t>(chunk, end - off));
    sim::Time t0 = client.loop().now();
    auto r = co_await client.read(ino, off, want);
    if (stream) {
      stream->read(ino, off, r.data, client.loop().now() - t0,
                   r.status == Status::Ok);
    }
  }
}

Task<void> specsfs_worker(nfs::NfsClient& client,
                          std::shared_ptr<const FileSet> files,
                          SpecSfsConfig config, std::uint32_t worker_id,
                          StopFlag* stop, Stream* stream) {
  ++stop->live_workers;
  Pcg32 rng(config.seed * 7919 + worker_id);
  std::vector<std::byte> write_buf(32768);
  const auto n = std::uint32_t(files->entries.size());

  while (!stop->stopped) {
    const FileSet::Entry& f = files->entries[rng.below(n)];
    bool data_op = rng.uniform() < config.data_op_fraction;
    sim::Time t0 = client.loop().now();
    if (!data_op) {
      // Metadata mix: GETATTR-heavy, some LOOKUPs on the root directory.
      if (rng.uniform() < 0.7) {
        auto attr = co_await client.getattr(f.ino);
        stream->meta(f.ino, client.loop().now() - t0, attr.has_value());
      } else {
        auto found = co_await client.lookup(
            fs::kRootIno, files->entries[rng.below(n)].name);
        stream->meta(found.value_or(0), client.loop().now() - t0,
                     found.has_value());
      }
      continue;
    }

    std::uint32_t req =
        config.size_table[rng.below(std::uint32_t(config.size_table.size()))];
    std::uint64_t max_chunk = f.size > req ? f.size / req : 1;
    std::uint64_t offset = std::uint64_t(rng.below(std::uint32_t(max_chunk))) *
                           req;
    if (offset >= f.size) offset = 0;
    std::uint32_t len =
        std::uint32_t(std::min<std::uint64_t>(req, f.size - offset));

    if (rng.uniform() < config.read_fraction) {
      auto r = co_await client.read(f.ino, offset, len);
      stream->read(f.ino, offset, r.data, client.loop().now() - t0,
                   r.status == Status::Ok);
    } else {
      // Block-aligned write of the file's own pattern (keeps NCache's
      // aligned path hot, like SPECsfs's full-block writes).
      std::uint32_t wlen = len < 4096 ? 4096 : len & ~4095u;
      std::uint64_t woff = offset & ~4095ull;
      std::span<std::byte> data(write_buf.data(), wlen);
      fs::fill_content(f.ino, woff, data);
      Status s = co_await client.write(f.ino, woff, data);
      stream->write(f.ino, woff, wlen, client.loop().now() - t0,
                    s == Status::Ok);
    }
  }
  --stop->live_workers;
}

}  // namespace ncache::workload
