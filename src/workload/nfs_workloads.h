// NFS workload generators reproducing §5.3, one per access pattern:
//
//  * sequential_reader — the *all-miss* microbenchmark: sequentially read
//    a file far larger than every cache, so each request reaches the
//    storage server;
//  * random_reader — random aligned chunks of a file set: the *all-hit*
//    microbenchmark over one small (5 MB) resident file, or Zipf-popular
//    reads over many (the SPECweb99-style skew of the cluster benches);
//  * specsfs_worker — the SPECsfs-flavoured macrobenchmark: an op mix
//    over a 10 % active file set with small-request-dominated sizes, a
//    5:1 read:write ratio among data ops, and a sweepable fraction of
//    regular-data vs metadata operations (Fig 7's x-axis);
//  * read_file — one in-order pass over a byte range (warm-ups, and the
//    tests' verified whole-file reads).
//
// Every worker reports each finished op to a Stream, which verifies read
// payloads and times each op on the client's loop.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "nfs/client.h"
#include "workload/counters.h"
#include "workload/file_set.h"

namespace ncache::workload {

/// Sequential reader: workers sharing one cursor read the file in strict
/// offset order, `chunk` bytes at a time, wrapping around, until stopped;
/// with (workers) requests in flight, that is the ATP-style pipelined
/// stream the all-miss microbenchmark needs to saturate the storage path
/// while keeping disks sequential. A lone stream gets its own cursor.
Task<void> sequential_reader(nfs::NfsClient& client, std::uint32_t ino,
                             std::uint64_t size, std::uint32_t chunk,
                             std::shared_ptr<std::uint64_t> cursor,
                             StopFlag* stop, Stream* stream);

/// Random reader: reads FileSet::draw(zipf, rng, chunk) until stopped.
/// `zipf` may be null (uniform over the set).
Task<void> random_reader(nfs::NfsClient& client,
                         std::shared_ptr<const FileSet> files,
                         std::shared_ptr<const ZipfSampler> zipf, Pcg32 rng,
                         std::uint32_t chunk, StopFlag* stop, Stream* stream);

/// One pass over [begin, end) of `ino` in `chunk`-sized reads, in order.
/// `stream` may be null (a warm-up nobody checks).
Task<void> read_file(nfs::NfsClient& client, std::uint32_t ino,
                     std::uint64_t begin, std::uint64_t end,
                     std::uint32_t chunk, Stream* stream);

struct SpecSfsConfig {
  /// Fraction of operations that touch regular data (READ/WRITE); the
  /// remainder are metadata ops (GETATTR/LOOKUP/READDIR). Fig 7 sweeps
  /// this.
  double data_op_fraction = 0.5;
  /// Among data ops: reads / (reads + writes). Default 5:1 (§5.3).
  double read_fraction = 5.0 / 6.0;
  /// Request-size distribution: SPECsfs is dominated by small requests
  /// (<16 KB); sizes drawn from {4K x8, 8K x4, 16K x2, 32K x1}.
  std::vector<std::uint32_t> size_table = {
      4096, 4096, 4096, 4096, 4096,  4096,  4096,  4096,
      8192, 8192, 8192, 8192, 16384, 16384, 32768};
  std::uint32_t seed = 1;
};

/// One SPECsfs worker: issues the op mix against a pre-built file set (the
/// active set, 10 % of the volume). LOOKUPs name the set's files; WRITEs
/// store each file's own content pattern, so later reads still verify.
Task<void> specsfs_worker(nfs::NfsClient& client,
                          std::shared_ptr<const FileSet> files,
                          SpecSfsConfig config, std::uint32_t worker_id,
                          StopFlag* stop, Stream* stream);

}  // namespace ncache::workload
