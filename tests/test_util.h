// Helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/task.h"
#include "common/zipf.h"
#include "sim/event_loop.h"
#include "topo/instantiator.h"
#include "workload/nfs_workloads.h"

namespace ncache {

/// Runs `body` (a callable returning Task<void>) on `loop` to completion.
template <typename F>
void run_on(sim::EventLoop& loop, F&& body) {
  auto t_fn = [&]() -> Task<void> { co_await body(); };
  sim::sync_wait(loop, t_fn());
}

/// Every op of `s` completed OK, and every read carried its file's bytes.
inline void expect_clean(const workload::Stream& s) {
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.verify_failures, 0u);
}

/// Two runs' per-client streams saw the same ops in the same order, and
/// both were clean.
inline void expect_same_streams(const std::vector<workload::Stream>& a,
                                const std::vector<workload::Stream>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].ops, b[c].ops) << "client " << c;
    EXPECT_EQ(a[c].digest, b[c].digest) << "client " << c;
    expect_clean(a[c]);
    expect_clean(b[c]);
  }
}

inline std::uint64_t total_ops(const std::vector<workload::Stream>& streams) {
  std::uint64_t ops = 0;
  for (const auto& s : streams) ops += s.ops;
  return ops;
}

/// One closed-loop Zipf(alpha)-popular 32 KB reader per client of `world`
/// over `files` for `window`. Client c draws from Pcg32(seed, stream + c)
/// on its own loop (its rack's domain loop in a partitioned world).
/// Returns the clients' streams.
inline std::vector<workload::Stream> run_zipf_readers(
    topo::World& world, std::shared_ptr<const workload::FileSet> files,
    double alpha, std::uint64_t seed, std::uint64_t stream,
    sim::Duration window) {
  auto zipf = std::make_shared<const ZipfSampler>(files->entries.size(), alpha);
  std::vector<workload::Stream> streams(std::size_t(world.client_count()));
  workload::StopFlag stop;
  for (int c = 0; c < world.client_count(); ++c) {
    sim::EventLoop& loop =
        world.partitioned()
            ? world.engine().domain_loop(
                  world.domain_of("client" + std::to_string(c)))
            : world.loop();
    workload::random_reader(world.nfs_client(c), files, zipf,
                            Pcg32(seed, stream + std::uint64_t(c)), 32768,
                            &stop, &streams[std::size_t(c)])
        .detach(loop.reaper());
  }
  if (world.partitioned()) {
    workload::run_measurement(world.engine(), stop, window);
  } else {
    workload::run_measurement(world.loop(), stop, window);
  }
  return streams;
}

}  // namespace ncache
