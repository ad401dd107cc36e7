// SPECweb99-style web workload (§5.3): page popularity follows Zipf's law
// (Breslau et al.), page sizes come from a class table tuned to the
// paper's ~75 KB average, and a configurable working-set size drives the
// Fig 6(a) sweep.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "fs/image_builder.h"
#include "http/client.h"
#include "workload/counters.h"
#include "workload/file_set.h"

namespace ncache::workload {

/// Builds the page set into the fs image: `working_set_bytes` of pages
/// whose sizes follow a SPECweb99-like class mix with the given mean.
/// Pages are named "p0".."pN-1" in popularity-rank order.
FileSet build_web_fileset(fs::FsImageBuilder& image,
                          std::uint64_t working_set_bytes,
                          std::uint64_t mean_page_bytes = 75 * 1024,
                          std::uint32_t seed = 42);

/// One HTTP worker: Zipf-samples pages and GETs "/" + name until stopped,
/// timing each GET on `loop` (the client's).
Task<void> web_get_worker(http::HttpClient& client, sim::EventLoop& loop,
                          std::shared_ptr<const FileSet> files,
                          std::shared_ptr<const ZipfSampler> zipf,
                          std::uint32_t seed, StopFlag* stop, Stream* stream);

/// Repeatedly fetches one page of a small hot set (the §5.5 all-hit
/// microbenchmark) with a fixed request (= page) size.
Task<void> web_hot_worker(http::HttpClient& client, sim::EventLoop& loop,
                          FileSet::Entry page, StopFlag* stop,
                          Stream* stream);

}  // namespace ncache::workload
