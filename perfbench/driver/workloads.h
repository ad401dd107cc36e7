// The benchmark's named workloads. Each builds its world through the public
// APIs (Testbed / topo::World, FsImageBuilder, NfsClient, HttpClient),
// drives closed-loop clients that verify every payload byte, and measures
// one window through the Harness. All run in PassMode::NCache.
#pragma once

#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Workload names, in the order the benchmark runs them.
const std::vector<std::string>& workload_names();

/// Runs `h.options().workload`; throws std::invalid_argument on an unknown
/// name.
void run_workload(Harness& h);

}  // namespace perfbench
