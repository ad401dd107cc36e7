// perfbench_driver — runs one benchmark workload in this process and prints
// its result as one JSON line on stdout.
//
//   perfbench_driver --workload NAME --seed N [--trace-out PATH] [--tiny]
//                    [--flip-read K] [--inject-read-fault]
//
//   --trace-out PATH      record spans, per-op simulated spans and registry
//                         deltas, write them to PATH at exit
//   --tiny                self-check sizes (seconds, not a measurement)
//   --flip-read K         corrupt one byte of stream 0's K-th window read
//                         before verifying it (must count as a failure)
//   --inject-read-fault   arm transient disk read faults when the window
//                         opens (nfs_seq_miss; must be retried, not failed)
//
// Exit status: 0 when every op verified and finished, 1 when any failed,
// 2 on bad usage, 3 when the run itself threw.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "harness.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N "
               "[--trace-out PATH] [--tiny] [--flip-read K] "
               "[--inject-read-fault]\nworkloads:");
  for (const auto& w : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--workload" && (v = value())) {
      opts.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opts.seed = std::stoull(v);
    } else if (arg == "--trace-out" && (v = value())) {
      opts.trace_path = v;
    } else if (arg == "--flip-read" && (v = value())) {
      opts.flip_read = std::stoll(v);
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--inject-read-fault") {
      opts.inject_read_fault = true;
    } else {
      return usage();
    }
  }
  if (opts.workload.empty()) return usage();
  ncache::log::set_level(ncache::log::Level::Error);

  perfbench::Harness h(opts);
  try {
    perfbench::run_workload(h);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
  ncache::json::Value r = h.result();
  if (!h.write_trace()) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 opts.trace_path.c_str());
    return 3;
  }
  std::printf("%s\n", r.dump(-1).c_str());
  const bool clean = r.find("failed")->as_int() == 0 &&
                     r.find("verify_failures")->as_int() == 0;
  return clean ? 0 : 1;
}
