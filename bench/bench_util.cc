#include "bench/bench_util.h"

#include <sys/resource.h>

#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench/heap_counter.h"
#include "netbuf/slab_cache.h"
#include "sim/event_loop.h"

namespace ncache::bench {

BenchOptions BenchOptions::parse(int& argc, char** argv) {
  BenchOptions opts;
  int keep = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      opts.out_dir = std::string(arg.substr(6));
    } else {
      argv[keep++] = argv[i];
    }
  }
  argc = keep;
  argv[argc] = nullptr;
  return opts;
}

BenchReport::BenchReport(const BenchOptions& opts, std::string name,
                         std::string expectation)
    : name_(std::move(name)),
      out_dir_(opts.out_dir),
      wall_start_(std::chrono::steady_clock::now()),
      dispatched_start_(sim::EventLoop::process_dispatched()),
      allocs_start_(heap_allocs()) {
  root_ = json::Value::object();
  root_.set("bench", name_);
  root_.set("expectation", std::move(expectation));
  root_.set("smoke", opts.smoke);
  root_.set("rows", json::Value::array());
  root_.set("shape", json::Value::object());
}

void BenchReport::add_row(json::Value row) {
  root_.find("rows")->push_back(std::move(row));
}

json::Value& BenchReport::shape() { return *root_.find("shape"); }

bool BenchReport::write() {
  // The wall block is computed at write time so it covers the whole bench
  // (setup + every measured window). It is the only non-deterministic part
  // of the file; smoke_bench.sh strips it before its byte-compare.
  double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start_)
          .count();
  std::uint64_t events =
      sim::EventLoop::process_dispatched() - dispatched_start_;
  std::uint64_t allocs = heap_allocs() - allocs_start_;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const netbuf::SlabCache& slab = netbuf::SlabCache::process();
  auto wall = json::Value::object();
  wall.set("wall_ms", wall_ms);
  wall.set("events_per_sec",
           wall_ms > 0 ? double(events) / (wall_ms / 1e3) : 0.0);
  wall.set("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);
  wall.set("nproc", std::uint64_t(std::thread::hardware_concurrency()));
  wall.set("slab_hits", slab.hits());
  wall.set("slab_misses", slab.misses());
  wall.set("heap_allocs", allocs);
  wall.set("allocs_per_event", events > 0 ? double(allocs) / double(events)
                                          : 0.0);
  root_.set("wall", std::move(wall));

  std::string path = out_dir_ + "/BENCH_" + name_ + ".json";
  if (!json::write_file(root_, path)) {
    std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

testbed::TestbedConfig single_server_config(core::PassMode mode,
                                            int server_nics,
                                            int client_count) {
  testbed::TestbedConfig cfg;
  cfg.mode = mode;
  cfg.server_nics = server_nics;
  cfg.client_count = client_count;
  return cfg;
}

void split_server_memory(testbed::TestbedConfig& cfg,
                         std::uint64_t total_bytes,
                         std::uint64_t ncache_pool_bytes) {
  if (cfg.mode == core::PassMode::NCache) {
    cfg.fs_cache_blocks =
        std::size_t((total_bytes - ncache_pool_bytes) / fs::kBlockSize);
    cfg.ncache_budget_bytes = std::size_t(ncache_pool_bytes);
  } else {
    cfg.fs_cache_blocks = std::size_t(total_bytes / fs::kBlockSize);
    cfg.ncache_budget_bytes = 0;
  }
}

cluster::ClusterConfig cluster_config(core::PassMode mode, int server_count,
                                      int client_count,
                                      cluster::Routing routing) {
  cluster::ClusterConfig cfg;
  cfg.mode = mode;
  cfg.server_count = server_count;
  cfg.client_count = client_count;
  cfg.routing = routing;
  return cfg;
}

WebBench::WebBench(const testbed::TestbedConfig& cfg)
    : tb(std::make_unique<testbed::Testbed>(cfg)) {}

void WebBench::start() {
  tb->start_base();
  http::KHttpd::Config hc;
  hc.mode = tb->config().mode;
  server = std::make_unique<http::KHttpd>(tb->server_node().stack, tb->fs(),
                                          hc, tb->ncache());
  server->register_metrics(tb->metrics(), "server0");
  server->start();
}

Task<void> WebBench::connect_clients(int conns_per_client,
                                     bool connection_per_request) {
  for (int ci = 0; ci < tb->client_count(); ++ci) {
    for (int k = 0; k < conns_per_client; ++k) {
      auto c = std::make_unique<http::HttpClient>(
          tb->client_node(ci).stack, tb->client_ip(ci), tb->server_ip(0));
      bool ok = co_await c->connect();
      if (!ok) throw std::runtime_error("http connect failed");
      c->set_connection_per_request(connection_per_request);
      clients.push_back(std::move(c));
    }
  }
}

json::Value measured_json(const testbed::Testbed& tb,
                          const testbed::Testbed::Snapshot& snap,
                          double throughput_mb_s) {
  auto m = json::Value::object();
  m.set("throughput_mb_s", throughput_mb_s);
  m.set("elapsed_s", snap.elapsed_s);
  auto cpu = json::Value::object();
  cpu.set("server", snap.server_cpu);
  cpu.set("storage", snap.storage_cpu);
  cpu.set("client_max", snap.client_cpu_max);
  m.set("cpu", std::move(cpu));
  m.set("link_util", snap.server_link_util);
  auto copies = json::Value::object();
  copies.set("data_ops", snap.server_data_copies);
  copies.set("logical_ops", snap.server_logical_copies);
  m.set("copies", std::move(copies));
  m.set("registry", tb.metrics().to_json());
  m.set("wall", tb.metrics().to_json(/*host_side=*/true));
  return m;
}

namespace {

// Periodic utilization sampler running inside the measurement window.
// Joins live_workers so the drain loop keeps stepping until it has seen
// the stop flag; the interval divides the window into samples+1 slots so
// every sample lands strictly inside it.
Task<void> timeline_sampler(testbed::Testbed* tb, sim::Time window_start,
                            sim::Duration interval, int samples,
                            workload::StopFlag* stop, json::Value* out) {
  ++stop->live_workers;
  for (int i = 0; i < samples; ++i) {
    co_await sim::sleep_for(tb->loop(), interval);
    if (stop->stopped) break;
    auto s = tb->snapshot(window_start);
    auto e = json::Value::object();
    e.set("t_ms", double(tb->loop().now() - window_start) / 1e6);
    e.set("server_cpu", s.server_cpu);
    e.set("storage_cpu", s.storage_cpu);
    e.set("link_util", s.server_link_util);
    e.set("nfs_requests", s.nfs_requests);
    e.set("read_bytes", s.read_bytes_served);
    out->push_back(std::move(e));
  }
  --stop->live_workers;
}

}  // namespace

NfsRunResult run_nfs_read_workload(testbed::Testbed& tb, std::uint32_t ino,
                                   std::uint64_t file_size,
                                   const NfsRunConfig& config) {
  workload::StopFlag stop;
  NfsRunResult result;
  // One shared cursor: all streams pipeline a single sequential sweep.
  auto seq_cursor = std::make_shared<std::uint64_t>(0);
  auto hot_file = std::make_shared<workload::FileSet>();
  hot_file->entries.push_back({ino, file_size, ""});

  for (int ci = 0; ci < tb.client_count(); ++ci) {
    for (int s = 0; s < config.streams_per_client; ++s) {
      if (config.hot) {
        Pcg32 rng(std::uint32_t(ci * 100 + s + 1));
        workload::random_reader(tb.nfs_client(ci), hot_file, nullptr, rng,
                                config.request_size, &stop, &result.stream)
            .detach();
      } else {
        workload::sequential_reader(tb.nfs_client(ci), ino, file_size,
                                    config.request_size, seq_cursor, &stop,
                                    &result.stream)
            .detach();
      }
    }
  }

  tb.reset_stats();
  sim::Time window_start = tb.loop().now();

  if (config.timeline_samples > 0) {
    timeline_sampler(
        &tb, window_start,
        config.duration / sim::Duration(config.timeline_samples + 1),
        config.timeline_samples, &stop, &result.timeline)
        .detach();
  }

  workload::run_measurement(tb.loop(), stop, config.duration);

  result.snapshot = tb.snapshot(window_start);
  result.throughput_mb_s = result.stream.mb_per_sec(config.duration);
  result.server_cpu = result.snapshot.server_cpu;
  result.storage_cpu = result.snapshot.storage_cpu;
  result.link_util = result.snapshot.server_link_util;
  return result;
}

NfsRunConfig standard_nfs_run(const BenchOptions& opts, std::uint32_t request,
                              int streams_per_client, bool hot) {
  NfsRunConfig rc;
  rc.request_size = request;
  rc.streams_per_client = streams_per_client;
  rc.hot = hot;
  rc.duration = (opts.smoke ? 60 : 600) * sim::kMillisecond;
  rc.timeline_samples = opts.smoke ? 2 : 6;
  return rc;
}

Task<void> traced_read(nfs::NfsClient& client, std::uint32_t ino,
                       std::uint64_t begin, std::uint64_t end, Trace& trace) {
  for (std::uint64_t off = begin; off < end; off += Trace::kChunk) {
    auto r = co_await client.read(ino, off, Trace::kChunk);
    if (r.status == nfs::Status::Ok &&
        workload::verify_payload(ino, off, r.data)) {
      trace.done_at.push_back(client.loop().now());
    } else {
      ++trace.errors;
    }
  }
}

json::Value goodput_timeline(const Trace& t, sim::Duration bucket) {
  auto timeline = json::Value::array();
  if (t.done_at.empty()) return timeline;
  sim::Time last = t.done_at.back();
  std::size_t i = 0;
  for (sim::Time start = 0; start <= last; start += bucket) {
    std::uint64_t bytes = 0;
    while (i < t.done_at.size() && t.done_at[i] < start + bucket) {
      bytes += Trace::kChunk;
      ++i;
    }
    auto point = json::Value::object();
    point.set("t_ms", double(start) / 1e6);
    point.set("goodput_mb_s", double(bytes) / 1e6 / (double(bucket) / 1e9));
    timeline.push_back(std::move(point));
  }
  return timeline;
}

}  // namespace ncache::bench
