#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "fs/image_builder.h"
#include "sim/event_loop.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

/// Simulated time allowed after the window closes for in-flight ops to
/// finish; an op still open after it counts as failed.
constexpr sim::Duration kDrainLimit = 2 * sim::kSecond;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double since_start_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((word >> (8 * i)) & 0xff)) * 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string key(const MetricRegistry::Sample& s) { return s.node + "/" + s.name; }

/// Values that depend on which host thread dropped a buffer's last
/// reference, so they vary between runs of a partitioned world: slab and
/// pool recycling counters, and pool occupancy (a buffer released on
/// another domain's thread updates its pool's ledger without
/// synchronization). Recycling is reported under host.*; none of them
/// enter the digest.
bool host_side(const std::string& name) {
  return name.ends_with("slab_hits") || name.ends_with("slab_misses") ||
         name.ends_with(".recycled") || name.ends_with("in_use_bytes") ||
         name.ends_with("pinned_bytes");
}

sim::Time world_now(topo::World& w) {
  return w.partitioned() ? w.engine().now() : w.loop().now();
}

void world_run_until(topo::World& w, sim::Time t) {
  if (w.partitioned()) {
    w.engine().run_until(t);
  } else {
    w.loop().run_until(t);
  }
}

std::uint64_t world_rounds(topo::World& w) {
  return w.partitioned() ? w.engine().rounds() : 0;
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return unsigned(CPU_COUNT(&set));
  return unsigned(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<sim::Duration>& sorted, double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = std::size_t(std::ceil(q * double(sorted.size())));
  return double(sorted[std::max<std::size_t>(rank, 1) - 1]);
}

}  // namespace

Harness::Harness(Options opts) : opts_(std::move(opts)) {
  run_id_ = opts_.workload + "-" + std::to_string(opts_.seed) + "-" +
            std::to_string(getpid()) + "-" +
            std::to_string(Clock::now().time_since_epoch().count());
}

// ---- spans -------------------------------------------------------------------

int Harness::open(std::string name) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
  open_.push_back(int(spans_.size()) - 1);
  return open_.back();
}

void Harness::close(int span) {
  spans_.at(std::size_t(span)).end = Clock::now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Harness::phase_s(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += seconds(s.start, s.end);
  }
  return total;
}

// ---- client streams ------------------------------------------------------------

void Harness::make_streams(int n) {
  streams_.resize(std::size_t(n));
  for (int i = 0; i < n; ++i) streams_[std::size_t(i)].id = i;
}

Ticket Harness::begin_op(Stream& s, sim::Time now) const {
  Ticket t{now, measuring_.load(std::memory_order_relaxed)};
  if (t.in_window) ++s.attempted;
  return t;
}

void Harness::end_op(Stream& s, const Ticket& t, sim::Time now, OpClass cls,
                     bool ok, std::uint64_t ino, std::uint64_t offset,
                     std::uint64_t length) {
  ++s.ops;
  for (std::uint64_t w : {std::uint64_t(cls), ino, offset, length,
                          std::uint64_t(ok), std::uint64_t(now)}) {
    s.hash = fnv(s.hash, w);
  }
  if (traced()) {
    s.spans.push_back(OpSpan{s.ops, cls, t.start, now, ok});
  }
  if (!t.in_window || !ok) return;
  ++s.completed;
  if (cls != OpClass::Meta) s.payload_bytes += length;
  s.latency[int(cls)].push_back(now - t.start);
}

bool Harness::verify(Stream& s, std::uint32_t ino, std::uint64_t offset,
                     std::uint64_t length, const netbuf::MsgBuffer& data) {
  const Clock::time_point t0 = traced() ? Clock::now() : Clock::time_point{};
  bool ok = data.size() == length;
  // Self-check hook: corrupt one received byte of a chosen window read.
  bool flip = false;
  if (measuring_.load(std::memory_order_relaxed)) {
    flip = s.id == 0 && std::int64_t(s.window_reads) == opts_.flip_read;
    ++s.window_reads;
  }
  std::uint64_t at = offset;
  for (const netbuf::Segment& seg : data.segments()) {
    if (!ok) break;
    const auto* bytes = std::get_if<netbuf::ByteSeg>(&seg);
    if (!bytes) {
      ok = false;  // a logical or junk segment reached a client
      break;
    }
    std::span<const std::byte> view = bytes->view();
    std::vector<std::byte> copy;
    if (flip && !view.empty()) {
      copy.assign(view.begin(), view.end());
      copy[0] ^= std::byte{0x01};
      view = copy;
      flip = false;
    }
    ok = fs::verify_content(ino, at, view) == std::size_t(-1);
    at += view.size();
  }
  if (!ok) ++s.verify_failures;
  if (traced()) s.verify_s += seconds(t0, Clock::now());
  return ok;
}

// ---- driving the world ----------------------------------------------------------

Harness::Snapshot Harness::snapshot(const topo::World& w) const {
  Snapshot out;
  for (auto& s : w.metrics().sample()) out.emplace(key(s), s);
  return out;
}

void Harness::mark(const topo::World& w, std::string boundary) {
  if (!traced()) return;
  Snapshot now = snapshot(w);
  json::Value deltas = json::Value::object();
  for (const auto& [k, s] : now) {
    if (s.kind == MetricKind::Gauge) continue;
    auto p = last_mark_.find(k);
    std::uint64_t base = p == last_mark_.end() ? 0 : p->second.u64;
    if (s.u64 > base) deltas.set(k, s.u64 - base);
  }
  json::Value v = json::Value::object();
  v.set("from", last_mark_name_);
  v.set("to", boundary);
  v.set("deltas", std::move(deltas));
  marks_.push_back(std::move(v));
  last_mark_ = std::move(now);
  last_mark_name_ = std::move(boundary);
}

void Harness::warm(topo::World& w, sim::Duration d) {
  Scope span(*this, "workload.warm");
  world_run_until(w, world_now(w) + d);
}

void Harness::begin_window(topo::World& w) {
  mark(w, "warm.end");
  w.reset_stats();
  at_open_ = snapshot(w);
  // The reset zeroes window counters: rebase the next delta on it.
  last_mark_ = at_open_;
  last_mark_name_ = "window.begin";
  t0_ = world_now(w);
  events0_ = sim::EventLoop::process_dispatched();
  rounds0_ = world_rounds(w);
  measuring_.store(true);
  setup_s_ = seconds(kProcessStart, Clock::now());
}

void Harness::run_window(topo::World& w, sim::Duration window,
                         workload::StopFlag& stop) {
  const Clock::time_point h0 = Clock::now();
  {
    Scope span(*this, "sim.run");
    window_ = window;
    world_run_until(w, t0_ + window);
    stop.stopped = true;
    const sim::Time limit = t0_ + window + kDrainLimit;
    if (w.partitioned()) {
      sim::ParallelEngine& e = w.engine();
      e.run([&] { return stop.live_workers.load() <= 0 || e.now() >= limit; });
    } else {
      sim::EventLoop& loop = w.loop();
      while (stop.live_workers > 0 && loop.next_event_time() <= limit &&
             loop.step()) {
      }
    }
  }
  run_s_ = seconds(h0, Clock::now());
  measuring_.store(false);
  t_end_ = world_now(w);
  events1_ = sim::EventLoop::process_dispatched();
  rounds1_ = world_rounds(w);
  at_close_ = snapshot(w);
  mark(w, "window.end");
}

// ---- results -----------------------------------------------------------------------

json::Value Harness::layers() const {
  // Registry delta over the window (gauges: value at window close).
  auto delta = [&](const std::string& k) -> double {
    auto b = at_close_.find(k);
    if (b == at_close_.end()) return 0;
    const auto& s = b->second;
    if (s.kind == MetricKind::Gauge) return s.f64;
    auto a = at_open_.find(k);
    std::uint64_t base = a == at_open_.end() ? 0 : a->second.u64;
    return double(s.u64 - std::min(base, s.u64));
  };
  // Sum over every node/name pair the predicate accepts.
  auto sum = [&](auto accept) {
    double total = 0;
    for (const auto& [k, s] : at_close_) {
      if (accept(s.node, s.name)) total += delta(k);
    }
    return total;
  };
  auto total = [&](std::string_view name) {
    return sum([&](const std::string&, const std::string& n) { return n == name; });
  };
  auto at = [&](std::string_view node, std::string_view name) {
    return sum([&](const std::string& nd, const std::string& n) {
      return nd == node && n == name;
    });
  };
  auto at_match = [&](std::string_view node, std::string_view prefix,
                      std::string_view suffix) {
    return sum([&](const std::string& nd, const std::string& n) {
      return nd == node && n.starts_with(prefix) && n.ends_with(suffix);
    });
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  std::uint64_t ops = 0;
  std::vector<sim::Duration> lat[kOpClasses];
  double verify_s = 0;
  for (const Stream& s : streams_) {
    ops += s.completed;
    verify_s += s.verify_s;
    for (int c = 0; c < kOpClasses; ++c) {
      lat[c].insert(lat[c].end(), s.latency[c].begin(), s.latency[c].end());
    }
  }
  for (auto& l : lat) std::sort(l.begin(), l.end());
  const double per_op = ops ? 1.0 / double(ops) : 0.0;
  const double window_ms = double(window_) / 1e6;
  const double events = double(events1_ - events0_);
  const double rounds = double(rounds1_ - rounds0_);

  double disk_util_max = 0;
  for (const auto& [k, s] : at_close_) {
    if (s.node == "storage0" && s.name.starts_with("disk") &&
        s.name.find(".utilization") != std::string::npos) {
      disk_util_max = std::max(disk_util_max, s.f64);
    }
  }
  double nfs_qhwm = 0;
  for (const auto& [k, s] : at_close_) {
    if (s.name == "nfs.queue_hwm") nfs_qhwm = std::max(nfs_qhwm, s.f64);
  }
  const double fs_hits = total("fscache.hits");
  const double fs_misses = total("fscache.misses");
  const double nc_hits = total("ncache.cache.hits");
  const double nc_misses = total("ncache.cache.misses");
  const double peer_local = total("peer.reads_local");
  const double peer_peer = total("peer.reads_peer");
  const double peer_target = total("peer.reads_target");

  json::Value m = json::Value::object();
  auto put = [&](const char* name, double value, const char* unit) {
    json::Value v = json::Value::object();
    v.set("value", value);
    v.set("unit", unit);
    m.set(name, std::move(v));
  };
  // topo / fs image / workload bring-up (host time).
  put("topo.build_s", phase_s("topo.build"), "s");
  put("topo.start_s", phase_s("topo.start") + phase_s("topo.connect"), "s");
  put("fs.image_s", phase_s("fs.image"), "s");
  put("fs.image_share", ratio(phase_s("fs.image"), setup_s_), "frac");
  put("workload.warm_s", phase_s("workload.warm"), "s");
  // Client latency by op class (simulated).
  put("client.read_p50_us", quantile(lat[0], 0.50) / 1e3, "us");
  put("client.read_p99_us", quantile(lat[0], 0.99) / 1e3, "us");
  put("client.write_p99_us", quantile(lat[1], 0.99) / 1e3, "us");
  put("client.meta_p99_us", quantile(lat[2], 0.99) / 1e3, "us");
  put("client.verify_s", verify_s, "s");
  // sim: event loop and engine.
  put("sim.events", events, "count");
  put("sim.events_per_op", events * per_op, "count");
  put("sim.events_per_wall_s", ratio(events, run_s_), "1/s");
  put("sim.clamped_events", at("sim", "clamped_events"), "count");
  put("sim.engine_rounds", rounds, "count");
  put("sim.rounds_per_sim_ms", ratio(rounds, window_ms), "1/ms");
  // Modeled CPUs.
  put("server0.cpu.utilization", at("server0", "cpu.utilization"), "frac");
  put("storage0.cpu.utilization", at("storage0", "cpu.utilization"), "frac");
  put("server0.cpu.busy_ns_per_op", at("server0", "cpu.busy_ns") * per_op, "ns");
  // netbuf.
  put("server0.copy.data_bytes_per_op", at("server0", "copy.data_bytes") * per_op, "B");
  put("server0.copy.logical_ops_per_op",
      at("server0", "copy.logical_ops") * per_op, "count");
  put("host.slab_hits", total("netbuf.slab_hits"), "count");
  put("host.slab_misses", total("netbuf.slab_misses"), "count");
  put("host.pool_recycled",
      sum([](const std::string&, const std::string& n) { return n.ends_with(".recycled"); }),
      "count");
  // proto.
  put("server0.nic.tx_frames_per_op", at_match("server0", "nic", ".tx.frames") * per_op,
      "count");
  put("server0.udp.fragments_per_op", at("server0", "udp.fragments_sent") * per_op,
      "count");
  put("server0.tcp.resets_sent", at("server0", "tcp.resets_sent"), "count");
  // http / nfs.
  put("http.requests", total("http.requests"), "count");
  put("http.connections_per_op", total("http.connections") * per_op, "count");
  put("nfs.requests", total("nfs.requests"), "count");
  put("nfs.queue_hwm", nfs_qhwm, "count");
  put("nfs_client.retransmits", total("nfs_client.retransmits"), "count");
  put("nfs_client.timeouts", total("nfs_client.timeouts"), "count");
  // fs buffer cache.
  put("fscache.hit_ratio", ratio(fs_hits, fs_hits + fs_misses), "frac");
  put("fscache.readahead_blocks", total("fscache.readahead_blocks"), "count");
  put("fscache.writebacks", total("fscache.writebacks"), "count");
  put("fscache.evictions", total("fscache.evictions"), "count");
  // core: the network-centric cache.
  put("ncache.cache.hit_ratio", ratio(nc_hits, nc_hits + nc_misses), "frac");
  put("ncache.frames_substituted_per_op", total("ncache.frames_substituted") * per_op,
      "count");
  put("ncache.substitution_misses", total("ncache.substitution_misses"), "count");
  put("ncache.cache.remaps", total("ncache.cache.remaps"), "count");
  put("ncache.cache.fho_inserts", total("ncache.cache.fho_inserts"), "count");
  put("ncache.cache.evictions", total("ncache.cache.evictions"), "count");
  put("ncache.cache.pinned_mb", total("ncache.cache.pinned_bytes") / double(1 << 20),
      "MB");
  // iscsi.
  put("iscsi.io_retries", total("iscsi.io_retries"), "count");
  put("iscsi.command_timeouts", total("iscsi.command_timeouts"), "count");
  put("iscsi.errors", total("iscsi.errors"), "count");
  // blockdev.
  put("storage0.disk.reads_per_op", at("storage0", "disk.reads") * per_op, "count");
  put("storage0.disk.writes_per_op", at("storage0", "disk.writes") * per_op, "count");
  put("storage0.disk.seek_frac",
      ratio(at_match("storage0", "disk", ".seeks"),
            at_match("storage0", "disk", ".requests")),
      "frac");
  put("storage0.disk.utilization_max", disk_util_max, "frac");
  // cluster.
  put("peer.hit_frac", ratio(peer_peer, peer_local + peer_peer + peer_target), "frac");
  put("peer.reads_target_per_op", peer_target * per_op, "count");
  put("peer.fetch_timeouts", total("peer.fetch_timeouts"), "count");
  return m;
}

json::Value Harness::result() const {
  std::uint64_t attempted = 0, completed = 0, bytes = 0;
  std::uint64_t verify_failures = 0, ops = 0;
  std::uint64_t stream_hash = 0xcbf29ce484222325ull;
  std::vector<sim::Duration> lat;
  for (const Stream& s : streams_) {
    attempted += s.attempted;
    completed += s.completed;
    bytes += s.payload_bytes;
    verify_failures += s.verify_failures;
    ops += s.ops;
    stream_hash = fnv(fnv(stream_hash, s.hash), s.ops);
    for (const auto& l : s.latency) lat.insert(lat.end(), l.begin(), l.end());
  }
  const std::uint64_t failed = attempted - completed;
  std::sort(lat.begin(), lat.end());

  std::uint64_t registry_hash = 0xcbf29ce484222325ull;
  for (const auto& [k, s] : at_close_) {
    if (host_side(s.name)) continue;
    for (char c : k) registry_hash = fnv(registry_hash, std::uint8_t(c));
    std::uint64_t bits = s.u64;
    if (s.kind == MetricKind::Gauge) std::memcpy(&bits, &s.f64, sizeof bits);
    registry_hash = fnv(registry_hash, bits);
  }

  const double window_s = double(window_) / 1e9;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  json::Value r = json::Value::object();
  r.set("workload", opts_.workload);
  r.set("seed", opts_.seed);
  r.set("run_id", run_id_);
  r.set("traced", traced());
  r.set("setup_s", setup_s_);
  r.set("run_s", run_s_);
  r.set("peak_rss_mb", double(ru.ru_maxrss) / 1024.0);
  r.set("attempted", attempted);
  r.set("completed", completed);
  r.set("failed", failed);
  r.set("verify_failures", verify_failures);
  r.set("fail_frac", attempted ? double(failed) / double(attempted) : 1.0);

  json::Value model = json::Value::object();
  model.set("ops_per_s", window_s > 0 ? double(completed) / window_s : 0.0);
  model.set("goodput_mb_s", window_s > 0 ? double(bytes) / 1e6 / window_s : 0.0);
  model.set("p50_us", quantile(lat, 0.50) / 1e3);
  model.set("p99_us", quantile(lat, 0.99) / 1e3);
  model.set("latency_samples", std::uint64_t(lat.size()));
  model.set("p99_tail_samples",
            std::uint64_t(lat.size() - std::size_t(std::ceil(0.99 * double(lat.size())))));
  model.set("window_ns", std::uint64_t(window_));
  r.set("model", std::move(model));

  json::Value digest = json::Value::object();
  digest.set("stream_hash", hex64(stream_hash));
  digest.set("registry_hash", hex64(registry_hash));
  digest.set("ops", ops);
  digest.set("end_ns", std::uint64_t(t_end_));
  r.set("digest", std::move(digest));

  r.set("layers", layers());

  json::Value stamps = json::Value::object();
  stamps.set("nproc", nproc());
  stamps.set("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  stamps.set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  stamps.set("compiler", "gcc " __VERSION__);
#else
  stamps.set("compiler", "unknown");
#endif
#ifdef __OPTIMIZE__
  stamps.set("optimized", true);
#else
  stamps.set("optimized", false);
#endif
  r.set("stamps", std::move(stamps));
  return r;
}

bool Harness::write_trace() const {
  if (!traced()) return true;
  json::Value root = json::Value::object();
  root.set("run_id", run_id_);
  root.set("workload", opts_.workload);
  root.set("seed", opts_.seed);

  // Host-time spans (µs since process start); verify calls are folded per
  // stream into one span each, parented to the run phase.
  json::Value spans = json::Value::array();
  int run_span = -1;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == "sim.run") run_span = int(i);
    json::Value v = json::Value::object();
    v.set("id", std::uint64_t(i));
    v.set("name", s.name);
    v.set("parent", s.parent);
    v.set("start_us", since_start_us(s.start));
    v.set("end_us", since_start_us(s.end));
    spans.push_back(std::move(v));
  }
  for (const Stream& s : streams_) {
    json::Value v = json::Value::object();
    v.set("name", "client.verify.stream" + std::to_string(s.id));
    v.set("parent", run_span);
    v.set("self_s", s.verify_s);
    spans.push_back(std::move(v));
  }
  root.set("spans", std::move(spans));

  // One simulated-time span per client op: [stream, op, class, start, end, ok].
  json::Value ops = json::Value::array();
  for (const Stream& s : streams_) {
    for (const OpSpan& o : s.spans) {
      json::Value v = json::Value::array();
      v.push_back(s.id);
      v.push_back(o.id);
      v.push_back(int(o.cls));
      v.push_back(std::uint64_t(o.start));
      v.push_back(std::uint64_t(o.end));
      v.push_back(o.ok);
      ops.push_back(std::move(v));
    }
  }
  root.set("ops", std::move(ops));

  json::Value marks = json::Value::array();
  for (const json::Value& m : marks_) marks.push_back(m);
  root.set("registry_deltas", std::move(marks));

  // Every registry value at the window's end, so two runs whose registry
  // digests differ can be diffed.
  json::Value end = json::Value::object();
  for (const auto& [k, s] : at_close_) {
    if (s.kind == MetricKind::Gauge) {
      end.set(k, s.f64);
    } else {
      end.set(k, s.u64);
    }
  }
  root.set("registry_at_window_end", std::move(end));

  std::ofstream out(opts_.trace_path);
  out << root.dump(-1) << "\n";
  return bool(out);
}

}  // namespace perfbench
