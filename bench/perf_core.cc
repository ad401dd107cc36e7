// perf_core — wall-clock microbenchmark of the simulator's two hottest
// paths: EventLoop schedule/dispatch and NetBuffer allocate/release.
//
// Unlike the figure benches, the numbers that matter here are *real* time
// and *real* heap traffic: every byte of simulated output in the paper's
// figures is produced by pumping millions of events and netbufs through
// these two paths, so their per-op cost bounds how fast any experiment can
// run. bench/heap_counter.h counts heap allocations by replacing the global
// operator new/delete, which makes "allocs per op" an exact, deterministic
// measure (same-seed runs emit byte-identical rows; only the "wall"
// sub-blocks vary run to run and are stripped by smoke_bench.sh).
//
// Each row's measured phase runs from the same cold state (fresh loop,
// fresh pool, drained slab) at least kMinRuns times and until kMinTotalMs
// of measured time has passed, and its wall block reports the fastest
// run. On a shared host the same code runs up to ~40 % slower for
// stretches of a few hundred milliseconds (in CPU time as much as in
// wall time), so a single short sample — the smoke parallel_engine phase
// lasts ~25 ms — can read as a regression; the best over a second of
// samples does not, which keeps tools/perf_smoke.sh's same-binary
// comparison meaningful at its tolerance. The deterministic fields
// (events, allocs) must come out identical in every run, or the bench
// fails.
//
// Workload shapes:
//   * event_loop — 16384 self-rescheduling tickers whose delays mix near
//     (sub-4us), medium (sub-1ms) and far (multi-second) targets, i.e.
//     every level of the timer hierarchy. The pending set stays at 16K
//     events, the scale a loaded testbed run holds (per-connection
//     timers, in-flight RPCs, disk completions). Each callback captures
//     24 bytes of state: big enough that a heap-boxed std::function
//     allocates per schedule, small enough that a 48-byte small-buffer
//     callback does not — exactly the shape of the repo's real call
//     sites (shared_ptr + a word or two).
//   * buffer_pool — a 256-slot ring of live buffers cycled through
//     allocate/release across five size classes, half from a pinned
//     BufferPool and half from make_buffer (ordinary kernel memory).
//   * parallel_engine — the same ticker workload split over 4 domains
//     driven by the ParallelEngine, with couriers bouncing between
//     domains to exercise the cross-domain staging and merge path; the
//     wall block carries events_per_sec.
//
// The steady-state phase re-runs the event workload after warm-up and
// reports its absolute allocation count ("steady_allocs"): the slab/SBO
// acceptance bar is that this is exactly zero.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/heap_counter.h"
#include "netbuf/net_buffer.h"
#include "netbuf/slab_cache.h"
#include "sim/event_loop.h"
#include "sim/parallel.h"

namespace ncache::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Each measured phase runs at least kMinRuns times and for at least
/// kMinTotalMs in total; the wall blocks report the fastest run.
constexpr int kMinRuns = 3;
constexpr double kMinTotalMs = 1000;

/// Whether run `rep` is needed after `total_ms` of measured time.
bool another_run(int rep, double total_ms) {
  return rep < kMinRuns || total_ms < kMinTotalMs;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// xorshift64* — deterministic, seeded per ticker.
std::uint64_t next_rng(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dull;
}

// ---- event-loop workload ----------------------------------------------------

struct Ticker {
  sim::EventLoop* loop = nullptr;
  std::uint64_t rng = 0;
  std::uint64_t remaining = 0;
  std::uint64_t sink = 0;  // defeats capture elision
  bool dense = false;      // parallel phase: keep every window populated
};

sim::Duration next_delay(std::uint64_t& rng) {
  std::uint64_t r = next_rng(rng);
  std::uint64_t pick = r % 100;
  if (pick < 70) return r % 4096;                      // near: same-ms burst
  if (pick < 95) return r % sim::kMillisecond;         // medium
  return r % (10 * sim::kSecond);                      // far: upper levels
}

/// Delay mix for the parallel-engine phase: all targets land within a few
/// conservative windows, the shape of a loaded rack (per-request service
/// chains), so each round carries thousands of events per domain and the
/// per-round cost amortizes. The far targets of next_delay() would
/// instead measure the engine's sparse-window overhead.
sim::Duration next_delay_dense(std::uint64_t& rng) {
  std::uint64_t r = next_rng(rng);
  std::uint64_t pick = r % 100;
  if (pick < 70) return r % 4096;           // near
  if (pick < 95) return r % 50'000;         // within one lookahead window
  return r % sim::kMillisecond;             // a few windows out
}

void arm(Ticker* t) {
  if (t->remaining == 0) return;
  --t->remaining;
  sim::Duration d = t->dense ? next_delay_dense(t->rng) : next_delay(t->rng);
  // 24 bytes of captured state: pointer + two salts.
  std::uint64_t s1 = t->rng;
  std::uint64_t s2 = t->rng ^ 0x9e3779b97f4a7c15ull;
  t->loop->schedule_in(d, [t, s1, s2] {
    t->sink += s1 ^ s2;
    arm(t);
  });
}

struct EventPhase {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double wall_ms = 0;
};

EventPhase run_event_phase(sim::EventLoop& loop, std::vector<Ticker>& tickers,
                           std::uint64_t events_per_ticker,
                           std::uint64_t seed_base) {
  for (std::size_t i = 0; i < tickers.size(); ++i) {
    tickers[i].loop = &loop;
    tickers[i].rng = seed_base + i * 0x9e3779b97f4a7c15ull + 1;
    tickers[i].remaining = events_per_ticker;
  }
  std::uint64_t before = loop.dispatched();
  std::uint64_t allocs0 = heap_allocs();
  auto t0 = Clock::now();
  for (auto& t : tickers) arm(&t);
  loop.run();
  EventPhase p;
  p.wall_ms = ms_since(t0);
  p.allocs = heap_allocs() - allocs0;
  p.events = loop.dispatched() - before;
  return p;
}

// ---- buffer workload --------------------------------------------------------

struct BufferPhase {
  std::uint64_t cycles = 0;
  std::uint64_t allocs = 0;
  double wall_ms = 0;
};

BufferPhase run_buffer_phase(netbuf::BufferPool& pool, std::uint64_t cycles,
                             std::uint64_t seed) {
  static constexpr std::size_t kSizes[] = {512, 1460, 4096, 16384, 65536};
  std::vector<netbuf::NetBufferPtr> ring(256);
  std::uint64_t rng = seed;
  // Warm the ring so the measured phase is pure steady-state churn.
  for (auto& slot : ring) {
    slot = pool.allocate(kSizes[next_rng(rng) % 5]);
  }
  std::uint64_t allocs0 = heap_allocs();
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < cycles; ++i) {
    std::uint64_t r = next_rng(rng);
    std::size_t size = kSizes[r % 5];
    auto& slot = ring[(r >> 8) % ring.size()];
    slot.reset();  // release first so the pool budget never blocks us
    slot = (r & 0x10) ? pool.allocate(size) : netbuf::make_buffer(size);
    if (slot) slot->put(1);
  }
  BufferPhase p;
  p.wall_ms = ms_since(t0);
  p.allocs = heap_allocs() - allocs0;
  p.cycles = cycles;
  ring.clear();
  return p;
}

// ---- parallel-engine workload -----------------------------------------------

/// A message bouncing between two domains through the engine's staging
/// path: delivery re-posts from the receiving side, so every hop crosses
/// the merge barrier.
struct Courier {
  sim::ParallelEngine* eng = nullptr;
  std::vector<std::unique_ptr<sim::EventLoop>>* loops = nullptr;
  unsigned src = 0, dst = 0;
  std::uint64_t remaining = 0;
  sim::Duration latency = 0;
};

void hop(Courier* c) {
  if (c->remaining == 0) return;
  --c->remaining;
  sim::EventLoop& from = *(*c->loops)[c->src];
  c->eng->post(c->src, c->dst, from.now() + c->latency, [c] {
    std::swap(c->src, c->dst);  // the reply departs from where we landed
    hop(c);
  });
}

struct ParallelPhase {
  std::uint64_t events = 0;
  double wall_ms = 0;
};

ParallelPhase run_parallel_phase(unsigned domains,
                                 std::uint64_t tickers_per_domain,
                                 std::uint64_t events_per_ticker,
                                 std::uint64_t seed_base) {
  constexpr sim::Duration kLookahead = 50'000;  // 50 us trunk latency
  std::vector<std::unique_ptr<sim::EventLoop>> loops;
  sim::ParallelEngine eng;
  for (unsigned d = 0; d < domains; ++d) {
    loops.push_back(std::make_unique<sim::EventLoop>());
    loops.back()->reserve_pending(tickers_per_domain + 1'024);
    eng.add_domain(*loops.back(), "d" + std::to_string(d));
  }
  eng.set_lookahead(kLookahead);

  std::vector<std::vector<Ticker>> tickers(domains);
  for (unsigned d = 0; d < domains; ++d) {
    tickers[d].resize(tickers_per_domain);
    for (std::size_t i = 0; i < tickers[d].size(); ++i) {
      tickers[d][i].loop = loops[d].get();
      tickers[d][i].rng =
          seed_base + d * 0x1000'0000ull + i * 0x9e3779b97f4a7c15ull + 1;
      tickers[d][i].remaining = events_per_ticker;
      tickers[d][i].dense = true;
    }
  }
  std::vector<Courier> couriers(domains);
  for (unsigned d = 0; d < domains; ++d) {
    couriers[d] = {&eng, &loops, d, (d + 1) % domains,
                   events_per_ticker, kLookahead};
  }

  auto t0 = Clock::now();
  for (auto& dom : tickers) {
    for (auto& t : dom) arm(&t);
  }
  for (unsigned d = 0; d < domains; ++d) {
    Courier* c = &couriers[d];
    loops[d]->schedule_at(0, [c] { hop(c); });
  }
  eng.run();
  ParallelPhase p;
  p.wall_ms = ms_since(t0);
  for (auto& l : loops) p.events += l->dispatched();
  return p;
}

/// Checks run `rep` of a row against its first run: the deterministic
/// fields must agree, else the timing compares different work.
bool same_as_first(const char* row, int rep, bool same) {
  if (!same) {
    std::fprintf(stderr,
                 "perf_core: %s run %d disagrees with run 0 on its "
                 "deterministic fields\n",
                 row, rep);
  }
  return same;
}

int run(int argc, char** argv) {
  BenchOptions opts = BenchOptions::parse(argc, argv);
  quiet_logs();
  BenchReport report(opts, "perf_core",
                     "hot paths should approach zero heap traffic: no "
                     "allocation per steady-state schedule/dispatch cycle, "
                     "recycled storage per buffer cycle");

  const std::uint64_t kTickers = 16'384;
  const std::uint64_t kWarmPerTicker = opts.smoke ? 80 : 320;
  const std::uint64_t kMainPerTicker = opts.smoke ? 160 : 1'200;
  const std::uint64_t kSteadyPerTicker = opts.smoke ? 80 : 320;
  const std::uint64_t kBufferCycles = opts.smoke ? 400'000 : 4'000'000;

  print_header("perf_core — event core & buffer core hot-path cost",
               "wall-clock microbenchmark; simulated output unaffected");

  bool consistent = true;
  EventPhase main_phase;
  EventPhase steady_phase;
  double total_ms = 0;
  for (int rep = 0; another_run(rep, total_ms); ++rep) {
    sim::EventLoop loop;
    std::vector<Ticker> tickers(kTickers);
    // Pre-grow the wheel's node pool past the 16K-event pending set, so
    // the measured phases exercise pure steady state.
    loop.reserve_pending(24'576);
    (void)run_event_phase(loop, tickers, kWarmPerTicker, 0x5eed);
    EventPhase main = run_event_phase(loop, tickers, kMainPerTicker, 0xabcd);
    EventPhase steady =
        run_event_phase(loop, tickers, kSteadyPerTicker, 0xfeed);
    total_ms += main.wall_ms;
    if (rep == 0) {
      main_phase = main;
      steady_phase = steady;
      continue;
    }
    consistent &= same_as_first(
        "event_loop", rep,
        main.events == main_phase.events && main.allocs == main_phase.allocs &&
            steady.events == steady_phase.events &&
            steady.allocs == steady_phase.allocs);
    main_phase.wall_ms = std::min(main_phase.wall_ms, main.wall_ms);
  }

  double ev_per_sec = main_phase.wall_ms > 0
                          ? double(main_phase.events) /
                                (main_phase.wall_ms / 1e3)
                          : 0.0;
  std::printf("event_loop : %llu events, %.1f ms, %.0f events/sec, "
              "%.4f allocs/op, steady_allocs=%llu\n",
              (unsigned long long)main_phase.events, main_phase.wall_ms,
              ev_per_sec,
              double(main_phase.allocs) / double(main_phase.events),
              (unsigned long long)steady_phase.allocs);

  {
    auto row = json::Value::object();
    row.set("case", "event_loop");
    row.set("n_events", main_phase.events);
    row.set("allocs", main_phase.allocs);
    row.set("allocs_per_op",
            double(main_phase.allocs) / double(main_phase.events));
    row.set("steady_events", steady_phase.events);
    row.set("steady_allocs", steady_phase.allocs);
    auto wall = json::Value::object();
    wall.set("wall_ms", main_phase.wall_ms);
    wall.set("events_per_sec", ev_per_sec);
    row.set("wall", std::move(wall));
    report.add_row(std::move(row));
  }

  BufferPhase bufs;
  std::uint64_t pool_allocations = 0;
  std::uint64_t pool_failures = 0;
  total_ms = 0;
  for (int rep = 0; another_run(rep, total_ms); ++rep) {
    // Every run starts from a cold slab, so each one sees the same
    // misses while the free lists fill.
    netbuf::SlabCache::process().drain();
    netbuf::BufferPool pool("perf", 256u << 20);
    (void)run_buffer_phase(pool, kBufferCycles / 10, 0x0b0f);  // warm slabs
    BufferPhase b = run_buffer_phase(pool, kBufferCycles, 0xb0b5);
    total_ms += b.wall_ms;
    if (rep == 0) {
      bufs = b;
      pool_allocations = pool.allocations();
      pool_failures = pool.failures();
      continue;
    }
    consistent &= same_as_first(
        "buffer_pool", rep,
        b.allocs == bufs.allocs && pool.allocations() == pool_allocations &&
            pool.failures() == pool_failures);
    bufs.wall_ms = std::min(bufs.wall_ms, b.wall_ms);
  }

  double bufs_per_sec =
      bufs.wall_ms > 0 ? double(bufs.cycles) / (bufs.wall_ms / 1e3) : 0.0;
  std::printf("buffer_pool: %llu cycles, %.1f ms, %.0f buffers/sec, "
              "%.4f allocs/op\n",
              (unsigned long long)bufs.cycles, bufs.wall_ms, bufs_per_sec,
              double(bufs.allocs) / double(bufs.cycles));

  {
    auto row = json::Value::object();
    row.set("case", "buffer_pool");
    row.set("n_cycles", bufs.cycles);
    row.set("allocs", bufs.allocs);
    row.set("allocs_per_op", double(bufs.allocs) / double(bufs.cycles));
    row.set("pool_allocations", pool_allocations);
    row.set("pool_failures", pool_failures);
    auto wall = json::Value::object();
    wall.set("wall_ms", bufs.wall_ms);
    wall.set("buffers_per_sec", bufs_per_sec);
    row.set("wall", std::move(wall));
    report.add_row(std::move(row));
  }

  // Parallel engine: the dense ticker workload over 4 domains.
  const unsigned kDomains = 4;
  const std::uint64_t kParTickers = opts.smoke ? 2'048 : 4'096;
  const std::uint64_t kParPerTicker = opts.smoke ? 40 : 300;
  {
    ParallelPhase p;
    total_ms = 0;
    for (int rep = 0; another_run(rep, total_ms); ++rep) {
      ParallelPhase r =
          run_parallel_phase(kDomains, kParTickers, kParPerTicker, 0x9a11);
      total_ms += r.wall_ms;
      if (rep == 0) {
        p = r;
        continue;
      }
      consistent &=
          same_as_first("parallel_engine", rep, r.events == p.events);
      p.wall_ms = std::min(p.wall_ms, r.wall_ms);
    }
    if (!consistent) return 1;
    double per_sec =
        p.wall_ms > 0 ? double(p.events) / (p.wall_ms / 1e3) : 0.0;
    std::printf("parallel_engine: %llu events, %.1f ms, %.0f events/sec\n",
                (unsigned long long)p.events, p.wall_ms, per_sec);
    auto row = json::Value::object();
    row.set("case", "parallel_engine");
    row.set("domains", std::uint64_t(kDomains));
    row.set("n_events", p.events);
    auto wall = json::Value::object();
    wall.set("wall_ms", p.wall_ms);
    wall.set("events_per_sec", per_sec);
    row.set("wall", std::move(wall));
    report.add_row(std::move(row));
  }

  report.shape().set("events_allocs_per_op",
                     double(main_phase.allocs) / double(main_phase.events));
  report.shape().set("steady_allocs", steady_phase.allocs);
  report.shape().set("buffers_allocs_per_op",
                     double(bufs.allocs) / double(bufs.cycles));
  return report.write() ? 0 : 1;
}

}  // namespace
}  // namespace ncache::bench

int main(int argc, char** argv) { return ncache::bench::run(argc, argv); }
