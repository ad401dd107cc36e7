#include "workloads.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "common/zipf.h"
#include "fs/image_builder.h"
#include "http/client.h"
#include "http/khttpd.h"
#include "testbed/testbed.h"
#include "topo/presets.h"

namespace perfbench {
namespace {

using core::PassMode;
using Scope = Harness::Scope;
using workload::StopFlag;

constexpr sim::Duration kMs = sim::kMillisecond;

/// A file of the generated image: what a client needs to address and
/// verify it.
struct File {
  std::string name;
  std::uint32_t ino = 0;
  std::uint64_t size = 0;
};

/// Adds `count` files of `size` bytes named prefix0.. to the image, one
/// span per add_file, then finishes the image.
std::vector<File> build_image(Harness& h, fs::FsImageBuilder& image,
                              const std::string& prefix, int count,
                              std::uint64_t size) {
  Scope phase(h, "fs.image");
  std::vector<File> files;
  for (int i = 0; i < count; ++i) {
    Scope span(h, "fs.add_file");
    File f{prefix + std::to_string(i), 0, size};
    f.ino = image.add_file(f.name, size);
    if (f.ino == 0) throw std::runtime_error("add_file failed: " + f.name);
    files.push_back(std::move(f));
  }
  Scope span(h, "fs.finish");
  image.finish();
  return files;
}

/// The benchmark seed feeds every generator, each through its own stream.
Pcg32 rng_for(const Harness& h, std::uint64_t stream) {
  return Pcg32(h.options().seed, stream);
}

/// Exponential user think time between a reply and the next request.
/// Without it a saturated server serves its closed-loop clients in strict
/// rotation, and latency quantiles land on the same few values whatever
/// the seed.
auto think(sim::EventLoop& loop, Pcg32& rng, sim::Duration mean) {
  return sim::sleep_for(
      loop, sim::Duration(-std::log(1.0 - rng.uniform()) * double(mean)));
}

/// One timed, verified NFS READ.
Task<void> nfs_read(Harness* h, Stream* s, nfs::NfsClient* cl, const File* f,
                    std::uint64_t off, std::uint32_t len) {
  Ticket t = h->begin_op(*s, cl->loop().now());
  auto r = co_await cl->read(f->ino, off, len);
  bool ok = r.status == nfs::Status::Ok && !r.junk &&
            h->verify(*s, f->ino, off, len, r.data);
  h->end_op(*s, t, cl->loop().now(), OpClass::Read, ok, f->ino, off, len);
}

// ---- nfs_seq_miss ---------------------------------------------------------------
//
// Fig 4's 32 KB point: windowed sequential streams sharing one cursor over
// a file far larger than both server caches, so every read crosses iSCSI.

Task<void> seq_reader(Harness* h, Stream* s, nfs::NfsClient* cl,
                      const File* f, std::uint32_t request,
                      std::uint64_t* cursor, StopFlag* stop) {
  ++stop->live_workers;
  Pcg32 rng = rng_for(*h, 0x5e90000u + std::uint64_t(s->id));
  while (!stop->stopped) {
    co_await think(cl->loop(), rng, 500 * sim::kMicrosecond);
    if (stop->stopped) break;
    std::uint64_t off = *cursor;
    *cursor += request;
    if (*cursor >= f->size) *cursor = 0;
    auto len = std::uint32_t(std::min<std::uint64_t>(request, f->size - off));
    co_await nfs_read(h, s, cl, f, off, len);
  }
  --stop->live_workers;
}

void nfs_seq_miss(Harness& h) {
  const bool tiny = h.options().tiny;
  const std::uint64_t file_bytes = tiny ? 16ull << 20 : 256ull << 20;
  const std::uint32_t request = 32768;
  const int streams_per_client = 6;

  testbed::TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.volume_blocks = 32 * 1024 + (file_bytes >> 12);
  cfg.inode_count = 4096;
  cfg.fs_cache_blocks = tiny ? 512 : 2048;
  cfg.ncache_budget_bytes = tiny ? 6u << 20 : 24u << 20;
  cfg.nfs_daemons = 16;
  cfg.fs_readahead_blocks = 0;
  std::unique_ptr<testbed::Testbed> tb;
  {
    Scope span(h, "topo.build");
    tb = std::make_unique<testbed::Testbed>(cfg);
  }
  topo::World& world = tb->world();
  h.mark(world, "build.end");
  const std::vector<File> files =
      build_image(h, tb->image(), "big", 1, file_bytes);
  h.mark(world, "image.end");
  {
    Scope span(h, "topo.start");
    tb->start_nfs();
  }
  h.mark(world, "start.end");

  // The seed picks where the shared sweep starts (first half of the file).
  Pcg32 rng = rng_for(h, 0x5e9u);
  std::uint64_t cursor =
      std::uint64_t(request) * rng.below(std::uint32_t(file_bytes / request / 2));
  StopFlag stop;
  h.make_streams(tb->client_count() * streams_per_client);
  for (int c = 0; c < tb->client_count(); ++c) {
    for (int k = 0; k < streams_per_client; ++k) {
      seq_reader(&h, &h.stream(c * streams_per_client + k), &tb->nfs_client(c),
                 &files[0], request, &cursor, &stop)
          .detach(tb->loop().reaper());
    }
  }
  h.warm(world, 50 * kMs);
  h.begin_window(world);
  if (h.options().inject_read_fault) {
    // Transient latent sector errors on the next two disk reads of the
    // file's data region: the initiator must retry them transparently.
    const auto& sb = tb->image().superblock();
    tb->store().inject_read_fault(
        sb.data_start, std::uint32_t(tb->image().blocks_used() - sb.data_start),
        blockdev::DiskFaultKind::LatentSectorError, 2);
  }
  h.run_window(world, (tiny ? 60 : 3000) * kMs, stop);
}

// ---- web_hot_hit -------------------------------------------------------------------
//
// Fig 6(b): kHTTPd over TCP, one connection per request, 64 KB pages in a
// 5 MB hot set warmed before the window. No disk or iSCSI work is left.
// Clients think for an exponential time (seeded) between requests.

struct Page {
  std::string path;
  File file;
};

/// One timed, verified GET of a whole page.
Task<void> get_page(Harness* h, Stream* s, http::HttpClient* client,
                    sim::EventLoop* loop, const Page* p) {
  Ticket t = h->begin_op(*s, loop->now());
  auto r = co_await client->get(p->path);
  bool ok = r.status == 200 && !r.junk &&
            h->verify(*s, p->file.ino, 0, p->file.size, r.body);
  h->end_op(*s, t, loop->now(), OpClass::Read, ok, p->file.ino, 0,
            p->file.size);
}

Task<void> web_reader(Harness* h, Stream* s, http::HttpClient* client,
                      sim::EventLoop* loop, const std::vector<Page>* pages,
                      StopFlag* stop) {
  ++stop->live_workers;
  Pcg32 rng = rng_for(*h, 0x77eb0000u + std::uint64_t(s->id));
  while (!stop->stopped) {
    co_await think(*loop, rng, 2 * kMs);
    if (stop->stopped) break;
    co_await get_page(h, s, client, loop,
                      &(*pages)[rng.below(std::uint32_t(pages->size()))]);
  }
  --stop->live_workers;
}

Task<void> warm_pages(Harness* h, Stream* s, http::HttpClient* client,
                      sim::EventLoop* loop, const std::vector<Page>* pages) {
  for (const Page& p : *pages) co_await get_page(h, s, client, loop, &p);
}

void web_hot_hit(Harness& h) {
  const bool tiny = h.options().tiny;
  const std::uint64_t page_bytes = 64 * 1024;
  const int page_count = tiny ? 8 : int((5u << 20) / page_bytes);
  const int conns_per_client = tiny ? 2 : 8;

  testbed::TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.volume_blocks = 16 * 1024;
  cfg.fs_cache_blocks = 4 * 1024;
  cfg.ncache_budget_bytes = 64ull << 20;
  std::unique_ptr<testbed::Testbed> tb;
  {
    Scope span(h, "topo.build");
    tb = std::make_unique<testbed::Testbed>(cfg);
  }
  topo::World& world = tb->world();
  h.mark(world, "build.end");
  std::vector<Page> pages;
  for (File& f : build_image(h, tb->image(), "h", page_count, page_bytes)) {
    pages.push_back(Page{"/" + f.name, std::move(f)});
  }
  h.mark(world, "image.end");

  std::unique_ptr<http::KHttpd> server;
  {
    Scope span(h, "topo.start");
    tb->start_base();
    http::KHttpd::Config hc;
    hc.mode = PassMode::NCache;
    server = std::make_unique<http::KHttpd>(tb->server_node().stack, tb->fs(),
                                            hc, tb->ncache());
    server->register_metrics(tb->metrics(), "server0");
    server->start();
  }
  std::vector<std::unique_ptr<http::HttpClient>> clients;
  {
    Scope span(h, "topo.connect");
    for (int c = 0; c < tb->client_count(); ++c) {
      for (int k = 0; k < conns_per_client; ++k) {
        auto cl = std::make_unique<http::HttpClient>(
            tb->client_node(c).stack, tb->client_ip(c), tb->server_ip(0));
        if (!sim::sync_wait(tb->loop(), cl->connect())) {
          throw std::runtime_error("http connect failed");
        }
        cl->set_connection_per_request(true);
        clients.push_back(std::move(cl));
      }
    }
  }
  h.mark(world, "start.end");

  h.make_streams(int(clients.size()));
  {
    Scope span(h, "workload.warm");
    sim::sync_wait(tb->loop(), warm_pages(&h, &h.stream(0), clients[0].get(),
                                          &tb->loop(), &pages));
  }
  StopFlag stop;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    web_reader(&h, &h.stream(int(i)), clients[i].get(), &tb->loop(), &pages,
               &stop)
        .detach(tb->loop().reaper());
  }
  h.warm(world, 20 * kMs);
  h.begin_window(world);
  h.run_window(world, (tiny ? 40 : 4000) * kMs, stop);
}

// ---- nfs_sfs_mix ---------------------------------------------------------------------
//
// Fig 7 at 75 % data ops, read:write 5:1, memory-equal split, with a
// periodic fs sync. Writes store the file's own content pattern, so every
// read verifies under any interleaving of readers and writers.

struct SfsMix {
  double data_op_fraction = 0.75;
  double read_fraction = 5.0 / 6.0;
  std::vector<std::uint32_t> size_table = {
      4096, 4096, 4096, 4096, 4096,  4096,  4096,  4096,
      8192, 8192, 8192, 8192, 16384, 16384, 32768};
};

Task<void> sfs_worker(Harness* h, Stream* s, nfs::NfsClient* cl,
                      const std::vector<File>* files, const SfsMix* mix,
                      StopFlag* stop) {
  ++stop->live_workers;
  Pcg32 rng = rng_for(*h, 0x5f5f0000u + std::uint64_t(s->id));
  std::vector<std::byte> buf(32768);
  const auto n = std::uint32_t(files->size());
  while (!stop->stopped) {
    co_await think(cl->loop(), rng, 500 * sim::kMicrosecond);
    if (stop->stopped) break;
    const File& f = (*files)[rng.below(n)];
    if (rng.uniform() >= mix->data_op_fraction) {
      // Metadata: GETATTR-heavy, some LOOKUPs in the root directory.
      if (rng.uniform() < 0.7) {
        Ticket t = h->begin_op(*s, cl->loop().now());
        auto attr = co_await cl->getattr(f.ino);
        bool ok = attr && attr->type == fs::InodeType::File &&
                  attr->size == f.size;
        h->end_op(*s, t, cl->loop().now(), OpClass::Meta, ok, f.ino, 0, 0);
      } else {
        const File& g = (*files)[rng.below(n)];
        Ticket t = h->begin_op(*s, cl->loop().now());
        auto found = co_await cl->lookup(fs::kRootIno, g.name);
        bool ok = found && *found == g.ino;
        h->end_op(*s, t, cl->loop().now(), OpClass::Meta, ok, g.ino, 1, 0);
      }
      continue;
    }
    std::uint32_t req = mix->size_table[rng.below(
        std::uint32_t(mix->size_table.size()))];
    std::uint64_t chunks = f.size > req ? f.size / req : 1;
    std::uint64_t off = std::uint64_t(rng.below(std::uint32_t(chunks))) * req;
    auto len = std::uint32_t(std::min<std::uint64_t>(req, f.size - off));
    if (rng.uniform() < mix->read_fraction) {
      co_await nfs_read(h, s, cl, &f, off, len);
    } else {
      // Block-aligned write (NCache's aligned path) of the bytes the file
      // already holds there.
      std::uint32_t wlen = len < 4096 ? 4096 : len & ~4095u;
      std::uint64_t woff = off & ~4095ull;
      std::span<std::byte> data(buf.data(), wlen);
      fs::fill_content(f.ino, woff, data);
      Ticket t = h->begin_op(*s, cl->loop().now());
      nfs::Status st = co_await cl->write(f.ino, woff, data);
      h->end_op(*s, t, cl->loop().now(), OpClass::Write, st == nfs::Status::Ok,
                f.ino, woff, wlen);
    }
  }
  --stop->live_workers;
}

/// bdflush stand-in: periodic fs sync so writes reach the storage server.
Task<void> flusher(testbed::Testbed* tb, StopFlag* stop) {
  while (!stop->stopped) {
    co_await sim::sleep_for(tb->loop(), 200 * kMs);
    if (stop->stopped) break;
    co_await tb->fs().sync();
  }
}

Task<void> warm_files(Harness* h, Stream* s, nfs::NfsClient* cl,
                      const std::vector<File>* files) {
  for (const File& f : *files) {
    for (std::uint64_t off = 0; off < f.size; off += 32768) {
      auto len = std::uint32_t(std::min<std::uint64_t>(32768, f.size - off));
      co_await nfs_read(h, s, cl, &f, off, len);
    }
  }
}

void nfs_sfs_mix(Harness& h) {
  const bool tiny = h.options().tiny;
  // 16 MB, not Fig 7's 51 MB: the pool must never evict. Evicting a chunk
  // the fs cache still holds a key to makes egress substitution miss and
  // ship an unsubstituted payload, which the verifier rejects; at 51 MB
  // that happens within the first second.
  const std::uint64_t active_bytes = tiny ? 6ull << 20 : 16ull << 20;
  const int file_count = tiny ? 24 : 200;
  const int workers_per_client = tiny ? 4 : 32;

  testbed::TestbedConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.volume_blocks = tiny ? 32 * 1024 : 144 * 1024;
  cfg.inode_count = 8192;
  // Memory-equal split of 128 MB: 64 MB fs cache, 64 MB NCache pool.
  cfg.fs_cache_blocks = (64u << 20) / fs::kBlockSize;
  cfg.ncache_budget_bytes = 64u << 20;
  cfg.nfs_daemons = 24;
  cfg.fs_readahead_blocks = 2;
  std::unique_ptr<testbed::Testbed> tb;
  {
    Scope span(h, "topo.build");
    tb = std::make_unique<testbed::Testbed>(cfg);
  }
  topo::World& world = tb->world();
  h.mark(world, "build.end");
  const std::vector<File> files = build_image(
      h, tb->image(), "sfs", file_count, active_bytes / std::uint64_t(file_count));
  h.mark(world, "image.end");
  {
    Scope span(h, "topo.start");
    tb->start_nfs();
  }
  h.mark(world, "start.end");

  h.make_streams(tb->client_count() * workers_per_client);
  {
    Scope span(h, "workload.warm");
    sim::sync_wait(tb->loop(),
                   warm_files(&h, &h.stream(0), &tb->nfs_client(0), &files));
  }
  const SfsMix mix;
  StopFlag stop;
  for (int c = 0; c < tb->client_count(); ++c) {
    for (int k = 0; k < workers_per_client; ++k) {
      sfs_worker(&h, &h.stream(c * workers_per_client + k), &tb->nfs_client(c),
                 &files, &mix, &stop)
          .detach(tb->loop().reaper());
    }
  }
  flusher(tb.get(), &stop).detach(tb->loop().reaper());
  h.warm(world, (tiny ? 50 : 500) * kMs);
  h.begin_window(world);
  h.run_window(world, (tiny ? 100 : 3000) * kMs, stop);
}

// ---- racks_zipf ------------------------------------------------------------------------
//
// presets::cluster_racks(8, 2) partitioned one domain per switch and run by
// a 2-thread ParallelEngine; rack servers peer without a balancer. Zipf
// 32 KB reads over 32 x 64 KB files. After the 150 ms warm-up the cold
// start's storage reads are over; the ~0.3 % of reads that still miss a
// server's fs cache are served by a peer, and the latency tail is steady.

Task<void> zipf_reader(Harness* h, Stream* s, nfs::NfsClient* cl,
                       const std::vector<File>* files, const ZipfSampler* zipf,
                       StopFlag* stop) {
  ++stop->live_workers;
  constexpr std::uint32_t kChunk = 32768;
  Pcg32 rng = rng_for(*h, 0x5ca1e000u + std::uint64_t(s->id));
  while (!stop->stopped) {
    co_await think(cl->loop(), rng, 100 * sim::kMicrosecond);
    if (stop->stopped) break;
    const File& f = (*files)[zipf->sample(rng)];
    std::uint64_t off =
        std::uint64_t(kChunk) * rng.below(std::uint32_t(f.size / kChunk));
    co_await nfs_read(h, s, cl, &f, off, kChunk);
  }
  --stop->live_workers;
}

void racks_zipf(Harness& h) {
  const bool tiny = h.options().tiny;
  topo::WorldConfig cfg;
  cfg.mode = PassMode::NCache;
  cfg.partitioned = true;
  cfg.threads = 2;
  cfg.peer_without_balancer = true;
  cfg.fault_seed = h.options().seed;
  std::unique_ptr<topo::World> world;
  {
    Scope span(h, "topo.build");
    world = std::make_unique<topo::World>(
        topo::presets::cluster_racks(tiny ? 4 : 8, tiny ? 1 : 2), cfg);
  }
  h.mark(*world, "build.end");
  std::vector<File> files =
      build_image(h, world->image(), "z", 32, 64 * 1024);
  h.mark(*world, "image.end");
  {
    Scope span(h, "topo.start");
    world->start_nfs();
  }
  h.mark(*world, "start.end");

  // The seed decides which files are popular.
  Pcg32 rng = rng_for(h, 0x2a11u);
  for (std::size_t i = files.size(); i > 1; --i) {
    std::swap(files[i - 1], files[rng.below(std::uint32_t(i))]);
  }
  const ZipfSampler zipf(files.size(), 0.98);
  StopFlag stop;
  const int streams_per_client = 4;
  h.make_streams(world->client_count() * streams_per_client);
  for (int c = 0; c < world->client_count(); ++c) {
    unsigned d = world->domain_of("client" + std::to_string(c));
    for (int k = 0; k < streams_per_client; ++k) {
      zipf_reader(&h, &h.stream(c * streams_per_client + k),
                  &world->nfs_client(c), &files, &zipf, &stop)
          .detach(world->engine().domain_loop(d).reaper());
    }
  }
  h.warm(*world, (tiny ? 20 : 150) * kMs);
  h.begin_window(*world);
  h.run_window(*world, (tiny ? 60 : 600) * kMs, stop);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "nfs_seq_miss", "web_hot_hit", "nfs_sfs_mix", "racks_zipf"};
  return names;
}

void run_workload(Harness& h) {
  const std::string& w = h.options().workload;
  if (w == "nfs_seq_miss") return nfs_seq_miss(h);
  if (w == "web_hot_hit") return web_hot_hit(h);
  if (w == "nfs_sfs_mix") return nfs_sfs_mix(h);
  if (w == "racks_zipf") return racks_zipf(h);
  throw std::invalid_argument("unknown workload: " + w);
}

}  // namespace perfbench
