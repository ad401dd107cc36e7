#include "sim/parallel.h"

#include <algorithm>
#include <stdexcept>

namespace ncache::sim {

unsigned ParallelEngine::add_domain(EventLoop& loop, std::string name) {
  if (running_) {
    throw std::logic_error("ParallelEngine: add_domain after first run");
  }
  auto d = std::make_unique<Domain>();
  d->loop = &loop;
  d->name = std::move(name);
  domains_.push_back(std::move(d));
  return unsigned(domains_.size() - 1);
}

void ParallelEngine::post(unsigned src, unsigned dst, Time at,
                          InlineCallback fn) {
  Domain& s = *domains_.at(src);
  s.outbox.at(dst).push_back(Msg{at, s.out_seq++, std::move(fn)});
}

Time ParallelEngine::next_floor() {
  Time floor = EventLoop::kNoEvent;
  for (auto& d : domains_) {
    floor = std::min(floor, d->loop->next_event_time());
  }
  return floor;
}

void ParallelEngine::merge_outboxes() {
  struct Item {
    Time at;
    unsigned src;
    std::uint64_t seq;
    InlineCallback* fn;
  };
  const unsigned n = domain_count();
  std::vector<Item> items;
  for (unsigned dst = 0; dst < n; ++dst) {
    items.clear();
    for (unsigned src = 0; src < n; ++src) {
      for (Msg& m : domains_[src]->outbox[dst]) {
        items.push_back(Item{m.at, src, m.seq, &m.fn});
      }
    }
    // Total order over the inbox: arrival time, then source domain, then
    // send order within the source. This is a pure function of what the
    // domains staged, so the destination loop's (time, seq) stream does
    // not depend on the order the windows ran in.
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.src != b.src) return a.src < b.src;
      return a.seq < b.seq;
    });
    for (Item& it : items) {
      domains_[dst]->loop->schedule_at(it.at, std::move(*it.fn));
    }
    for (unsigned src = 0; src < n; ++src) domains_[src]->outbox[dst].clear();
  }
}

std::size_t ParallelEngine::round(Time limit) {
  std::size_t total = 0;
  for (auto& d : domains_) total += d->loop->run_before(limit);
  merge_outboxes();
  ++rounds_;
  return total;
}

std::size_t ParallelEngine::run(const std::function<bool()>& stop) {
  if (domains_.empty()) return 0;
  if (domain_count() > 1 && lookahead_ == 0) {
    throw std::logic_error("ParallelEngine: lookahead must be > 0");
  }
  running_ = true;
  for (auto& d : domains_) d->outbox.resize(domain_count());

  std::size_t total = 0;
  for (;;) {
    if (stop && stop()) break;
    Time floor = next_floor();
    if (floor == EventLoop::kNoEvent) break;
    Time limit =
        domain_count() == 1 ? EventLoop::kNoEvent : floor + lookahead_;
    total += round(limit);
  }
  return total;
}

std::size_t ParallelEngine::run_until(Time deadline) {
  if (domains_.empty()) return 0;
  if (domain_count() > 1 && lookahead_ == 0) {
    throw std::logic_error("ParallelEngine: lookahead must be > 0");
  }
  running_ = true;
  for (auto& d : domains_) d->outbox.resize(domain_count());

  std::size_t total = 0;
  for (;;) {
    Time floor = next_floor();
    if (floor == EventLoop::kNoEvent || floor > deadline) break;
    Time limit = deadline + 1;  // run_before is strict, so events at
                                // exactly `deadline` still run
    if (domain_count() > 1) {
      limit = std::min(limit, floor + lookahead_);
    }
    total += round(limit);
  }
  for (auto& d : domains_) d->loop->advance_to(deadline);
  return total;
}

Time ParallelEngine::now() const noexcept {
  Time latest = 0;
  for (auto& d : domains_) latest = std::max(latest, d->loop->now());
  return latest;
}

}  // namespace ncache::sim
