// Differential tests for the hierarchical timer wheel against a reference
// priority queue — the dispatch-order oracle the old event core was built
// on. The wheel replaced the heap for speed; these tests pin down that it
// kept the heap's total order exactly ((time, seq) lexicographic), which
// every same-seed byte-identical BENCH file depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/timer_wheel.h"

namespace ncache::sim {
namespace {

// xorshift64* — same generator the benches use; fixed seeds keep the test
// deterministic.
std::uint64_t next_rng(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545f4914f6cdd1dull;
}

// Delay mix covering every wheel path: same-tick, level-0/1 near, mid
// levels, top levels, and past-horizon overflow (> ~68.7 simulated s).
Duration random_delay(std::uint64_t& rng) {
  std::uint64_t r = next_rng(rng);
  switch (r % 6) {
    case 0: return 0;                              // same tick
    case 1: return r % 64;                         // level 0
    case 2: return r % 4096;                       // level 1
    case 3: return r % kMillisecond;               // mid levels
    case 4: return r % (60 * kSecond);             // top levels
    default: return r % (200 * kSecond);           // mostly overflow heap
  }
}

TEST(TimerWheelDifferential, MatchesReferencePriorityQueue) {
  TimerWheel wheel;
  using Key = std::pair<Time, std::uint64_t>;  // (at, seq)
  std::set<Key> ref;
  // Pending nodes by seq, for random cancels (a node is pending while its
  // seq still matches, exactly the EventLoop's handle rule).
  std::vector<std::pair<TimerWheel::Node*, std::uint64_t>> handles;

  std::uint64_t rng = 0xd1ffe7e57ull;
  Time now = 0;
  std::uint64_t seq = 0;
  constexpr int kOps = 1'000'000;

  for (int i = 0; i < kOps; ++i) {
    std::uint64_t r = next_rng(rng);
    ASSERT_EQ(wheel.next_time(),
              ref.empty() ? TimerWheel::kNoLimit : ref.begin()->first);
    if (!ref.empty() && r % 100 < 30) {
      TimerWheel::Entry e;
      ASSERT_TRUE(wheel.pop(e));
      Key expect = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(e.at, expect.first) << "op " << i;
      ASSERT_EQ(e.seq, expect.second) << "op " << i;
      now = e.at;
    } else if (!ref.empty() && r % 100 < 40) {
      // Bounded pop: the earliest entry if it is due by `limit`, else
      // nothing — and the cursor must not run past `limit`, which the
      // later order checks would catch.
      Time limit = now + random_delay(rng);
      TimerWheel::Node* n = wheel.pop_node(limit);
      Key expect = *ref.begin();
      if (expect.first > limit) {
        ASSERT_EQ(n, nullptr) << "op " << i;
        continue;
      }
      ASSERT_NE(n, nullptr) << "op " << i;
      ASSERT_EQ(n->e.at, expect.first) << "op " << i;
      ASSERT_EQ(n->e.seq, TimerWheel::kNoSeq) << "popped nodes go stale";
      ref.erase(ref.begin());
      now = n->e.at;
      wheel.recycle(n);
    } else if (!handles.empty() && r % 100 < 55) {
      // Cancel a random handle; stale ones (fired or cancelled) are
      // skipped as the EventLoop would.
      std::size_t k = std::size_t(next_rng(rng) % handles.size());
      auto [node, hseq] = handles[k];
      handles[k] = handles.back();
      handles.pop_back();
      if (node->e.seq != hseq) continue;
      Time at = node->e.at;
      wheel.cancel(node);
      ASSERT_EQ(ref.erase(Key{at, hseq}), 1u) << "op " << i;
    } else {
      Time at = now + random_delay(rng);
      handles.emplace_back(wheel.push(at, seq, InlineCallback{}), seq);
      ref.emplace(at, seq);
      ++seq;
    }
    ASSERT_EQ(wheel.size(), ref.size());
  }

  // Drain both completely; the tail must agree too.
  while (!ref.empty()) {
    TimerWheel::Entry e;
    ASSERT_TRUE(wheel.pop(e));
    Key expect = *ref.begin();
    ref.erase(ref.begin());
    ASSERT_EQ(e.at, expect.first);
    ASSERT_EQ(e.seq, expect.second);
  }
  TimerWheel::Entry e;
  EXPECT_FALSE(wheel.pop(e));
  EXPECT_TRUE(wheel.empty());
}

TEST(TimerWheelDifferential, PeekNeverDisagreesWithPop) {
  TimerWheel wheel;
  std::uint64_t rng = 0x9eec1234ull;
  Time now = 0;
  std::uint64_t seq = 0;
  for (int i = 0; i < 50'000; ++i) {
    std::uint64_t r = next_rng(rng);
    if (!wheel.empty() && r % 3 == 0) {
      Time at = wheel.next_time();
      ASSERT_NE(at, TimerWheel::kNoLimit);
      TimerWheel::Entry e;
      ASSERT_TRUE(wheel.pop(e));
      ASSERT_EQ(e.at, at);
      now = e.at;
    } else {
      wheel.push(now + random_delay(rng), seq++, InlineCallback{});
    }
  }
}

// End-to-end through the EventLoop: N randomized top-level schedules must
// dispatch in stable (time, insertion) order and all be counted.
TEST(TimerWheelDifferential, EventLoopDispatchesInStableTimeOrder) {
  EventLoop loop;
  constexpr int kEvents = 100'000;
  std::uint64_t rng = 0x10af00d5ull;

  struct Ref {
    Time at;
    int id;
  };
  std::vector<Ref> ref;
  ref.reserve(kEvents);
  std::vector<int> fired;
  fired.reserve(kEvents);

  std::uint64_t before = loop.dispatched();
  for (int id = 0; id < kEvents; ++id) {
    Time at = random_delay(rng);  // absolute, loop starts at 0
    ref.push_back({at, id});
    loop.schedule_at(at, [&fired, id] { fired.push_back(id); });
  }
  loop.run();

  ASSERT_EQ(loop.dispatched() - before, std::uint64_t(kEvents));
  ASSERT_EQ(fired.size(), std::size_t(kEvents));
  std::stable_sort(ref.begin(), ref.end(),
                   [](const Ref& a, const Ref& b) { return a.at < b.at; });
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(fired[i], ref[i].id) << "position " << i;
  }
}

}  // namespace
}  // namespace ncache::sim

namespace ncache::sim {
namespace {

TEST(EventLoopCancel, CancelledEventNeverRunsNorCounts) {
  EventLoop loop;
  int fired = 0;
  TimerHandle dead = loop.schedule_in(5 * kMillisecond, [&] { fired += 100; });
  loop.schedule_in(kMillisecond, [&] { ++fired; });
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(dead);
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.dispatched(), 1u);
  // The clock stops at the last live event, not at the cancelled one.
  EXPECT_EQ(loop.now(), kMillisecond);
  EXPECT_TRUE(loop.idle());
  loop.cancel(dead);  // stale: a no-op
  loop.cancel(TimerHandle{});
}

TEST(EventLoopCancel, CancelDestroysTheCallbackAtOnce) {
  EventLoop loop;
  auto owned = std::make_shared<int>(7);
  std::weak_ptr<int> watch = owned;
  TimerHandle h = loop.schedule_in(kSecond, [p = std::move(owned)] {});
  EXPECT_FALSE(watch.expired());
  loop.cancel(h);
  EXPECT_TRUE(watch.expired());
}

TEST(EventLoopCancel, CancelDuringOwnDispatchIsANoOp) {
  EventLoop loop;
  TimerHandle self;
  int runs = 0;
  self = loop.schedule_in(kMicrosecond, [&] {
    ++runs;
    loop.cancel(self);  // the event is running: nothing to cancel
    loop.schedule_in(kMicrosecond, [&] { ++runs; });
  });
  loop.run();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(loop.dispatched(), 2u);
}

TEST(EventLoopCancel, StaleHandleIgnoredAfterNodeReuse) {
  EventLoop loop;
  int fired = 0;
  TimerHandle first = loop.schedule_in(kMillisecond, [&] { fired += 1; });
  loop.cancel(first);
  // The pool hands the freed node straight back to the next schedule.
  TimerHandle second = loop.schedule_in(kMillisecond, [&] { fired += 10; });
  ASSERT_EQ(second.node, first.node);
  ASSERT_NE(second.seq, first.seq);
  loop.cancel(first);  // names the old event, not the node's new one
  loop.run();
  EXPECT_EQ(fired, 10);

  // Same after the first event fired rather than being cancelled.
  TimerHandle fired_h = loop.schedule_in(kMillisecond, [&] { fired += 100; });
  loop.run();
  TimerHandle reused = loop.schedule_in(kMillisecond, [&] { fired += 1000; });
  ASSERT_EQ(reused.node, fired_h.node);
  loop.cancel(fired_h);
  loop.run();
  EXPECT_EQ(fired, 1110);
}

TEST(EventLoopCancel, PushAfterNextEventTimeDispatchesInOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_in(200 * kMillisecond, [&] { order.push_back(3); });
  // Reading the next event time must not move the wheel past the clock:
  // events scheduled afterwards, before that event, still run first and
  // in time order.
  EXPECT_EQ(loop.next_event_time(), 200 * kMillisecond);
  loop.schedule_in(2 * kMillisecond, [&] { order.push_back(2); });
  loop.schedule_in(kMillisecond, [&] { order.push_back(1); });
  EXPECT_EQ(loop.next_event_time(), kMillisecond);
  // run_until stops the cursor at its deadline; later schedules that
  // land between the deadline and the pending event keep their order.
  loop.run_until(kMicrosecond);
  loop.schedule_in(150 * kMillisecond, [&] { order.push_back(25); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 25, 3}));
}

TEST(EventLoopCancel, CancelFromADestructorDuringTeardownIsSafe) {
  // A callback owning an object that cancels its own timer when
  // destroyed — the TCP connection shape — must tear down cleanly.
  struct Owner {
    EventLoop* loop;
    TimerHandle timer;
    ~Owner() { loop->cancel(timer); }
  };
  auto loop = std::make_unique<EventLoop>();
  auto owner = std::make_shared<Owner>();
  owner->loop = loop.get();
  owner->timer = loop->schedule_in(kSecond, nullptr);
  loop->schedule_in(2 * kSecond, [o = std::move(owner)] {});
  loop.reset();  // destroys the callback holding the owner
}

}  // namespace
}  // namespace ncache::sim
