// Unit tests for the simulation substrate: event loop ordering, CPU
// queueing/utilization, link serialization, and coroutine integration.
#include <gtest/gtest.h>

#include <vector>

#include "sim/cost_model.h"
#include "sim/cpu_model.h"
#include "sim/event_loop.h"
#include "sim/link.h"

namespace ncache::sim {
namespace {

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
}

TEST(EventLoop, SameTimeFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(100, [&, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.schedule_at(100, [] {});
  loop.run();
  bool fired = false;
  loop.schedule_at(50, [&] { fired = true; });  // in the past
  loop.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), 100u);
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  // Self-rescheduling ticker.
  std::function<void()> tick = [&] {
    ++count;
    loop.schedule_in(10, tick);
  };
  loop.schedule_in(10, tick);
  loop.run_until(100);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), 100u);
  EXPECT_GE(loop.pending(), 1u);
}

TEST(EventLoop, SameTimeFifoAcrossCascadeInterleavings) {
  // Two events for the same instant, scheduled from very different
  // distances: the first lands on an upper wheel level and cascades down,
  // the second is pushed directly near the deadline. FIFO by scheduling
  // order must survive the cascade.
  EventLoop loop;
  std::vector<int> order;
  const Time kT = 3 * kSecond + 12'345;  // upper-level slot from t=0
  loop.schedule_at(kT, [&] { order.push_back(1); });
  loop.run_until(kT - 100);              // cursor now close to kT
  loop.schedule_at(kT, [&] { order.push_back(2); });
  loop.schedule_at(kT, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, ScheduleEarlierThanPendingBatchFiresFirst) {
  // run_until() may have peeked (forming the earliest ready batch) before
  // a later schedule lands strictly between now and that batch: the
  // newcomer must still fire first.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(1'000, [&] { order.push_back(2); });
  loop.run_until(500);  // peeks at the t=1000 event, now()==500
  loop.schedule_at(700, [&] { order.push_back(1); });
  loop.schedule_at(1'000, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 1'000u);
}

TEST(EventLoop, ClampedEventsCounted) {
  EventLoop loop;
  EXPECT_EQ(loop.clamped_events(), 0u);
  loop.schedule_at(100, [] {});
  loop.run();
  loop.schedule_at(40, [] {});  // past: clamps to now()==100
  loop.schedule_at(99, [] {});  // past: clamps too
  loop.schedule_at(100, [] {}); // exactly now: not a clamp
  loop.run();
  EXPECT_EQ(loop.clamped_events(), 2u);
  EXPECT_EQ(loop.now(), 100u);
}

TEST(EventLoop, EventsBeyondWheelHorizonFireInOrder) {
  // Deadlines past the wheel's ~68.7 s horizon wait in the overflow heap
  // and must interleave correctly with near events.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(200 * kSecond, [&] { order.push_back(4); });
  loop.schedule_at(100 * kSecond, [&] { order.push_back(3); });
  loop.schedule_at(100 * kSecond - 1, [&] { order.push_back(2); });
  loop.schedule_at(10, [&] {
    order.push_back(1);
    loop.schedule_at(200 * kSecond, [&] { order.push_back(5); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 200 * kSecond);
}

TEST(EventLoop, NullCallbackIsPureTimeMarker) {
  EventLoop loop;
  loop.schedule_at(500, nullptr);
  EXPECT_EQ(loop.run(), 1u);
  EXPECT_EQ(loop.now(), 500u);
  EXPECT_EQ(loop.dispatched(), 1u);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(10, [&] {
    order.push_back(1);
    loop.schedule_in(5, [&] { order.push_back(2); });
  });
  loop.schedule_at(20, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Cpu, SerializesWork) {
  EventLoop loop;
  CpuModel cpu(loop, "cpu");
  std::vector<Time> finish;
  cpu.submit(100, [&] { finish.push_back(loop.now()); });
  cpu.submit(50, [&] { finish.push_back(loop.now()); });
  cpu.submit(25, [&] { finish.push_back(loop.now()); });
  loop.run();
  EXPECT_EQ(finish, (std::vector<Time>{100, 150, 175}));
}

TEST(Cpu, IdleGapsDoNotAccumulateBusy) {
  EventLoop loop;
  CpuModel cpu(loop, "cpu");
  cpu.submit(100, nullptr);
  loop.schedule_at(1000, [&] { cpu.submit(100, nullptr); });
  loop.run();
  // Force time to 2000 for a clean denominator.
  loop.schedule_at(2000, [] {});
  loop.run();
  EXPECT_NEAR(cpu.utilization(), 200.0 / 2000.0, 1e-9);
}

TEST(Cpu, UtilizationWindowReset) {
  EventLoop loop;
  CpuModel cpu(loop, "cpu");
  cpu.submit(500, nullptr);
  loop.schedule_at(1000, [] {});
  loop.run();
  EXPECT_NEAR(cpu.utilization(), 0.5, 1e-9);
  cpu.restart_window();
  loop.schedule_at(2000, [] {});
  loop.run();
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-9);
}

TEST(Cpu, SaturatedUtilizationIsOne) {
  EventLoop loop;
  CpuModel cpu(loop, "cpu");
  for (int i = 0; i < 10; ++i) cpu.submit(100, nullptr);
  loop.schedule_at(500, [] {});  // half the queued work done by then
  loop.run_until(500);
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
}

TEST(Cpu, AwaitableRun) {
  EventLoop loop;
  CpuModel cpu(loop, "cpu");
  Time done_at = 0;
  auto t_fn = [&]() -> Task<void> {
    co_await cpu.run(250);
    done_at = loop.now();
  };
  auto t = t_fn();
  std::move(t).detach();
  loop.run();
  EXPECT_EQ(done_at, 250u);
}

TEST(Link, SerializationAndLatency) {
  EventLoop loop;
  // 1 Gb/s, 10us latency, 38B overhead.
  Link link(loop, "l", 1'000'000'000, 10'000, 38);
  Time t1 = 0, t2 = 0;
  link.transmit(1462, [&] { t1 = loop.now(); });  // 1500B wire = 12us
  link.transmit(1462, [&] { t2 = loop.now(); });
  loop.run();
  EXPECT_EQ(t1, 22'000u);  // 12us ser + 10us latency
  EXPECT_EQ(t2, 34'000u);  // queued behind the first frame
}

TEST(Link, UtilizationAccounting) {
  EventLoop loop;
  Link link(loop, "l", 1'000'000'000, 0, 0);
  link.transmit(12'500, nullptr);  // 100us at 1Gb/s
  loop.schedule_at(200'000, [] {});
  loop.run();
  EXPECT_NEAR(link.utilization(), 0.5, 1e-6);
  EXPECT_EQ(link.frames(), 1u);
  EXPECT_EQ(link.payload_bytes(), 12'500u);
}

TEST(Link, TxTimeIncludesOverhead) {
  EventLoop loop;
  Link link(loop, "l", 1'000'000'000, 0, 38);
  EXPECT_EQ(link.tx_time(1462), 12'000u);  // (1462+38)*8 ns
}

TEST(SyncWait, ReturnsValue) {
  EventLoop loop;
  auto t_fn = [&]() -> Task<int> {
    co_await sleep_for(loop, 100);
    co_return 7;
  };
  auto t = t_fn();
  EXPECT_EQ(sync_wait(loop, std::move(t)), 7);
  EXPECT_EQ(loop.now(), 100u);
}

TEST(SyncWait, PropagatesException) {
  EventLoop loop;
  auto t_fn = [&]() -> Task<int> {
    co_await sleep_for(loop, 10);
    throw std::runtime_error("bad");
  };
  auto t = t_fn();
  EXPECT_THROW(sync_wait(loop, std::move(t)), std::runtime_error);
}

TEST(CostModelDefaults, SanityRelations) {
  const CostModel& m = default_cost_model();
  // Copying must dominate logical copying by orders of magnitude for a
  // 4 KB block — this gap is the paper's entire premise.
  EXPECT_GT(m.copy_cost(4096), 100 * m.logical_copy_ns);
  EXPECT_TRUE(m.checksum_offload);
  EXPECT_GT(m.packet_tx_ns, 0u);
  EXPECT_EQ(m.copy_cost(0), 0u);
}

}  // namespace
}  // namespace ncache::sim
