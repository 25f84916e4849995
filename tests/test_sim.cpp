// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace repro::sim {
namespace {

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime observed = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150u);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelAfterFireIsNoop) {
  Simulation sim;
  int fires = 0;
  const EventId id = sim.schedule_at(10, [&] { ++fires; });
  sim.run();
  sim.cancel(id);  // must not crash or corrupt
  sim.schedule_at(20, [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulation, CancelUnknownIdIsNoop) {
  Simulation sim;
  sim.cancel(9999);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<SimTime> fired;
  for (SimTime t : {10u, 20u, 30u, 40u}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  const std::size_t count = sim.run_until(25);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 25u);  // clock advances to the deadline
  EXPECT_EQ(sim.pending(), 2u);
}

TEST(Simulation, RunUntilAdvancesClockOnEmptyQueue) {
  Simulation sim;
  sim.run_until(1000);
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 9u);
}

TEST(Simulation, StepExecutesExactlyOne) {
  Simulation sim;
  int fires = 0;
  sim.schedule_at(1, [&] { ++fires; });
  sim.schedule_at(2, [&] { ++fires; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fires, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunHonorsMaxEvents) {
  Simulation sim;
  int fires = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(i, [&] { ++fires; });
  EXPECT_EQ(sim.run(4), 4u);
  EXPECT_EQ(fires, 4);
}

TEST(Simulation, PendingExcludesCancelled) {
  Simulation sim;
  const EventId a = sim.schedule_at(10, [] {});
  sim.schedule_at(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulation, SchedulingIntoThePastAborts) {
  Simulation sim;
  sim.schedule_at(100, [] {});
  sim.run();
  EXPECT_DEATH(sim.schedule_at(50, [] {}), "past");
}

TEST(Simulation, CancelledHeadDoesNotAdvanceClockInRunUntil) {
  Simulation sim;
  const EventId a = sim.schedule_at(10, [] {});
  bool fired = false;
  sim.schedule_at(30, [&] { fired = true; });
  sim.cancel(a);
  sim.run_until(20);
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.now(), 20u);
}

// ---- EventQueue: the heap + slab both executors run on ---------------------

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(7, [&order, i] { order.push_back(i); });
  q.push(3, [&order] { order.push_back(-1); });
  while (q.next_time() != kSimTimeNever) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
}

TEST(EventQueue, StaleIdDoesNotCancelReusedSlot) {
  EventQueue q;
  const EventId first = q.push(10, [] {});
  q.pop()();  // fires; its slot goes back on the free list
  bool fired = false;
  const EventId second = q.push(20, [&] { fired = true; });
  EXPECT_EQ(q.slab_capacity(), 1u);  // the slot was reused...
  EXPECT_NE(first, second);          // ...under a different id
  q.cancel(first);
  EXPECT_EQ(q.pending(), 1u);
  ASSERT_EQ(q.next_time(), 20u);
  q.pop()();
  EXPECT_TRUE(fired);

  // The same holds for a slot freed by cancel().
  const EventId third = q.push(30, [] {});
  q.cancel(third);
  const EventId fourth = q.push(40, [] {});
  q.cancel(third);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 40u);
  q.cancel(fourth);
  EXPECT_EQ(q.next_time(), kSimTimeNever);
}

TEST(EventQueue, CancelUnknownIdsIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEvent);
  q.cancel(9999);
  q.cancel(~EventId{0});
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, CancellingTheRunningEventIsNoop) {
  Simulation sim;
  EventId self = kInvalidEvent;
  bool later_fired = false;
  self = sim.schedule_at(10, [&] {
    // The running event's slot is already free: this may neither cancel
    // the event scheduled just now (which can reuse the slot) nor
    // corrupt the pending count.
    sim.schedule_at(20, [&] { later_fired = true; });
    sim.cancel(self);
    EXPECT_EQ(sim.pending(), 1u);
  });
  sim.run();
  EXPECT_TRUE(later_fired);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(EventQueue, PendingExcludesCancelled) {
  EventQueue q;
  const EventId a = q.push(10, [] {});
  const EventId b = q.push(20, [] {});
  q.push(30, [] {});
  q.cancel(b);
  q.cancel(b);  // twice: still counted once
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.next_time(), 30u);  // cancelled heads are skipped
}

TEST(EventQueue, SlabBoundedByPeakPendingNotTotalScheduled) {
  EventQueue q;
  // Like a replica's round: each tick cancels and re-arms a timer and
  // schedules its successor. At most 2 events are ever pending, while
  // 2001 are scheduled in total.
  EventId timer = kInvalidEvent;
  q.push(0, [] {});
  for (int tick = 0; tick < 1000; ++tick) {
    ASSERT_EQ(q.next_time(), static_cast<SimTime>(tick));
    q.pop()();
    q.cancel(timer);
    timer = q.push(tick + 50, [] {});
    q.push(tick + 1, [] {});
  }
  EXPECT_EQ(q.slab_capacity(), 2u);
  EXPECT_EQ(q.pending(), 2u);
}

}  // namespace
}  // namespace repro::sim
