#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/random.hpp"

namespace nomc::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), SimTime::zero());
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::microseconds(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::microseconds(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::microseconds(20), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::microseconds(30));
}

TEST(Scheduler, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(SimTime::microseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime observed;
  s.schedule_at(SimTime::microseconds(100), [&] {
    s.schedule_in(SimTime::microseconds(50), [&] { observed = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(observed, SimTime::microseconds(150));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(SimTime::microseconds(10), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, CancelTwiceFails) {
  Scheduler s;
  const EventId id = s.schedule_at(SimTime::microseconds(10), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelAfterRunFails) {
  Scheduler s;
  const EventId id = s.schedule_at(SimTime::microseconds(10), [] {});
  s.run_all();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelInvalidIdFails) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(kInvalidEventId));
  EXPECT_FALSE(s.cancel(999));
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler s;
  const EventId a = s.schedule_at(SimTime::microseconds(10), [] {});
  s.schedule_at(SimTime::microseconds(20), [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  int ran = 0;
  s.schedule_at(SimTime::microseconds(10), [&] { ++ran; });
  s.schedule_at(SimTime::microseconds(30), [&] { ++ran; });
  s.run_until(SimTime::microseconds(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), SimTime::microseconds(20));
  // The later event is still pending and runs on the next horizon.
  s.run_until(SimTime::microseconds(40));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.now(), SimTime::microseconds(40));
}

TEST(Scheduler, RunUntilInclusiveOfBoundary) {
  Scheduler s;
  bool ran = false;
  s.schedule_at(SimTime::microseconds(20), [&] { ran = true; });
  s.run_until(SimTime::microseconds(20));
  EXPECT_TRUE(ran);
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWhenEmpty) {
  Scheduler s;
  s.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(s.now(), SimTime::seconds(5.0));
}

TEST(Scheduler, RunUntilSkipsCancelledHeadEvents) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(SimTime::microseconds(5), [&] { ran = true; });
  s.schedule_at(SimTime::microseconds(50), [&] { ran = true; });
  s.cancel(id);
  // Horizon between the two events: the cancelled head must not block or
  // trigger anything.
  s.run_until(SimTime::microseconds(10));
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.now(), SimTime::microseconds(10));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) s.schedule_in(SimTime::microseconds(10), chain);
  };
  s.schedule_at(SimTime::microseconds(10), chain);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime::microseconds(50));
}

TEST(Scheduler, EventsCanCancelOtherEvents) {
  Scheduler s;
  bool victim_ran = false;
  const EventId victim = s.schedule_at(SimTime::microseconds(20), [&] { victim_ran = true; });
  s.schedule_at(SimTime::microseconds(10), [&] { s.cancel(victim); });
  s.run_all();
  EXPECT_FALSE(victim_ran);
}

// Regression for the generation-slot liveness tracking: FIFO tie-breaking at
// equal timestamps must hold even when cancellations recycle slots in the
// middle of the equal-time group, so a reused slot's new event keeps its new
// insertion order and the stale heap entry stays dead.
TEST(Scheduler, FifoTieBreakSurvivesSlotReuse) {
  Scheduler s;
  std::vector<int> order;
  const SimTime at = SimTime::microseconds(5);
  std::vector<EventId> doomed;
  for (int i = 0; i < 4; ++i) {
    doomed.push_back(s.schedule_at(at, [&order] { order.push_back(-1); }));
  }
  s.schedule_at(at, [&order] { order.push_back(0); });
  // Cancelling frees the four slots; the next schedules reuse them while
  // their dead entries are still sitting in the heap at the same timestamp.
  for (const EventId id : doomed) EXPECT_TRUE(s.cancel(id));
  for (int i = 1; i < 6; ++i) {
    s.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(s.executed(), 6u);
}

// A cancelled id whose slot was recycled must not cancel the new tenant.
TEST(Scheduler, StaleIdCannotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule_at(SimTime::microseconds(10), [] {});
  EXPECT_TRUE(s.cancel(old_id));
  bool ran = false;
  s.schedule_at(SimTime::microseconds(10), [&ran] { ran = true; });
  EXPECT_FALSE(s.cancel(old_id));  // stale generation
  s.run_all();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, ExecutedCounts) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.schedule_at(SimTime::microseconds(i), [] {});
  s.run_all();
  EXPECT_EQ(s.executed(), 7u);
}

/// Property: any randomly generated schedule executes in nondecreasing time
/// order, regardless of insertion order and cancellations.
class SchedulerRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerRandomSweep, TotalOrderHolds) {
  Scheduler s;
  RandomStream rng{GetParam(), 0};
  std::vector<SimTime> executed_at;
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    const SimTime at = SimTime::microseconds(rng.uniform_int(0, 10'000));
    ids.push_back(s.schedule_at(at, [&executed_at, &s] { executed_at.push_back(s.now()); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) s.cancel(ids[i]);
  s.run_all();
  EXPECT_EQ(executed_at.size(), 500u - (500u + 2) / 3);
  for (std::size_t i = 1; i < executed_at.size(); ++i) {
    ASSERT_LE(executed_at[i - 1], executed_at[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerRandomSweep, ::testing::Values(1, 2, 3, 4, 5));

// ---- Ordering edge cases ----------------------------------------------------
// Widely mixed time scales, events scheduled behind a far-future one,
// same-timestamp storms, and cancel-heavy churn that triggers the dead-key
// purge: the dequeue order must stay exactly (time, insertion sequence), and
// a cancelled event's closure must die with the cancel.

/// Property: execution order is exactly (time, insertion sequence) — not just
/// nondecreasing time — under heavy churn with a third of the events
/// cancelled. A reference sort of the surviving events must match 1:1.
TEST(Scheduler, RandomizedStressMatchesReferenceOrder) {
  Scheduler s;
  RandomStream rng{20260808, 0};
  struct Expected {
    SimTime at;
    int label;
  };
  std::vector<Expected> expected;
  std::vector<int> executed;
  std::vector<EventId> ids;
  std::vector<int> labels;
  for (int i = 0; i < 5000; ++i) {
    // Mixed scales: dense microsecond traffic plus sparse second-scale tails.
    const SimTime at = rng.uniform_int(0, 9) == 0
                           ? SimTime::milliseconds(rng.uniform_int(0, 5'000))
                           : SimTime::microseconds(rng.uniform_int(0, 20'000));
    ids.push_back(s.schedule_at(at, [&executed, i] { executed.push_back(i); }));
    labels.push_back(i);
    expected.push_back({at, i});
  }
  // Cancel a third; purging their keys must not disturb the order.
  std::vector<bool> cancelled(ids.size(), false);
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(s.cancel(ids[i]));
    cancelled[i] = true;
  }
  std::erase_if(expected, [&](const Expected& e) {
    return cancelled[static_cast<std::size_t>(e.label)];
  });
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Expected& a, const Expected& b) { return a.at < b.at; });
  s.run_all();
  ASSERT_EQ(executed.size(), expected.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    ASSERT_EQ(executed[i], expected[i].label) << "divergence at event " << i;
  }
}

TEST(Scheduler, FarFutureEventRunsOnce) {
  // An hour-long gap after a nanosecond event: the far event must still run,
  // exactly once, and time must land on it.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::nanoseconds(1), [&order] { order.push_back(1); });
  s.schedule_at(SimTime::seconds(3600), [&order] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), SimTime::seconds(3600));
}

TEST(Scheduler, ScheduleBehindFarFutureEventStillRuns) {
  // A horizon-bounded run that stops with a far-future event on top; an
  // event scheduled afterwards at an EARLIER time (but still in the future)
  // must run before it.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::seconds(1), [&order] { order.push_back(1); });
  s.schedule_at(SimTime::seconds(7200), [&order] { order.push_back(3); });
  s.run_until(SimTime::seconds(2));  // runs #1, stops with #3 on top
  ASSERT_EQ(order, (std::vector<int>{1}));
  s.schedule_at(SimTime::seconds(10), [&order] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimestampStormRunsFifo) {
  // Thousands of events at one instant: only the insertion sequence orders
  // them, and the tie-break must hold across the whole storm.
  Scheduler s;
  const SimTime at = SimTime::milliseconds(5);
  std::vector<int> order;
  for (int i = 0; i < 4000; ++i) {
    s.schedule_at(at, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  ASSERT_EQ(order.size(), 4000u);
  for (int i = 0; i < 4000; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, MassCancellationPurgesAndDrains) {
  // Cancel-heavy workloads (CSMA ack timeouts) must not leave the heap full
  // of dead keys: after cancelling 90% the remainder runs normally.
  Scheduler s;
  std::vector<EventId> ids;
  std::vector<int> order;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(s.schedule_at(SimTime::microseconds(i), [&order, i] { order.push_back(i); }));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) {
      ASSERT_TRUE(s.cancel(ids[i]));
    }
  }
  EXPECT_EQ(s.pending(), 1000u);
  s.run_all();
  ASSERT_EQ(order.size(), 1000u);
  for (std::size_t i = 1; i < order.size(); ++i) ASSERT_LT(order[i - 1], order[i]);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, EventsSchedulingEventsAcrossWidthScales) {
  // A self-rescheduling chain that alternates ns-scale and s-scale gaps
  // while events are in flight.
  Scheduler s;
  int hops = 0;
  std::function<void()> hop = [&] {
    ++hops;
    if (hops >= 40) return;
    const SimTime gap =
        hops % 2 == 0 ? SimTime::nanoseconds(50) : SimTime::seconds(hops % 5 + 1);
    s.schedule_in(gap, [&hop] { hop(); });
  };
  s.schedule_at(SimTime::zero(), [&hop] { hop(); });
  s.run_all();
  EXPECT_EQ(hops, 40);
}

TEST(Scheduler, CancelReleasesClosureImmediately) {
  // The key stays in the heap until it surfaces, but the closure (and what
  // it captured) must be released by cancel itself, not by a later pop.
  Scheduler s;
  auto payload = std::make_shared<int>(7);
  const EventId id = s.schedule_at(SimTime::seconds(1), [payload] { (void)*payload; });
  s.schedule_at(SimTime::seconds(2), [] {});
  EXPECT_EQ(payload.use_count(), 2);
  ASSERT_TRUE(s.cancel(id));
  EXPECT_EQ(payload.use_count(), 1);
  // Running an event releases its closure too.
  s.schedule_at(SimTime::milliseconds(500), [payload] { (void)*payload; });
  EXPECT_EQ(payload.use_count(), 2);
  ASSERT_TRUE(s.step());
  EXPECT_EQ(payload.use_count(), 1);
  s.run_all();
  EXPECT_EQ(s.executed(), 2u);
}

}  // namespace
}  // namespace nomc::sim
