#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace fastcons {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::string log;
  sim.schedule_at(1.0, [&] { log += 'a'; });
  sim.schedule_at(1.0, [&] { log += 'b'; });
  sim.schedule_at(1.0, [&] { log += 'c'; });
  sim.run();
  EXPECT_EQ(log, "abc");
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(0.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(SimulatorTest, NestedSchedulingDuringEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    sim.schedule_in(0.0, [&] { order.push_back(2); });  // same time, later seq
  });
  sim.schedule_at(1.0, [&] { order.push_back(3); });
  sim.run();
  // The nested zero-delay event was inserted after event 3.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const TimerHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, CancelDefaultHandleIsSafe) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(TimerHandle{}));
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorTest, RunUntilExecutesOnlyDueEvents) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  sim.schedule_at(5.0, [&] { ++count; });
  EXPECT_EQ(sim.run_until(3.0), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 3.0);  // advances to the deadline
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesTimeOnEmptyQueue) {
  Simulator sim;
  sim.run_until(7.5);
  EXPECT_EQ(sim.now(), 7.5);
}

TEST(SimulatorTest, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StopInterruptsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<double>(i), [&] {
      ++count;
      if (count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  // A fresh run resumes the remaining events.
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, StepExecutesSingleEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelledEventsDoNotCountAsSteps) {
  Simulator sim;
  const TimerHandle h = sim.schedule_at(1.0, [] {});
  bool fired = false;
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.cancel(h);
  EXPECT_TRUE(sim.step());  // skips the cancelled entry, runs the live one
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ManyEventsKeepRelativeOrderStable) {
  Simulator sim;
  std::vector<int> order;
  // Same timestamp, 100 events: insertion order must be preserved exactly.
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, TimeNeverGoesBackwards) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<double>(50 - i), [&] {
      if (sim.now() < last) monotone = false;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

// ---------------------------------------------------------------------------
// Slab/generation semantics: handles must stay dead across slot reuse.

TEST(SimulatorTest, StaleHandleCannotCancelSlotReuse) {
  Simulator sim;
  // Fire A, whose slot is then recycled for B. A's stale handle must not
  // cancel B.
  const TimerHandle a = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());  // A fired; its slot returns to the free list
  bool b_fired = false;
  sim.schedule_at(2.0, [&] { b_fired = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale generation: must be a no-op
  sim.run();
  EXPECT_TRUE(b_fired);
}

TEST(SimulatorTest, CancelledSlotReuseKeepsNewEventAlive) {
  Simulator sim;
  const TimerHandle a = sim.schedule_at(5.0, [] {});
  EXPECT_TRUE(sim.cancel(a));
  // The freed slot is reused immediately; the orphaned heap entry for A
  // must not fire or suppress B.
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // still stale after reuse
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, ManyCancellationsInterleavedWithReuse) {
  Simulator sim;
  std::vector<TimerHandle> handles;
  int fired = 0;
  for (int round = 0; round < 10; ++round) {
    handles.clear();
    for (int i = 0; i < 20; ++i) {
      handles.push_back(
          sim.schedule_in(1.0 + i, [&] { ++fired; }));
    }
    // Cancel every other event; the slots get reused next round.
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      EXPECT_TRUE(sim.cancel(handles[i]));
      EXPECT_FALSE(sim.cancel(handles[i]));
    }
    sim.run();
  }
  EXPECT_EQ(fired, 10 * 10);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, CancelFromInsideEventIsSafe) {
  Simulator sim;
  bool victim_fired = false;
  const TimerHandle victim =
      sim.schedule_at(2.0, [&] { victim_fired = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(SimulatorTest, TieBreakSurvivesCancellationChurn) {
  // Determinism pin: interleaved schedule/cancel churn must not disturb
  // the (time, insertion-seq) order of the surviving events.
  Simulator sim;
  std::vector<int> order;
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 50; ++i) {
    doomed.push_back(sim.schedule_at(1.0, [] {}));
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  for (const TimerHandle h : doomed) sim.cancel(h);
  sim.run();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsExecutedCounts) {
  Simulator sim;
  const std::uint64_t thread_before = Simulator::thread_events_executed();
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0, [] {});
  const TimerHandle h = sim.schedule_at(2.0, [] {});
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);  // cancelled events don't count
  EXPECT_EQ(Simulator::thread_events_executed() - thread_before, 5u);
}

TEST(SimulatorTest, MoveOnlyCaptureAndLargePayload) {
  // EventFn accepts move-only captures (std::function never could) and
  // falls back to the heap for captures beyond its inline buffer.
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  sim.schedule_at(1.0, [p = std::move(payload), &got] { got = *p + 1; });
  struct Big {
    double data[40] = {};
  };
  double sum = -1.0;
  sim.schedule_at(2.0, [big = Big{}, &sum] { sum = big.data[0]; });
  // A closure already wrapped in an EventFn is moved in, not re-wrapped.
  bool prebuilt_fired = false;
  EventFn prebuilt = [&prebuilt_fired] { prebuilt_fired = true; };
  sim.schedule_in(2.5, std::move(prebuilt));
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sum, 0.0);
  EXPECT_TRUE(prebuilt_fired);
}

TEST(SimulatorTest, SelfReschedulingTimerPattern) {
  // A self-rescheduling timer: an owner outside the simulator holds the
  // closure and scheduled events hold non-owning pointers (a shared_ptr
  // self-capture would be a leaky reference cycle).
  Simulator sim;
  int fires = 0;
  std::function<void()> owner;
  std::function<void()>* tick = &owner;
  *tick = [&sim, &fires, tick] {
    ++fires;
    if (fires < 5) sim.schedule_in(1.0, [tick] { (*tick)(); });
  };
  sim.schedule_at(0.5, [tick] { (*tick)(); });
  sim.run();
  EXPECT_EQ(fires, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.5);
}

TEST(SimulatorTest, OwnerVectorTimersRunIndependently) {
  // Several self-rescheduling timers owned by one vector sized up front
  // (the read processes in experiment/workload.cpp): pointers into it stay
  // valid, and each timer keeps its own period and fire count.
  Simulator sim;
  const std::vector<double> periods{1.0, 0.75, 2.5};
  std::vector<std::function<void()>> ticks(periods.size());
  std::vector<std::vector<double>> fired(periods.size());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    std::function<void()>* tick = &ticks[i];
    *tick = [&sim, &fired, &periods, tick, i] {
      fired[i].push_back(sim.now());
      if (sim.now() + periods[i] <= 5.0) {
        sim.schedule_in(periods[i], [tick] { (*tick)(); });
      }
    };
    sim.schedule_at(0.0, [tick] { (*tick)(); });
  }
  sim.run();
  EXPECT_EQ(fired[0], (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(fired[1],
            (std::vector<double>{0.0, 0.75, 1.5, 2.25, 3.0, 3.75, 4.5}));
  EXPECT_EQ(fired[2], (std::vector<double>{0.0, 2.5, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

// ---------------------------------------------------------------------------
// Model-based check: a seeded random mix of every queue operation against a
// reference ordered set of (time, insertion seq). Times cluster on a coarse
// grid so many events tie; 0.0, -0.0 and 1e300 appear, and cancels pick
// from every handle ever issued, so stale handles meet reused slots.

TEST(SimulatorTest, MatchesReferenceQueueUnderRandomOperations) {
  Simulator sim;
  Rng rng(2024);
  // Reference queue: (time, seq) -> event id, ordered like the simulator.
  std::set<std::pair<double, std::uint64_t>> model;
  std::vector<std::pair<double, std::uint64_t>> key_of;  // by event id
  std::vector<bool> pending;                             // by event id
  std::vector<TimerHandle> handles;                      // by event id
  std::vector<std::size_t> fired;
  std::uint64_t next_seq = 0;
  std::size_t expected_fired = 0;

  const auto pick_time = [&](SimTime now) -> SimTime {
    const std::size_t kind = rng.index(100);
    if (kind < 2) return std::max(now, 1e300);
    if (kind < 6 && now == 0.0) return -0.0;
    if (kind < 10) return now;
    if (kind < 80) return now + 0.25 * static_cast<double>(rng.index(8));
    return now + rng.uniform(0.0, 3.0);
  };

  const auto schedule = [&] {
    const std::size_t id = key_of.size();
    const bool relative = rng.bernoulli(0.5);
    SimTime when;
    TimerHandle handle;
    if (relative) {
      const SimTime delay = pick_time(0.0);
      when = sim.now() + delay;
      handle = sim.schedule_in(delay, [&fired, id] { fired.push_back(id); });
    } else {
      when = pick_time(sim.now());
      handle = sim.schedule_at(when, [&fired, id] { fired.push_back(id); });
    }
    key_of.emplace_back(when, next_seq++);
    model.insert(key_of.back());
    pending.push_back(true);
    handles.push_back(handle);
  };

  for (int op = 0; op < 50000; ++op) {
    const std::size_t kind = rng.index(100);
    if (kind < 45) {
      schedule();
    } else if (kind < 65) {
      if (handles.empty()) continue;
      const std::size_t id = rng.index(handles.size());
      const bool was_pending = pending[id];
      ASSERT_EQ(sim.cancel(handles[id]), was_pending) << "op " << op;
      if (was_pending) {
        model.erase(key_of[id]);
        pending[id] = false;
      }
    } else if (kind < 90) {
      const bool stepped = sim.step();
      ASSERT_EQ(stepped, !model.empty()) << "op " << op;
      if (!stepped) continue;
      const auto top = *model.begin();
      model.erase(model.begin());
      ASSERT_EQ(fired.size(), expected_fired + 1) << "op " << op;
      const std::size_t id = fired.back();
      ASSERT_EQ(key_of[id], top) << "op " << op;
      pending[id] = false;
      ++expected_fired;
      ASSERT_EQ(sim.now(), top.first) << "op " << op;
    } else if (kind < 99) {
      const SimTime deadline =
          sim.now() + 0.25 * static_cast<double>(rng.index(6));
      std::vector<std::pair<double, std::uint64_t>> due;
      while (!model.empty() && model.begin()->first <= deadline) {
        due.push_back(*model.begin());
        model.erase(model.begin());
      }
      ASSERT_EQ(sim.run_until(deadline), due.size()) << "op " << op;
      ASSERT_EQ(fired.size(), expected_fired + due.size()) << "op " << op;
      for (const auto& key : due) {
        const std::size_t id = fired[expected_fired++];
        ASSERT_EQ(key_of[id], key) << "op " << op;
        pending[id] = false;
      }
      ASSERT_EQ(sim.now(), deadline) << "op " << op;
    } else {
      // Reset: every pending event is discarded and every handle goes
      // stale; the seq restarts with the queue.
      sim.reset();
      model.clear();
      std::fill(pending.begin(), pending.end(), false);
      next_seq = 0;
      ASSERT_EQ(sim.now(), 0.0);
    }
    ASSERT_EQ(sim.pending_events(), model.size()) << "op " << op;
  }
  EXPECT_GT(expected_fired, 10000u);
}

}  // namespace
}  // namespace fastcons
