#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
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

TEST(SimulatorTest, StepOnEmptyQueueChangesNothing) {
  Simulator sim;
  sim.schedule_at(1.5, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.now(), 1.5);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, PendingEventsCountsEveryQueuedEvent) {
  Simulator sim;
  std::vector<std::size_t> seen;
  sim.schedule_at(1.0, [&] {
    seen.push_back(sim.pending_events());  // 2.0 and 3.0 remain
    sim.schedule_in(0.5, [&] { seen.push_back(sim.pending_events()); });
    seen.push_back(sim.pending_events());  // the nested event joined them
  });
  sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 2}));
}

TEST(SimulatorTest, RunCountsNestedEventsAndThenDrains) {
  Simulator sim;
  sim.schedule_at(1.0, [&] {
    sim.schedule_in(1.0, [&] { sim.schedule_in(1.0, [] {}); });
  });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, RunUntilRunsEventsScheduledInsideItsWindow) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1.0, [&] {
    fired.push_back(sim.now());
    sim.schedule_in(0.5, [&] { fired.push_back(sim.now()); });
    sim.schedule_in(3.0, [&] { fired.push_back(sim.now()); });
  });
  EXPECT_EQ(sim.run_until(2.0), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5, 4.0}));
}

TEST(SimulatorTest, NegativeZeroSortsAsZero) {
  // -0.0 passes the `when >= now()` check at time 0; its sign bit must not
  // order it after positive times.
  Simulator sim;
  std::string log;
  sim.schedule_at(0.5, [&] { log += 'p'; });
  sim.schedule_at(0.0, [&] { log += 'a'; });
  sim.schedule_at(-0.0, [&] { log += 'b'; });
  sim.schedule_in(-0.0, [&] { log += 'c'; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 0.0);
  sim.run();
  EXPECT_EQ(log, "abcp");
}

TEST(SimulatorTest, FarFutureEventWaitsBehindEarlierOnes) {
  Simulator sim;
  std::vector<double> fired;
  sim.schedule_at(1e300, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(10.0, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run_until(100.0), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, (std::vector<double>{10.0, 1e300}));
  EXPECT_EQ(sim.now(), 1e300);
}

TEST(SimulatorTest, FiredSlotIsReusedForTheNextEvent) {
  Simulator sim;
  // A fires and its slot returns to the free list; B takes that slot and
  // must fire exactly once, and A must not fire again.
  int a_fired = 0;
  int b_fired = 0;
  sim.schedule_at(1.0, [&] { ++a_fired; });
  EXPECT_TRUE(sim.step());
  sim.schedule_at(2.0, [&] { ++b_fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(a_fired, 1);
  EXPECT_EQ(b_fired, 1);
}

TEST(SimulatorTest, ActionSchedulingIntoItsOwnSlotKeepsItsCaptures) {
  // The running action's slot is free while it runs, so the first event it
  // schedules takes that slot. The action was moved out before the call,
  // so its captures (here a heap-backed string, and a payload too large
  // for EventFn's inline buffer) must stay intact after that schedule.
  Simulator sim;
  struct Big {
    double data[40] = {};
  };
  Big big;
  big.data[39] = 7.0;
  const std::string label(64, 'x');
  std::string seen;
  double seen_big = 0.0;
  bool nested_fired = false;
  sim.schedule_at(1.0, [&, label, big] {
    sim.schedule_in(1.0, [&] { nested_fired = true; });
    sim.schedule_in(2.0, [] {});
    seen = label;
    seen_big = big.data[39];
  });
  sim.run();
  EXPECT_EQ(seen, label);
  EXPECT_EQ(seen_big, 7.0);
  EXPECT_TRUE(nested_fired);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, FiredClosureIsDestroyed) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  sim.schedule_at(1.0, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorTest, ManyEventsInterleavedWithSlotReuse) {
  // Rounds of scheduling and partial draining recycle slots in a shuffled
  // order; every event fires once, at its own time.
  Simulator sim;
  Rng rng(7);
  std::size_t scheduled = 0;
  std::size_t fired = 0;
  bool on_time = true;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 25; ++i) {
      const SimTime when = sim.now() + rng.uniform(0.0, 4.0);
      sim.schedule_at(when, [&, when] {
        ++fired;
        if (sim.now() != when) on_time = false;
      });
      ++scheduled;
    }
    sim.run_until(sim.now() + 2.0);
    EXPECT_EQ(sim.pending_events(), scheduled - fired);
  }
  sim.run();
  EXPECT_EQ(fired, scheduled);
  EXPECT_TRUE(on_time);
}

TEST(SimulatorTest, TieBreakSurvivesSlotReuseChurn) {
  // Determinism pin: slots freed in a scrambled order are handed out again
  // in that order, but tied events still fire in insertion order.
  Simulator sim;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(static_cast<double>((i * 17) % 50), [] {});
  }
  sim.run();
  std::vector<int> order;
  const SimTime t = sim.now() + 1.0;
  for (int i = 0; i < 80; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EventsExecutedCounts) {
  Simulator sim;
  const std::uint64_t thread_before = Simulator::thread_events_executed();
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
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
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(sum, 0.0);
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
  // (the read processes in sim_runtime/workload.cpp): pointers into it stay
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
// grid so many events tie; 0.0, -0.0 and 1e300 appear, and resets discard
// pending events and restart the seq.

TEST(SimulatorTest, MatchesReferenceQueueUnderRandomOperations) {
  Simulator sim;
  Rng rng(2024);
  // Reference queue: (time, seq) -> event id, ordered like the simulator.
  std::set<std::pair<double, std::uint64_t>> model;
  std::vector<std::pair<double, std::uint64_t>> key_of;  // by event id
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
    if (relative) {
      const SimTime delay = pick_time(0.0);
      when = sim.now() + delay;
      sim.schedule_in(delay, [&fired, id] { fired.push_back(id); });
    } else {
      when = pick_time(sim.now());
      sim.schedule_at(when, [&fired, id] { fired.push_back(id); });
    }
    key_of.emplace_back(when, next_seq++);
    model.insert(key_of.back());
  };

  for (int op = 0; op < 50000; ++op) {
    const std::size_t kind = rng.index(100);
    if (kind < 50) {
      schedule();
    } else if (kind < 90) {
      const bool stepped = sim.step();
      ASSERT_EQ(stepped, !model.empty()) << "op " << op;
      if (!stepped) continue;
      const auto top = *model.begin();
      model.erase(model.begin());
      ASSERT_EQ(fired.size(), expected_fired + 1) << "op " << op;
      const std::size_t id = fired.back();
      ASSERT_EQ(key_of[id], top) << "op " << op;
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
      }
      ASSERT_EQ(sim.now(), deadline) << "op " << op;
    } else {
      // Reset: every pending event is discarded; the seq restarts with the
      // queue.
      sim.reset();
      model.clear();
      next_seq = 0;
      ASSERT_EQ(sim.now(), 0.0);
    }
    ASSERT_EQ(sim.pending_events(), model.size()) << "op " << op;
  }
  EXPECT_GT(expected_fired, 10000u);
}

}  // namespace
}  // namespace fastcons
