// Reset-equivalence: the load-bearing guarantee behind the pooled trial
// contexts. A pooled object (Simulator, ReplicaEngine, SimNetwork,
// PropagationContext, TrialContext) that is reset between uses must be
// observationally identical to a freshly constructed one — same results,
// same RNG draw sequences — for every registered scenario. These tests pin
// that under the normal build and under ASan/UBSan (slab reuse across
// resets).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "demand/demand_model.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"
#include "harness/scenarios.hpp"
#include "harness/trial_context.hpp"
#include "sim/simulator.hpp"
#include "sim_runtime/propagation.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

using harness::builtin_registry;
using harness::derive_trial_seed;
using harness::ScenarioRegistry;
using harness::ScenarioSpec;
using harness::set_param;
using harness::SweepPoint;
using harness::TrialContext;
using harness::TrialResult;

// ------------------------------------------------------ Simulator::reset ----

TEST(SimulatorReset, ReturnsToFreshLogicalState) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(1.0, [&] { fired.push_back(1); });
  sim.schedule_at(2.0, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.events_executed(), 2u);

  sim.reset();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);

  // Behaves exactly like a fresh simulator: same times, same tie-breaking.
  fired.clear();
  sim.schedule_at(0.5, [&] { fired.push_back(3); });
  sim.schedule_at(0.5, [&] { fired.push_back(4); });  // tie -> insertion order
  sim.schedule_at(0.25, [&] { fired.push_back(5); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{5, 3, 4}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorReset, DiscardsPendingEventsWithoutFiringThem) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(1.0, [&] { fired = true; });
  sim.reset();
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorReset, ReleasesPendingClosures) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  for (int i = 0; i < 3; ++i) sim.schedule_at(1.0, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 4);
  sim.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(*token, 0);
}

TEST(SimulatorReset, ReusedSlabFiresLikeAFreshSimulator) {
  // A simulator reset mid-run, with slots freed in a scrambled order and
  // others still pending, fires the same script in the same order at the
  // same times as a fresh one.
  using Log = std::vector<std::pair<int, double>>;
  const auto script = [](Simulator& sim, Log& log) {
    for (int i = 0; i < 40; ++i) {
      sim.schedule_at(0.25 * static_cast<double>((i * 7) % 9),
                      [&sim, &log, i] { log.emplace_back(i, sim.now()); });
    }
    sim.run_until(1.0);
    for (int i = 40; i < 60; ++i) {
      sim.schedule_in(0.5,
                      [&sim, &log, i] { log.emplace_back(i, sim.now()); });
    }
    sim.run();
  };
  Simulator fresh;
  Log want;
  script(fresh, want);

  Simulator reused;
  Log scratch;
  for (int i = 0; i < 30; ++i) {
    reused.schedule_at(static_cast<double>((i * 13) % 30),
                       [&scratch, i] { scratch.emplace_back(i, 0.0); });
  }
  reused.run_until(12.0);
  reused.reset();
  Log got;
  script(reused, got);
  EXPECT_EQ(got, want);
  EXPECT_EQ(reused.events_executed(), fresh.events_executed());
}

TEST(SimulatorReset, SlabSurvivesManyResetCycles) {
  // Exercises slot reuse across resets (ASan/UBSan builds watch for stale
  // closure storage): each cycle schedules into recycled slots and runs
  // them, or resets with them still pending.
  Simulator sim;
  std::uint64_t total = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule_at(static_cast<double>(i % 7), [&] { ++total; });
    }
    if (cycle % 3 == 0) {
      sim.reset();  // sometimes reset with events still pending
    } else {
      sim.run();
      sim.reset();
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// --------------------------------------------------- ReplicaEngine::reset ----

/// Drives `engine` through a deterministic mini-protocol and returns the
/// sequence of partners it initiated sessions with.
std::vector<NodeId> drive_engine(ReplicaEngine& engine) {
  engine.set_own_demand(5.0);
  engine.prime_neighbour_demand(1, 7.0, 0.0);
  engine.prime_neighbour_demand(2, 3.0, 0.0);
  engine.local_write("k", "v", 0.0);
  std::vector<NodeId> partners;
  for (int i = 0; i < 4; ++i) {
    for (const Outbound& out :
         engine.on_session_timer(static_cast<SimTime>(i))) {
      if (std::holds_alternative<SessionRequest>(out.msg)) {
        partners.push_back(out.to);
      }
    }
  }
  return partners;
}

TEST(ReplicaEngineReset, ResetEngineMatchesFreshEngine) {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.advert_period = 0.0;

  ReplicaEngine fresh(0, {1, 2}, cfg, 77);
  const std::vector<NodeId> fresh_partners = drive_engine(fresh);

  // Dirty an engine with a different identity/config, then reset it to the
  // fresh engine's construction arguments.
  ProtocolConfig other = ProtocolConfig::weak();
  ReplicaEngine pooled(9, {3, 4, 5}, other, 1234);
  pooled.set_own_demand(42.0);
  pooled.local_write("x", "y", 0.0);
  pooled.on_session_timer(1.0);

  pooled.reset(0, {1, 2}, cfg, 77);
  EXPECT_EQ(pooled.self(), 0u);
  EXPECT_EQ(pooled.summary(), SummaryVector{});
  EXPECT_EQ(pooled.stats().sessions_initiated, 0u);
  EXPECT_EQ(pooled.counters().total_messages(), 0u);
  EXPECT_EQ(pooled.inflight_sessions(), 0u);
  EXPECT_EQ(pooled.inflight_offers(), 0u);

  const std::vector<NodeId> pooled_partners = drive_engine(pooled);
  EXPECT_EQ(pooled_partners, fresh_partners);  // RNG stream included
  EXPECT_EQ(pooled.summary(), fresh.summary());
  EXPECT_EQ(pooled.stats().sessions_initiated,
            fresh.stats().sessions_initiated);
  EXPECT_EQ(pooled.counters().total_bytes(), fresh.counters().total_bytes());
}

// ------------------------------------------------------ SimNetwork::reset ----

struct NetObservation {
  std::vector<std::optional<SimTime>> deliveries;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t applied = 0;

  friend bool operator==(const NetObservation&,
                         const NetObservation&) = default;
};

/// One deterministic mini-experiment on an already-wired network.
NetObservation observe(SimNetwork& net) {
  const UpdateId id = net.schedule_write(0, "key", "value", 0.5);
  net.run_until_update_everywhere(id, 20.0);
  NetObservation obs;
  for (NodeId n = 0; n < net.size(); ++n) {
    obs.deliveries.push_back(net.first_delivery(n, id));
  }
  obs.events = net.events_executed();
  obs.messages = net.total_traffic().total_messages();
  obs.bytes = net.total_traffic().total_bytes();
  obs.applied = net.total_stats().updates_applied;
  return obs;
}

Graph test_graph(std::uint64_t seed, std::size_t n = 24) {
  Rng rng(seed);
  return make_barabasi_albert(n, 2, {0.01, 0.05}, rng);
}

std::shared_ptr<const DemandModel> test_demand(std::uint64_t seed,
                                               std::size_t n = 24) {
  Rng rng(seed);
  return std::make_shared<StaticDemand>(
      make_uniform_random_demand(n, 0.0, 100.0, rng));
}

TEST(SimNetworkReset, ResetNetworkReplaysFreshNetworkExactly) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.seed = 99;

  SimNetwork fresh(test_graph(5), test_demand(6), cfg);
  const NetObservation expected = observe(fresh);
  EXPECT_GT(expected.applied, 0u);

  // Dirty a pooled network with a different topology/size/seed, then reset.
  SimConfig other = cfg;
  other.seed = 1;
  SimNetwork pooled(test_graph(42, 10), test_demand(43, 10), other);
  observe(pooled);

  pooled.reset(test_graph(5), test_demand(6), cfg);
  EXPECT_EQ(observe(pooled), expected);

  // And again, proving repeated reuse keeps replaying the same experiment.
  pooled.reset(test_graph(5), test_demand(6), cfg);
  EXPECT_EQ(observe(pooled), expected);
}

TEST(SimNetworkReset, GrowsAndShrinksAcrossTopologySizes) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.seed = 7;

  SimNetworkPool pool;
  for (const std::size_t n : {8u, 40u, 16u, 40u, 8u}) {
    SimNetwork& net = pool.acquire(test_graph(n, n), test_demand(n + 1, n), cfg);
    ASSERT_EQ(net.size(), n);
    SimNetwork fresh(test_graph(n, n), test_demand(n + 1, n), cfg);
    EXPECT_EQ(observe(net), observe(fresh)) << n;
  }
}

SimConfig faulty_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.seed = seed;
  cfg.faults.loss = 0.15;
  cfg.faults.duplicate = 0.1;
  cfg.faults.reorder = 0.25;
  cfg.faults.reorder_delay_max = 0.4;
  cfg.faults.crash_rate = 0.05;
  cfg.faults.downtime_mean = 0.5;
  cfg.faults.churn_until = 4.0;
  cfg.faults.partitions.push_back(PartitionEvent{2, 1.0, 3.0});
  return cfg;
}

TEST(SimNetworkReset, FaultConfigReplaysFreshNetworkExactly) {
  // Every fault class at once — link faults, churn with wipes, a healing
  // partition. The FaultPlan's RNG and node up/down state are rebuilt by
  // reset(), so a pooled network must replay a fresh one draw-for-draw,
  // injected fault counts included.
  const SimConfig cfg = faulty_config(55);
  SimNetwork fresh(test_graph(5), test_demand(6), cfg);
  const NetObservation expected = observe(fresh);
  const FaultStats expected_faults = fresh.fault_stats();
  // Non-vacuous: the config really injected faults during the observation.
  EXPECT_GT(expected_faults.messages_lost, 0u);

  SimNetwork pooled(test_graph(42, 10), test_demand(43, 10), faulty_config(7));
  observe(pooled);  // dirty: different size, seed, fault trajectory

  pooled.reset(test_graph(5), test_demand(6), cfg);
  EXPECT_EQ(observe(pooled), expected);
  EXPECT_EQ(pooled.fault_stats(), expected_faults);

  pooled.reset(test_graph(5), test_demand(6), cfg);
  EXPECT_EQ(observe(pooled), expected);
  EXPECT_EQ(pooled.fault_stats(), expected_faults);
}

TEST(SimNetworkReset, FaultStateDoesNotLeakIntoQuietConfig) {
  // Reset from a fault-heavy run to a no-fault config must be
  // indistinguishable from a network that never had faults at all: zero
  // counters, no lingering down nodes or partitions, identical replay.
  SimConfig quiet;
  quiet.protocol = ProtocolConfig::fast();
  quiet.protocol.advert_period = 0.0;
  quiet.seed = 99;
  SimNetwork fresh(test_graph(5), test_demand(6), quiet);
  const NetObservation expected = observe(fresh);

  SimNetwork pooled(test_graph(5), test_demand(6), faulty_config(55));
  observe(pooled);
  EXPECT_GT(pooled.fault_stats().messages_lost, 0u);  // genuinely dirty

  pooled.reset(test_graph(5), test_demand(6), quiet);
  EXPECT_FALSE(pooled.faults().enabled());
  EXPECT_EQ(observe(pooled), expected);
  EXPECT_EQ(pooled.fault_stats(), FaultStats{});
}

TEST(SimNetworkReset, SharedTopologyIsNeverMutated) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.seed = 3;
  const auto shared = std::make_shared<const Graph>(test_graph(8));
  const std::size_t edges_before = shared->edge_count();

  SimNetworkPool pool;
  const NetObservation first = observe(pool.acquire(shared, test_demand(9), cfg));
  const NetObservation second = observe(pool.acquire(shared, test_demand(9), cfg));
  EXPECT_EQ(first, second);
  EXPECT_EQ(shared->edge_count(), edges_before);
  EXPECT_EQ(shared.use_count(), 2);  // ours + the pooled network's
}

// ------------------------------------------- run_propagation_trial(ctx) ----

PropagationExperiment small_experiment() {
  PropagationExperiment exp;
  exp.topology = [](Rng& rng) {
    return make_barabasi_albert(16, 2, {0.01, 0.05}, rng);
  };
  exp.demand = [](const Graph& g, Rng& rng) {
    return std::make_shared<StaticDemand>(
        make_uniform_random_demand(g.size(), 0.0, 100.0, rng));
  };
  exp.sim.protocol = ProtocolConfig::fast();
  exp.sim.protocol.advert_period = 0.0;
  exp.deadline = 30.0;
  return exp;
}

void expect_trials_equal(const PropagationTrial& a, const PropagationTrial& b) {
  EXPECT_EQ(a.sessions_all, b.sessions_all);
  EXPECT_EQ(a.sessions_high, b.sessions_high);
  EXPECT_EQ(a.time_to_full, b.time_to_full);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.censored_samples, b.censored_samples);
  EXPECT_EQ(a.traffic.total_messages(), b.traffic.total_messages());
  EXPECT_EQ(a.traffic.total_bytes(), b.traffic.total_bytes());
}

TEST(PropagationContextReuse, PooledTrialMatchesFreshTrialAndRngDraws) {
  const PropagationExperiment exp = small_experiment();

  PropagationContext pooled;
  // Warm the pool with unrelated trials so the equivalence below runs on a
  // thoroughly dirty context.
  for (const std::uint64_t warm : {901u, 902u}) {
    Rng w(warm);
    run_propagation_trial(exp, w, pooled);
  }

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng fresh_rng(seed);
    PropagationContext fresh_ctx;
    const PropagationTrial& fresh =
        run_propagation_trial(exp, fresh_rng, fresh_ctx);
    Rng pooled_rng(seed);
    const PropagationTrial& reused =
        run_propagation_trial(exp, pooled_rng, pooled);
    expect_trials_equal(fresh, reused);
    // Identical RNG end states prove identical draw counts: the pooled
    // path consumed exactly the draws the fresh path did, in order.
    EXPECT_TRUE(fresh_rng == pooled_rng) << seed;
  }
}

TEST(PropagationSharedTopology, MatchesPerTrialFactoryForFixedGraphs) {
  // For a topology factory that returns one fixed graph without consuming
  // trial RNG, sharing the graph across trials must be invisible in the
  // results — same trials, same draw counts.
  Rng build(17);
  const Graph fixed = make_grid(5, 5, {0.01, 0.05}, build);

  PropagationExperiment by_factory = small_experiment();
  by_factory.topology = [&fixed](Rng&) { return fixed; };
  PropagationExperiment by_share = small_experiment();
  by_share.topology = nullptr;
  by_share.shared_topology = std::make_shared<const Graph>(fixed);

  PropagationContext ctx_factory;
  PropagationContext ctx_share;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng_a(seed);
    Rng rng_b(seed);
    const PropagationTrial a =
        run_propagation_trial(by_factory, rng_a, ctx_factory);
    const PropagationTrial& b =
        run_propagation_trial(by_share, rng_b, ctx_share);
    expect_trials_equal(a, b);
    EXPECT_TRUE(rng_a == rng_b);
  }
}

TEST(PropagationSharedTopology, AlgorithmVariantsShareOneInstancePerWorker) {
  // The cache keys on what the build reads (topo tag + params), not the
  // point label, so the weak and fast points of one large-scale topology
  // resolve to the same Graph object instead of two identical builds.
  TrialContext ctx;
  SweepPoint weak;
  weak.label = "grid-4x4/weak";
  weak.tags = {{"topo", "grid"}, {"algo", "weak"}};
  weak.params = {{"w", 4}, {"h", 4}, {"shared_topo", 1}};
  SweepPoint fast = weak;
  fast.label = "grid-4x4/fast";
  fast.tags[1].second = "fast";
  SweepPoint other = weak;
  other.label = "grid-5x5/weak";
  other.params = {{"w", 5}, {"h", 5}, {"shared_topo", 1}};

  const auto g_weak = harness::shared_topology_for(weak, ctx);
  EXPECT_EQ(g_weak.get(), harness::shared_topology_for(fast, ctx).get());
  EXPECT_NE(g_weak.get(), harness::shared_topology_for(other, ctx).get());
}

// ----------------------------------------------------------- TrialContext ----

TEST(TrialContextState, ReturnsOneInstancePerType) {
  TrialContext ctx;
  struct A {
    int value = 0;
  };
  struct B {
    int value = 100;
  };
  A& a1 = ctx.state<A>();
  a1.value = 7;
  EXPECT_EQ(ctx.state<A>().value, 7);      // same instance
  EXPECT_EQ(&ctx.state<A>(), &a1);         // stable address
  EXPECT_EQ(ctx.state<B>().value, 100);    // distinct per type
  ctx.state<B>().value = 8;
  EXPECT_EQ(ctx.state<A>().value, 7);
}

// -------------------------------------------- every registered scenario ----

void expect_results_equal(const TrialResult& a, const TrialResult& b,
                          const std::string& where) {
  EXPECT_EQ(a.values, b.values) << where;
  EXPECT_EQ(a.samples, b.samples) << where;
  EXPECT_EQ(a.counters, b.counters) << where;
}

/// The runner's point materialisation, replicated so the test can call
/// trial functions directly with controlled contexts.
SweepPoint smoke_point(const ScenarioSpec& spec, std::size_t index) {
  SweepPoint point = spec.sweep[index];
  for (const auto& [key, value] : spec.smoke_overrides) {
    set_param(point.params, key, value);
  }
  return point;
}

TEST(ResetEquivalence, EveryScenarioPooledContextMatchesFreshContexts) {
  // The acceptance criterion for the pooled TrialContext: for every
  // registered scenario's smoke sweep, a context reused across all points
  // and trials produces byte-identical TrialResults to a fresh context per
  // trial. This is what licenses the runner to hand each worker one
  // long-lived context.
  const ScenarioRegistry registry = builtin_registry();
  for (const ScenarioSpec& spec : registry.all()) {
    TrialContext pooled;
    for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
      const SweepPoint point = smoke_point(spec, i);
      const std::size_t divisor =
          std::max<std::size_t>(1, spec.sweep[i].trials_divisor);
      const std::size_t trials =
          std::max<std::size_t>(1, spec.smoke_trials / divisor);
      const std::size_t seed_index = spec.sweep[i].seed_group.value_or(i);
      for (std::size_t trial = 0; trial < trials; ++trial) {
        const std::uint64_t seed =
            derive_trial_seed(42, spec.name, seed_index, trial);
        TrialContext fresh;
        const TrialResult a = spec.run(point, seed, fresh);
        const TrialResult b = spec.run(point, seed, pooled);
        expect_results_equal(
            a, b, spec.name + "/" + point.label + " trial " +
                      std::to_string(trial));
      }
    }
  }
}

TEST(ResetEquivalence, PooledContextIsOrderIndependent) {
  // Reusing a context must not leak state between trials in either
  // direction: running a scenario's smoke tasks in reverse order through
  // one context reproduces the forward-order (and fresh-context) numbers.
  const ScenarioRegistry registry = builtin_registry();
  const ScenarioSpec& spec = registry.get("uniform-topologies");

  struct TaskRef {
    std::size_t point;
    std::uint64_t seed;
  };
  std::vector<TaskRef> tasks;
  for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
    const std::size_t seed_index = spec.sweep[i].seed_group.value_or(i);
    for (std::size_t trial = 0; trial < spec.smoke_trials; ++trial) {
      tasks.push_back(
          TaskRef{i, derive_trial_seed(42, spec.name, seed_index, trial)});
    }
  }

  std::vector<TrialResult> forward(tasks.size());
  {
    TrialContext ctx;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      forward[t] = spec.run(smoke_point(spec, tasks[t].point), tasks[t].seed, ctx);
    }
  }
  {
    TrialContext ctx;
    for (std::size_t t = tasks.size(); t-- > 0;) {
      const TrialResult r =
          spec.run(smoke_point(spec, tasks[t].point), tasks[t].seed, ctx);
      expect_results_equal(r, forward[t], "reverse task " + std::to_string(t));
    }
  }
}

}  // namespace
}  // namespace fastcons
