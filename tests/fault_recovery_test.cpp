// Model-based crash/recovery property tests: random churn schedules (drawn
// by the FaultPlan itself) run against a reference model of the surviving
// WriteLogs — the union of what any replica still holds once churn ends.
// The properties: anti-entropy catch-up never loses a write that survived
// on at least one replica, never partially replicates (after convergence
// every issued write is on every replica or on none), never invents ids,
// and restores SummaryVector coverage to agreement on every node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "core/engine.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

struct ChurnRun {
  SimNetwork net;
  std::set<UpdateId> ever_applied;   // every id any replica ever applied
  std::vector<UpdateId> issued;      // every write scheduled
  std::set<UpdateId> survivors;      // held somewhere when churn ended
  bool consistent = false;

  ChurnRun(Graph graph, std::shared_ptr<const DemandModel> demand,
           SimConfig config)
      : net(std::move(graph), std::move(demand), std::move(config)) {}
};

std::unique_ptr<ChurnRun> run_churn_schedule(std::uint64_t seed,
                                             bool wipe_on_restart) {
  Rng build(seed);
  Graph graph = make_barabasi_albert(12, 2, {0.01, 0.05}, build);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(12, 0.0, 100.0, build));

  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.protocol.advert_period = 0.0;
  cfg.seed = seed;
  cfg.faults.crash_rate = 0.2;       // aggressive: ~2.4 crashes per unit
  cfg.faults.downtime_mean = 0.4;
  cfg.faults.wipe_on_restart = wipe_on_restart;
  cfg.faults.churn_until = 8.0;      // then the network may catch up

  auto run = std::make_unique<ChurnRun>(std::move(graph), demand, cfg);
  ChurnRun& r = *run;
  r.net.on_delivery = [&r](NodeId, const Update& u, DeliveryPath, SimTime) {
    r.ever_applied.insert(u.id);
  };

  // Writes spread through the churn window from rotating origins; some
  // writers will be down at their write time (the deferral path).
  Rng writers(seed ^ 0x5eedu);
  for (int i = 0; i < 10; ++i) {
    const auto node = static_cast<NodeId>(writers.index(r.net.size()));
    const SimTime at = 0.5 + 0.7 * static_cast<double>(i);
    r.issued.push_back(r.net.schedule_write(
        node, numbered("k", i), numbered("v", i), at));
  }

  r.net.run_until(8.5);  // every write fired; no further crash can occur
  // The reference model: what survived the churn. Wipes happen at crash
  // time, so every loss has already been inflicted; a write lives iff some
  // replica's log still holds it (a message still in flight may later
  // RE-ADD an id, never remove one — hence "survivors ⊆ final", below).
  for (const UpdateId& id : r.issued) {
    for (NodeId node = 0; node < r.net.size(); ++node) {
      if (r.net.engine(node).log().contains(id)) {
        r.survivors.insert(id);
        break;
      }
    }
  }
  r.consistent = r.net.run_until_consistent(120.0);
  return run;
}

TEST(FaultRecovery, CatchUpRestoresEverySurvivingWriteEverywhere) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    const auto run = run_churn_schedule(seed, /*wipe_on_restart=*/true);
    // Non-vacuous: the schedule really crashed and wiped replicas, and
    // every issued write was acknowledged (applied at its origin) first.
    const FaultStats& faults = run->net.fault_stats();
    EXPECT_GT(faults.crashes, 0u) << seed;
    EXPECT_EQ(faults.wipes, faults.crashes) << seed;
    EXPECT_EQ(run->ever_applied.size(), run->issued.size()) << seed;
    EXPECT_FALSE(run->survivors.empty()) << seed;
    ASSERT_TRUE(run->consistent) << seed;

    // After convergence every issued write is all-or-none: a survivor is
    // on EVERY replica (anti-entropy never loses it), a wiped-everywhere
    // write is on none or resurrected onto all (an in-flight copy may
    // re-seed it), and partial replication never persists.
    std::size_t everywhere = 0;
    for (const UpdateId& id : run->issued) {
      std::size_t holders = 0;
      for (NodeId node = 0; node < run->net.size(); ++node) {
        if (run->net.engine(node).log().contains(id)) ++holders;
      }
      const char* what = run->survivors.count(id) ? "survivor" : "wiped";
      EXPECT_TRUE(holders == 0 || holders == run->net.size())
          << seed << " " << what << " " << id.origin << ":" << id.seq
          << " on " << holders << "/" << run->net.size();
      if (run->survivors.count(id)) {
        EXPECT_EQ(holders, run->net.size())
            << seed << " lost survivor " << id.origin << ":" << id.seq;
      }
      if (holders == run->net.size()) ++everywhere;
    }
    // Coverage is restored to agreement — and to nothing but issued ids.
    for (NodeId node = 0; node < run->net.size(); ++node) {
      EXPECT_EQ(run->net.engine(node).summary().total(), everywhere)
          << seed << " node " << node;
    }
    EXPECT_GE(everywhere, run->survivors.size()) << seed;
  }
}

TEST(FaultRecovery, ConsistentWhenAWriteIsWipedEverywhere) {
  // On these seeds the churn wipes an acknowledged write from every
  // replica that held it. Its absence is agreement, not divergence: the
  // replicas converge on summaries without it, and consistency is judged
  // on those summaries, not on what each node ever applied.
  for (const std::uint64_t seed : {5u, 9u, 16u}) {
    const auto run = run_churn_schedule(seed, /*wipe_on_restart=*/true);
    std::size_t lost = 0;
    for (const UpdateId& id : run->issued) {
      ASSERT_TRUE(run->ever_applied.count(id)) << seed;
      bool held = false;
      for (NodeId node = 0; node < run->net.size(); ++node) {
        held = held || run->net.engine(node).log().contains(id);
      }
      if (!held) ++lost;
    }
    ASSERT_GT(lost, 0u) << seed;
    EXPECT_TRUE(run->consistent) << seed;
  }
}

TEST(FaultRecovery, RetentiveRestartsLoseNothingEver) {
  // wipe_on_restart=false models a node that was merely unreachable: its
  // log survives, so after churn every single issued write must be
  // everywhere — including writes deferred past their writer's downtime.
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto run = run_churn_schedule(seed, /*wipe_on_restart=*/false);
    EXPECT_GT(run->net.fault_stats().crashes, 0u) << seed;
    EXPECT_EQ(run->net.fault_stats().wipes, 0u) << seed;
    ASSERT_TRUE(run->consistent) << seed;
    for (NodeId node = 0; node < run->net.size(); ++node) {
      const ReplicaEngine& engine = run->net.engine(node);
      for (const UpdateId& id : run->issued) {
        EXPECT_TRUE(engine.log().contains(id))
            << seed << " node " << node << " update " << id.origin << ":"
            << id.seq;
      }
      EXPECT_EQ(engine.summary().total(), run->issued.size())
          << seed << " node " << node;
    }
  }
}

TEST(FaultRecovery, SnapshotRestoreIsLosslessAfterChurn) {
  // The durability layer's core assumption, checked against engines that
  // just survived an adversarial churn schedule (not hand-built fixtures):
  // snapshot() -> restore() into a fresh engine reproduces the summary,
  // the materialised kv state and the origin write counter exactly. This
  // is the sim-path mirror of the on-disk checkpoint round-trip.
  for (const std::uint64_t seed : {41u, 42u}) {
    const auto run = run_churn_schedule(seed, /*wipe_on_restart=*/false);
    ASSERT_TRUE(run->consistent) << seed;
    for (NodeId node = 0; node < run->net.size(); ++node) {
      const ReplicaEngine& original = run->net.engine(node);
      const EngineSnapshot snapshot = original.snapshot();
      std::vector<NodeId> neighbours;
      for (const Edge& e : run->net.graph().neighbours(node)) {
        neighbours.push_back(e.peer);
      }
      ReplicaEngine restored(node, neighbours, original.config(),
                             seed ^ 0xFFu);
      restored.restore(snapshot);
      EXPECT_EQ(restored.summary(), original.summary())
          << seed << " node " << node;
      EXPECT_EQ(restored.log().kv_digest(), original.log().kv_digest())
          << seed << " node " << node;
      EXPECT_EQ(restored.write_seq(), original.write_seq())
          << seed << " node " << node;
      for (const UpdateId& id : run->issued) {
        EXPECT_EQ(restored.log().contains(id), original.log().contains(id))
            << seed << " node " << node;
      }
    }
  }
}

}  // namespace
}  // namespace fastcons
