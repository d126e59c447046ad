#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hpp"

namespace fastcons {
namespace {

// Records `peer`'s advert as the engine does: resolve the peer (seating a
// stranger), then write its row.
void advertise(DemandTable& table, NodeId peer, double demand) {
  table.set_demand(table.seat(peer), demand);
}

DemandTable table_with(const std::map<NodeId, double>& demands) {
  std::vector<NodeId> peers;
  for (const auto& [peer, d] : demands) {
    (void)d;
    peers.push_back(peer);
  }
  DemandTable table(peers);
  for (const auto& [peer, d] : demands) advertise(table, peer, d);
  return table;
}

/// Enabled health with the default HealthConfig: a peer silent for
/// down_after (4.0) or longer is down. Every row is last heard at t=0.
PeerHealthTracker enabled_health() {
  HealthConfig cfg;
  cfg.enabled = true;
  return PeerHealthTracker(cfg);
}

/// Records a message from neighbour `peer` at `now`.
void hear(DemandTable& table, NodeId peer, SimTime now,
          const PeerHealthTracker& health) {
  table.record_contact(table.slot_of(peer), now, health);
}

TEST(RandomPolicyTest, ReturnsOnlyNeighbours) {
  RandomPolicy policy;
  Rng rng(1);
  const DemandTable table = table_with({{3, 1.0}, {7, 2.0}, {9, 0.0}});
  for (int i = 0; i < 200; ++i) {
    const NodeId pick = policy.choose(table, 0.0, rng);
    EXPECT_TRUE(pick == 3 || pick == 7 || pick == 9);
  }
}

TEST(RandomPolicyTest, CoversAllNeighbours) {
  RandomPolicy policy;
  Rng rng(2);
  const DemandTable table = table_with({{1, 1.0}, {2, 2.0}, {3, 3.0}});
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(policy.choose(table, 0.0, rng));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RandomPolicyTest, IgnoresDemand) {
  // Golding's baseline: high demand must NOT bias selection.
  RandomPolicy policy;
  Rng rng(3);
  const DemandTable table = table_with({{1, 1000.0}, {2, 0.0}});
  int picked_low = 0;
  for (int i = 0; i < 2000; ++i) {
    if (policy.choose(table, 0.0, rng) == 2) ++picked_low;
  }
  EXPECT_NEAR(picked_low, 1000, 150);
}

TEST(RandomPolicyTest, EmptyTableReturnsInvalid) {
  RandomPolicy policy;
  Rng rng(4);
  const DemandTable table({});
  EXPECT_EQ(policy.choose(table, 0.0, rng), kInvalidNode);
}

TEST(RandomPolicyTest, SkipsDeadNeighbours) {
  RandomPolicy policy;
  Rng rng(5);
  DemandTable table = table_with({{1, 1.0}, {2, 0.0}});
  const PeerHealthTracker health = enabled_health();
  hear(table, 1, 5.0, health);  // 2 silent since t=0: down at t=5
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy.choose(table, 5.0, rng, &health), 1u);
  }
}

TEST(RandomPolicyTest, DrawsAsIndexingTheAliveList) {
  // The pick must equal alive[rng.index(alive.size())] draw for draw, where
  // alive lists the eligible neighbours in registration order, with every
  // neighbour up and with some down: the simulated digests depend on it.
  RandomPolicy policy;
  const std::vector<NodeId> peers{4, 9, 1, 7, 3, 8, 2};
  DemandTable table(peers);
  const PeerHealthTracker health = enabled_health();
  for (const NodeId peer : {4, 1, 3, 2}) hear(table, peer, 5.0, health);
  for (const SimTime now : {0.5, 5.5}) {
    std::vector<NodeId> alive;
    for (const NodeId peer : peers) {
      if (DemandTable::eligible(table.row(table.slot_of(peer)), now, &health)) {
        alive.push_back(peer);
      }
    }
    ASSERT_EQ(alive.size(), now < 1.0 ? 7u : 4u);
    Rng rng(6);
    Rng reference(6);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(policy.choose(table, now, rng, &health),
                alive[reference.index(alive.size())]);
    }
  }
}

TEST(DemandCyclePolicyTest, DynamicPicksInDemandOrder) {
  DemandCyclePolicy policy(/*resort_each_pick=*/true);
  Rng rng(6);
  // Paper §2: B's neighbours D(8), E(7), A(4), C(3).
  const DemandTable table = table_with({{0, 4.0}, {2, 3.0}, {3, 8.0}, {4, 7.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 3u);  // D
  EXPECT_EQ(policy.choose(table, 0.0, rng), 4u);  // E
  EXPECT_EQ(policy.choose(table, 0.0, rng), 0u);  // A
  EXPECT_EQ(policy.choose(table, 0.0, rng), 2u);  // C
  // Cycle restarts.
  EXPECT_EQ(policy.choose(table, 0.0, rng), 3u);
}

TEST(DemandCyclePolicyTest, DynamicResortsMidCycle) {
  // Fig. 4: after B-D, demands change (A: 2->0, C: 0->9); the dynamic
  // algorithm must pick C' next, then A'.
  DemandCyclePolicy policy(/*resort_each_pick=*/true);
  Rng rng(7);
  DemandTable table = table_with({{0 /*A*/, 2.0}, {2 /*C*/, 0.0}, {3 /*D*/, 13.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 3u);  // B-D
  advertise(table, 0, 0.0);                      // A'
  advertise(table, 2, 9.0);                      // C'
  EXPECT_EQ(policy.choose(table, 1.0, rng), 2u);  // B-C'
  EXPECT_EQ(policy.choose(table, 2.0, rng), 0u);  // B-A'
}

TEST(DemandCyclePolicyTest, StaticIgnoresMidCycleChanges) {
  // The same scenario under the frozen-order policy: it keeps following the
  // stale table (the §3 failure the dynamic algorithm fixes).
  DemandCyclePolicy policy(/*resort_each_pick=*/false);
  Rng rng(8);
  DemandTable table = table_with({{0 /*A*/, 2.0}, {2 /*C*/, 0.0}, {3 /*D*/, 13.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 3u);  // B-D
  advertise(table, 0, 0.0);
  advertise(table, 2, 9.0);
  EXPECT_EQ(policy.choose(table, 1.0, rng), 0u);  // still A (stale order)
  EXPECT_EQ(policy.choose(table, 2.0, rng), 2u);  // then C
}

TEST(DemandCyclePolicyTest, StaticRefreezesAfterFullCycle) {
  DemandCyclePolicy policy(/*resort_each_pick=*/false);
  Rng rng(9);
  DemandTable table = table_with({{1, 5.0}, {2, 1.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 1u);
  EXPECT_EQ(policy.choose(table, 0.0, rng), 2u);
  // Demand flips; the next cycle must see the new order.
  advertise(table, 1, 0.0);
  advertise(table, 2, 9.0);
  EXPECT_EQ(policy.choose(table, 1.0, rng), 2u);
}

TEST(DemandCyclePolicyTest, TieBreaksByNodeId) {
  DemandCyclePolicy policy(true);
  Rng rng(10);
  const DemandTable table = table_with({{5, 4.0}, {2, 4.0}, {9, 4.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 2u);
  EXPECT_EQ(policy.choose(table, 0.0, rng), 5u);
  EXPECT_EQ(policy.choose(table, 0.0, rng), 9u);
}

TEST(DemandCyclePolicyTest, EmptyTableReturnsInvalid) {
  DemandCyclePolicy policy(true);
  Rng rng(11);
  const DemandTable table({});
  EXPECT_EQ(policy.choose(table, 0.0, rng), kInvalidNode);
}

TEST(DemandCyclePolicyTest, AllDeadReturnsInvalid) {
  DemandCyclePolicy policy(true);
  Rng rng(12);
  const DemandTable table = table_with({{1, 5.0}, {2, 3.0}});
  const PeerHealthTracker health = enabled_health();
  EXPECT_EQ(policy.choose(table, 10.0, rng, &health), kInvalidNode);
}

TEST(DemandCyclePolicyTest, DeadNeighbourSkippedMidCycle) {
  DemandCyclePolicy policy(true);
  Rng rng(13);
  DemandTable table = table_with({{1, 5.0}, {2, 3.0}});
  const PeerHealthTracker health = enabled_health();
  EXPECT_EQ(policy.choose(table, 0.0, rng, &health), 1u);
  // Peer 2 stays silent until it is down; the cycle must not stall on it.
  hear(table, 1, 4.0, health);
  EXPECT_EQ(policy.choose(table, 4.0, rng, &health), 1u);
}

TEST(DemandCyclePolicyTest, StaticSkipsPeerThatWentDownAfterFreeze) {
  DemandCyclePolicy policy(/*resort_each_pick=*/false);
  Rng rng(15);
  DemandTable table = table_with({{1, 5.0}, {2, 3.0}});
  const PeerHealthTracker health = enabled_health();
  EXPECT_EQ(policy.choose(table, 0.0, rng, &health), 1u);  // freezes [1, 2]
  // Peer 2 goes down before its turn: the frozen order must not hand it out.
  hear(table, 1, 4.0, health);
  EXPECT_EQ(policy.choose(table, 4.0, rng, &health), 1u);
}

TEST(DemandCyclePolicyTest, ResetForgetsCycleState) {
  DemandCyclePolicy policy(true);
  Rng rng(14);
  const DemandTable table = table_with({{1, 5.0}, {2, 3.0}});
  EXPECT_EQ(policy.choose(table, 0.0, rng), 1u);
  policy.reset();
  EXPECT_EQ(policy.choose(table, 0.0, rng), 1u);  // cycle restarted
}

TEST(MakePolicyTest, FactoryProducesAllKinds) {
  EXPECT_NE(make_policy(PartnerSelection::uniform_random), nullptr);
  EXPECT_NE(make_policy(PartnerSelection::demand_static), nullptr);
  EXPECT_NE(make_policy(PartnerSelection::demand_dynamic), nullptr);
}

}  // namespace
}  // namespace fastcons
