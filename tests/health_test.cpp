// Peer-health derivation: threshold-exact transitions, flapping,
// failure-driven suspicion, demand decay through the table and the engine,
// and the default-off contract that keeps every sim digest byte-identical.
#include "health/peer_health.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "demand/demand_table.hpp"

namespace fastcons {
namespace {

// Records `peer`'s advert as the engine does: resolve the peer (seating a
// stranger), then write its row.
void advertise(DemandTable& table, NodeId peer, double demand) {
  table.set_demand(table.seat(peer), demand);
}

HealthConfig enabled_config() {
  HealthConfig cfg;
  cfg.enabled = true;  // suspect_after 1.5, down_after 4.0, factor 0.25
  return cfg;
}

TEST(PeerHealthTest, DisabledTrackerReportsEverythingUp) {
  const PeerHealthTracker t(HealthConfig{});
  HealthStamps one;
  const HealthStamps two;
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.derive(one, 1000.0), PeerHealth::up);
  EXPECT_DOUBLE_EQ(t.demand_factor(one, 1000.0), 1.0);
  PeerHealthTracker::record_failure(one, 500.0);
  PeerHealthTracker::record_failure(one, 501.0);
  PeerHealthTracker::record_failure(one, 502.0);
  EXPECT_EQ(t.derive(one, 503.0), PeerHealth::up);
  EXPECT_EQ(t.derive(one, 1e9), PeerHealth::up);
  EXPECT_EQ(t.derive(two, 1e9), PeerHealth::up);
}

TEST(PeerHealthTest, TransitionsExactlyAtThresholds) {
  const PeerHealthTracker t(enabled_config());
  const HealthStamps p;  // last heard at t=0
  // Silence < suspect_after: still up. At the threshold: suspect.
  EXPECT_EQ(t.derive(p, 1.4999), PeerHealth::up);
  EXPECT_EQ(t.derive(p, 1.5), PeerHealth::suspect);
  EXPECT_EQ(t.derive(p, 3.9999), PeerHealth::suspect);
  EXPECT_EQ(t.derive(p, 4.0), PeerHealth::down);
  // Derivation is pure: asking about the past still answers up.
  EXPECT_EQ(t.derive(p, 1.0), PeerHealth::up);
  // suspect_since is when the degradation began, not when we asked.
  EXPECT_DOUBLE_EQ(t.view(1, p, 10.0).suspect_since, 1.5);
}

TEST(PeerHealthTest, ContactRepromotesAndReportsPriorState) {
  const PeerHealthTracker t(enabled_config());
  HealthStamps p;
  EXPECT_EQ(t.derive(p, 5.0), PeerHealth::down);
  // The revival contact returns the state the peer was in before it.
  EXPECT_EQ(t.record_contact(p, 5.0), PeerHealth::down);
  EXPECT_EQ(t.derive(p, 5.0), PeerHealth::up);
  // A second contact is an up -> up no-op, not another revival.
  EXPECT_EQ(t.record_contact(p, 5.1), PeerHealth::up);
}

TEST(PeerHealthTest, FlappingPeerNeverReachesDown) {
  // Contact every 2.0 units: silence crosses suspect_after (1.5) each gap
  // but never down_after (4.0) — the peer oscillates up <-> suspect, and no
  // contact is a revival from down.
  const PeerHealthTracker t(enabled_config());
  HealthStamps p;
  for (int cycle = 0; cycle < 10; ++cycle) {
    const SimTime base = 2.0 * cycle;
    EXPECT_EQ(t.derive(p, base + 1.9), PeerHealth::suspect) << cycle;
    EXPECT_EQ(t.record_contact(p, base + 2.0), PeerHealth::suspect) << cycle;
    EXPECT_EQ(t.derive(p, base + 2.0), PeerHealth::up) << cycle;
  }
}

TEST(PeerHealthTest, ConsecutiveFailuresForceSuspicion) {
  const PeerHealthTracker t(enabled_config());
  HealthStamps p;
  t.record_contact(p, 1.0);
  // Two failures: below the threshold of 3, recency still rules.
  PeerHealthTracker::record_failure(p, 1.1);
  PeerHealthTracker::record_failure(p, 1.2);
  EXPECT_EQ(t.derive(p, 1.3), PeerHealth::up);
  PeerHealthTracker::record_failure(p, 1.3);
  EXPECT_EQ(t.derive(p, 1.4), PeerHealth::suspect);
  // suspect_since points at the first failure of the run.
  EXPECT_DOUBLE_EQ(t.view(1, p, 1.4).suspect_since, 1.1);
  // Failures alone never mean down — only prolonged silence does.
  EXPECT_EQ(t.derive(p, 2.0), PeerHealth::suspect);
  // Restart-under-suspicion: one real contact clears the failure run.
  EXPECT_EQ(t.record_contact(p, 2.0), PeerHealth::suspect);
  EXPECT_EQ(t.derive(p, 2.1), PeerHealth::up);
  EXPECT_EQ(t.view(1, p, 2.1).consecutive_failures, 0u);
}

TEST(PeerHealthTest, DemandFactorDecaysWithState) {
  const PeerHealthTracker t(enabled_config());
  const HealthStamps p;
  EXPECT_DOUBLE_EQ(t.demand_factor(p, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(t.demand_factor(p, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(t.demand_factor(p, 5.0), 0.0);
}

TEST(PeerHealthTest, ResetMatchesFreshConstruction) {
  // The stamps live in the demand table's rows: a reset table derives what
  // a fresh one does, whatever contacts and failures came before.
  const PeerHealthTracker t(enabled_config());
  DemandTable table({1, 2});
  table.record_contact(table.slot_of(1), 3.0, t);
  table.record_failure(table.slot_of(2), 3.0);
  ASSERT_EQ(table.record_contact(table.slot_of(2), 9.0, t), PeerHealth::down);
  table.reset({1, 2});
  const DemandTable fresh({1, 2});
  for (const NodeId peer : {1u, 2u}) {
    const HealthStamps& reset = table.row(table.slot_of(peer)).health;
    const HealthStamps& built = fresh.row(fresh.slot_of(peer)).health;
    EXPECT_EQ(t.derive(reset, 1.0), t.derive(built, 1.0));
    EXPECT_EQ(t.derive(reset, 11.0), t.derive(built, 11.0));
    EXPECT_DOUBLE_EQ(t.view(peer, reset, 11.0).last_heard,
                     t.view(peer, built, 11.0).last_heard);
    EXPECT_EQ(reset.failures, 0u);
  }
}

TEST(PeerHealthTest, DemandTableSelectionDecaysSuspectAndDropsDown) {
  // Peer 1: demand 10, silent since t=0 (down by t=5).
  // Peer 2: demand 8, heard at t=4 (up at t=5).
  // Peer 3: demand 40, heard at t=4 - 1.6 (suspect: 40 * 0.25 = 10 ties
  //         with nothing; effective 10 > 8 keeps it first).
  const PeerHealthTracker t(enabled_config());
  DemandTable table({1, 2, 3});
  table.record_contact(table.slot_of(2), 4.0, t);
  table.record_contact(table.slot_of(3), 2.4, t);
  advertise(table, 1, 10.0);
  advertise(table, 2, 8.0);
  advertise(table, 3, 40.0);

  const auto ranked = table.by_demand_desc(3.9, &t);
  ASSERT_EQ(ranked.size(), 3u);  // nobody down yet at t=3.9
  EXPECT_EQ(ranked[0], 3u);

  const auto later = table.by_demand_desc(5.0, &t);
  ASSERT_EQ(later.size(), 2u);  // peer 1 is down and excluded
  EXPECT_EQ(later[0], 3u);  // 40 * 0.25 = 10 beats 8
  EXPECT_EQ(later[1], 2u);
  EXPECT_FALSE(DemandTable::eligible(table.row(table.slot_of(1)), 5.0, &t));
  // Health-blind overload is unchanged: raw demand order, all peers.
  EXPECT_EQ(table.by_demand_desc(5.0).size(), 3u);
  EXPECT_EQ(table.by_demand_desc(5.0)[0], 3u);
}

TEST(PeerHealthEngineTest, MessagesRefreshHealthAndSilenceDegrades) {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.health.enabled = true;
  ReplicaEngine e(0, {1, 2}, cfg, /*seed=*/7);
  e.handle(1, DemandAdvert{5.0}, 0.2);
  // Peer 1 heard at 0.2; peer 2 silent since construction at 0.0.
  EXPECT_EQ(e.health_of(1, 1.0).state, PeerHealth::up);
  EXPECT_EQ(e.health_of(2, 1.6).state, PeerHealth::suspect);
  EXPECT_EQ(e.health_of(2, 4.5).state, PeerHealth::down);
  EXPECT_EQ(e.health_of(1, 1.6).state, PeerHealth::up);
}

TEST(PeerHealthEngineTest, ResetClearsHealthState) {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.health.enabled = true;
  ReplicaEngine e(0, {1}, cfg, 7);
  e.handle(1, DemandAdvert{5.0}, 8.0);
  e.reset(0, {1}, cfg, 7);
  // After reset the tracker starts from t=0 again, exactly like a fresh
  // engine: silence is measured from construction, not the old contact.
  EXPECT_EQ(e.health_of(1, 1.0).state, PeerHealth::up);
  EXPECT_EQ(e.health_of(1, 4.0).state, PeerHealth::down);
}

TEST(PeerHealthEngineTest, GradientPushSkipsUnhealthyTarget) {
  // Node 0 (demand 1) with a demand-3 neighbour: a local write fast-pushes
  // to it while up (3 > 1), but once the neighbour turns suspect its
  // decayed demand (3 * 0.25 = 0.75) no longer clears the gradient — the
  // push is suppressed and counted. A fully-down peer is excluded from
  // selection before the gradient even looks at it.
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.health.enabled = true;
  ReplicaEngine e(0, {1}, cfg, 7);
  e.set_own_demand(1.0);
  e.handle(1, DemandAdvert{3.0}, 0.1);

  const auto while_up = e.local_write("a", "1", 0.2);
  bool pushed = false;
  for (const Outbound& out : while_up) {
    if (out.to == 1) pushed = true;
  }
  EXPECT_TRUE(pushed);
  EXPECT_EQ(e.stats().pushes_suppressed_unhealthy, 0u);

  const auto while_suspect = e.local_write("b", "2", 2.0);  // silent 1.9
  EXPECT_TRUE(while_suspect.empty());
  EXPECT_EQ(e.stats().pushes_suppressed_unhealthy, 1u);

  const auto while_down = e.local_write("c", "3", 9.0);  // excluded outright
  EXPECT_TRUE(while_down.empty());
  EXPECT_EQ(e.stats().pushes_suppressed_unhealthy, 1u);
}

}  // namespace
}  // namespace fastcons
