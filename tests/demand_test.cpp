#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "demand/demand_model.hpp"
#include "demand/demand_table.hpp"

namespace fastcons {
namespace {

// Records `peer`'s advert as the engine does: resolve the peer (seating a
// stranger), then write its row.
void advertise(DemandTable& table, NodeId peer, double demand) {
  table.set_demand(table.seat(peer), demand);
}

TEST(StaticDemandTest, ReturnsGivenValues) {
  const StaticDemand d({4.0, 6.0, 3.0, 8.0, 7.0});  // paper §2's table
  EXPECT_EQ(d.size(), 5u);
  EXPECT_DOUBLE_EQ(d.demand_at(0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(d.demand_at(3, 100.0), 8.0);
  EXPECT_FALSE(d.is_dynamic());
}

TEST(StaticDemandTest, RejectsNegative) {
  EXPECT_THROW(StaticDemand({1.0, -2.0}), ConfigError);
}

TEST(UniformRandomDemandTest, StaysInRange) {
  Rng rng(1);
  const StaticDemand d = make_uniform_random_demand(200, 10.0, 20.0, rng);
  for (NodeId n = 0; n < 200; ++n) {
    EXPECT_GE(d.demand_at(n, 0.0), 10.0);
    EXPECT_LE(d.demand_at(n, 0.0), 20.0);
  }
}

TEST(UniformRandomDemandTest, RejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(make_uniform_random_demand(5, 5.0, 1.0, rng), ConfigError);
  EXPECT_THROW(make_uniform_random_demand(5, -1.0, 1.0, rng), ConfigError);
}

TEST(ZipfDemandTest, HasHeavyHeadAndLightTail) {
  Rng rng(2);
  const StaticDemand d = make_zipf_demand(100, 1.0, 100.0, rng);
  double max_d = 0.0, min_d = 1e18;
  for (NodeId n = 0; n < 100; ++n) {
    max_d = std::max(max_d, d.demand_at(n, 0.0));
    min_d = std::min(min_d, d.demand_at(n, 0.0));
  }
  EXPECT_DOUBLE_EQ(max_d, 100.0);  // rank 1
  EXPECT_DOUBLE_EQ(min_d, 1.0);    // rank 100
}

TEST(StepDemandTest, Figure4Schedule) {
  // Fig. 4: A: 2 -> 0 and C: 0 -> 9 at t=2; B=6, D=13 constant.
  const StepDemand d({
      /*A*/ {{0.0, 2.0}, {2.0, 0.0}},
      /*B*/ {{0.0, 6.0}},
      /*C*/ {{0.0, 0.0}, {2.0, 9.0}},
      /*D*/ {{0.0, 13.0}},
  });
  EXPECT_TRUE(d.is_dynamic());
  EXPECT_DOUBLE_EQ(d.demand_at(0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(d.demand_at(0, 2.0), 0.0);  // boundary belongs to new step
  EXPECT_DOUBLE_EQ(d.demand_at(2, 1.99), 0.0);
  EXPECT_DOUBLE_EQ(d.demand_at(2, 2.0), 9.0);
  EXPECT_DOUBLE_EQ(d.demand_at(3, 50.0), 13.0);
}

TEST(StepDemandTest, NegativeTimeClampsToFirstSlot) {
  // Callers with skewed clocks can ask fractionally before the epoch; that
  // must read the t=0 slot, not abort.
  const StepDemand d(
      std::vector<std::map<SimTime, double>>{{{0.0, 2.0}, {2.0, 7.0}}});
  EXPECT_DOUBLE_EQ(d.demand_at(0, -1e-9), 2.0);
  EXPECT_DOUBLE_EQ(d.demand_at(0, -5.0), 2.0);
}

TEST(StepDemandTest, RequiresTimeZeroEntry) {
  std::vector<std::map<SimTime, double>> missing_zero{{{1.0, 2.0}}};
  EXPECT_THROW(StepDemand(std::move(missing_zero)), ConfigError);
  std::vector<std::map<SimTime, double>> empty_schedule(1);
  EXPECT_THROW(StepDemand(std::move(empty_schedule)), ConfigError);
}

TEST(RandomWalkDemandTest, StaysWithinBounds) {
  Rng rng(3);
  const RandomWalkDemand d(10, 50.0, 2.0, 1.0, 100.0, 0.5, 20.0, rng);
  for (NodeId n = 0; n < 10; ++n) {
    for (double t = 0.0; t <= 20.0; t += 0.25) {
      const double v = d.demand_at(n, t);
      EXPECT_GE(v, 1.0);
      EXPECT_LE(v, 100.0);
    }
  }
}

TEST(RandomWalkDemandTest, ActuallyMoves) {
  Rng rng(4);
  const RandomWalkDemand d(1, 50.0, 2.0, 1.0, 100.0, 0.5, 20.0, rng);
  bool moved = false;
  for (double t = 0.5; t <= 20.0; t += 0.5) {
    if (d.demand_at(0, t) != d.demand_at(0, 0.0)) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(MigratingHotspotTest, PeakMovesAtSwitchTime) {
  // Node 0 is centre A (0 hops), node 1 is centre B.
  const MigratingHotspotDemand d({0, 3}, {3, 0}, 5.0, 100.0, 4.0);
  EXPECT_DOUBLE_EQ(d.demand_at(0, 0.0), 100.0);
  EXPECT_GT(d.demand_at(0, 0.0), d.demand_at(1, 0.0));
  EXPECT_DOUBLE_EQ(d.demand_at(1, 5.0), 100.0);
  EXPECT_GT(d.demand_at(1, 6.0), d.demand_at(0, 6.0));
  // Far nodes decay toward the base demand.
  EXPECT_NEAR(d.demand_at(1, 0.0), 4.0 + 96.0 / 8.0, 1e-12);
}

TEST(DiurnalDemandTest, OscillatesBetweenBaseAndPeak) {
  Rng rng(5);
  const DiurnalDemand d(4, 10.0, 30.0, 8.0, rng);
  for (NodeId n = 0; n < 4; ++n) {
    double lo = 1e18, hi = -1e18;
    for (double t = 0.0; t <= 16.0; t += 0.05) {
      const double v = d.demand_at(n, t);
      EXPECT_GE(v, 10.0 - 1e-9);
      EXPECT_LE(v, 40.0 + 1e-9);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_NEAR(lo, 10.0, 0.5);  // night floor
    EXPECT_NEAR(hi, 40.0, 0.5);  // midday peak
  }
}

TEST(DiurnalDemandTest, PhasesDiffer) {
  Rng rng(6);
  const DiurnalDemand d(8, 0.0, 10.0, 4.0, rng);
  // Not all nodes peak together.
  bool differ = false;
  for (NodeId n = 1; n < 8; ++n) {
    if (d.demand_at(n, 1.0) != d.demand_at(0, 1.0)) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(DiurnalDemandTest, RejectsBadParams) {
  Rng rng(7);
  EXPECT_THROW(DiurnalDemand(2, -1.0, 1.0, 1.0, rng), ConfigError);
  EXPECT_THROW(DiurnalDemand(2, 1.0, 1.0, 0.0, rng), ConfigError);
}

TEST(DemandSnapshotTest, SamplesEveryNode) {
  const StaticDemand d({1.0, 2.0, 3.0});
  const auto snap = demand_snapshot(d, 0.0);
  EXPECT_EQ(snap, (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---------------------------------------------------------------------------

TEST(DemandTableTest, UpdateAndQuery) {
  DemandTable table({1, 2, 3});
  advertise(table, 2, 9.0);
  EXPECT_EQ(table.demand_of(2), 9.0);
  EXPECT_EQ(table.demand_of(1), 0.0);
  EXPECT_FALSE(table.demand_of(99).has_value());
}

TEST(DemandTableTest, UnknownPeerUpdateIgnored) {
  DemandTable table({1});
  advertise(table, 42, 5.0);
  EXPECT_FALSE(table.demand_of(42).has_value());
}

TEST(DemandTableTest, OrderByDemandWithIdTieBreak) {
  DemandTable table({1, 2, 3, 4});
  advertise(table, 1, 5.0);
  advertise(table, 2, 8.0);
  advertise(table, 3, 5.0);
  advertise(table, 4, 1.0);
  EXPECT_EQ(table.by_demand_desc(0.0), (std::vector<NodeId>{2, 1, 3, 4}));
}

TEST(DemandTableTest, PaperSection2Ordering) {
  // B's neighbours A(4), C(3), D(8), E(7) must order D, E, A, C — the
  // paper's "best case" session order.
  DemandTable table({0 /*A*/, 2 /*C*/, 3 /*D*/, 4 /*E*/});
  advertise(table, 0, 4.0);
  advertise(table, 2, 3.0);
  advertise(table, 3, 8.0);
  advertise(table, 4, 7.0);
  EXPECT_EQ(table.by_demand_desc(0.0), (std::vector<NodeId>{3, 4, 0, 2}));
}

HealthConfig one_unit_health() {
  HealthConfig cfg;
  cfg.enabled = true;
  cfg.suspect_after = 0.5;
  cfg.down_after = 1.0;
  return cfg;
}

TEST(DemandTableTest, LivenessWindowExpiresSilentPeers) {
  // The health down threshold is the liveness window: a peer silent for
  // down_after leaves partner choice until it is heard again.
  const PeerHealthTracker health(one_unit_health());
  DemandTable table({1, 2});
  advertise(table, 1, 5.0);
  advertise(table, 2, 3.0);
  const DemandEntry& one = table.row(table.slot_of(1));
  const DemandEntry& two = table.row(table.slot_of(2));
  EXPECT_TRUE(DemandTable::eligible(one, 0.5, &health));
  EXPECT_TRUE(DemandTable::eligible(one, 0.99, &health));
  EXPECT_FALSE(DemandTable::eligible(one, 1.0, &health));  // boundary is down
  table.record_contact(table.slot_of(1), 1.5, health);
  EXPECT_TRUE(DemandTable::eligible(one, 2.0, &health));
  EXPECT_FALSE(DemandTable::eligible(two, 2.0, &health));
  EXPECT_EQ(table.by_demand_desc(2.0, &health), (std::vector<NodeId>{1}));
}

TEST(DemandTableTest, DisabledLivenessKeepsEveryoneAlive) {
  const PeerHealthTracker disabled(HealthConfig{});
  DemandTable table({1});
  const DemandEntry& one = table.row(table.slot_of(1));
  EXPECT_TRUE(DemandTable::eligible(one, 1e9, &disabled));
  EXPECT_TRUE(DemandTable::eligible(one, 1e9, nullptr));
  EXPECT_EQ(table.by_demand_desc(1e9, &disabled), (std::vector<NodeId>{1}));
  EXPECT_EQ(table.by_demand_desc(1e9), (std::vector<NodeId>{1}));
}

TEST(DemandTableTest, TouchDoesNotChangeDemand) {
  // Contact and decay are health's: ranking a suspect peer by its decayed
  // demand, and later hearing from it, leave the stored advert as is.
  const PeerHealthTracker health(one_unit_health());
  DemandTable table({1});
  advertise(table, 1, 7.0);
  const PeerSlot slot = table.slot_of(1);
  ASSERT_EQ(health.derive(table.row(slot).health, 0.7), PeerHealth::suspect);
  std::vector<RankedPeer> ranked;
  table.by_demand_desc(0.7, &health, ranked);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_DOUBLE_EQ(ranked[0].demand, 7.0 * health.config().suspect_demand_factor);
  EXPECT_EQ(ranked[0].slot, slot);
  EXPECT_EQ(table.demand_of(1), 7.0);
  table.record_contact(slot, 10.0, health);
  EXPECT_EQ(table.demand_of(1), 7.0);
  EXPECT_TRUE(DemandTable::eligible(table.row(slot), 10.5, &health));
}

TEST(DemandTableTest, AddNeighbourIsIdempotent) {
  DemandTable table({1});
  table.add_neighbour(table.seat(5));
  table.add_neighbour(table.seat(5));
  EXPECT_EQ(table.neighbours().size(), 2u);
  EXPECT_EQ(table.slots(), 2u);
  EXPECT_TRUE(table.demand_of(5).has_value());
}

TEST(DemandTableTest, IsAliveUnknownPeer) {
  // A stranger holds a slot but is no neighbour: its adverts and contacts
  // are ignored and it is never offered.
  const PeerHealthTracker health(one_unit_health());
  DemandTable table({1});
  const PeerSlot stranger = table.seat(9);
  EXPECT_NE(stranger, kNoSlot);
  EXPECT_EQ(table.seat(9), stranger);
  advertise(table, 9, 50.0);
  EXPECT_FALSE(table.demand_of(9).has_value());
  EXPECT_EQ(table.record_contact(stranger, 5.0, health), PeerHealth::up);
  EXPECT_EQ(table.by_demand_desc(0.0, &health), (std::vector<NodeId>{1}));
  EXPECT_EQ(table.by_demand_desc(0.0), (std::vector<NodeId>{1}));
}

TEST(DemandTableTest, PromotedStrangerKeepsSlotAndJoinsLast) {
  // A stranger promoted to neighbour keeps its (older) slot but takes the
  // last place in registration order, with demand 0 and health stamps
  // starting at the promotion.
  const PeerHealthTracker health(one_unit_health());
  DemandTable table({4});
  const PeerSlot stranger = table.seat(2);
  advertise(table, 2, 9.0);  // ignored while a stranger
  table.add_neighbour(table.seat(7), 0.0);
  table.add_neighbour(table.seat(2), 3.0);
  EXPECT_EQ(table.slot_of(2), stranger);
  ASSERT_EQ(table.neighbours().size(), 3u);
  EXPECT_EQ(table.row(table.neighbours()[0]).peer, 4u);
  EXPECT_EQ(table.row(table.neighbours()[1]).peer, 7u);
  EXPECT_EQ(table.row(table.neighbours()[2]).peer, 2u);
  EXPECT_EQ(table.demand_of(2), 0.0);
  EXPECT_EQ(health.derive(table.row(stranger).health, 3.4), PeerHealth::up);
  EXPECT_EQ(health.derive(table.row(stranger).health, 4.0), PeerHealth::down);
}

TEST(DemandTableTest, ResetReseatsNeighboursInOrder) {
  DemandTable table({3, 1});
  table.seat(8);
  advertise(table, 3, 2.0);
  table.reset({5, 3, 5});
  EXPECT_EQ(table.slots(), 2u);
  EXPECT_EQ(table.slot_of(5), 0u);
  EXPECT_EQ(table.slot_of(3), 1u);
  EXPECT_EQ(table.slot_of(1), kNoSlot);
  EXPECT_EQ(table.slot_of(8), kNoSlot);
  EXPECT_EQ(table.demand_of(3), 0.0);
}

}  // namespace
}  // namespace fastcons
