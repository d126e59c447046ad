// Exact reproductions of the paper's worked examples: the §2 table, the
// Fig. 3 worst/optimal session orders, and the Fig. 4 dynamic session table.
#include <gtest/gtest.h>

#include <memory>

#include "demand/demand_table.hpp"
#include "core/policy.hpp"
#include "stats/service_metrics.hpp"

namespace fastcons {
namespace {

// Records `peer`'s advert as the engine does: resolve the peer (seating a
// stranger), then write its row.
void advertise(DemandTable& table, NodeId peer, double demand) {
  table.set_demand(table.seat(peer), demand);
}

// Paper §2: "Replica A B C D E / Rate of demand 4 6 3 8 7".
constexpr double kDemandA = 4, kDemandB = 6, kDemandC = 3, kDemandD = 8,
                 kDemandE = 7;
// Node ids: A=0, B=1, C=2, D=3, E=4.

std::vector<std::optional<SimTime>> deliveries_for_order(
    const std::vector<NodeId>& order) {
  // B holds the change; session k (completing at time k) makes order[k-1]
  // consistent. B itself is consistent from t=0.
  std::vector<std::optional<SimTime>> delivery(5);
  delivery[1] = 0.0;  // B
  for (std::size_t k = 0; k < order.size(); ++k) {
    delivery[order[k]] = static_cast<double>(k + 1);
  }
  return delivery;
}

const std::vector<double> kDemands{kDemandA, kDemandB, kDemandC, kDemandD,
                                   kDemandE};

TEST(PaperFig3Test, WorstCaseSeries) {
  // Worst case order B-C, B-A, B-E, B-D -> rates 9, 13, 20, 28.
  const auto delivery = deliveries_for_order({2, 0, 4, 3});
  const auto series = consistent_rate_series(delivery, kDemands, 4, 1.0);
  EXPECT_EQ(series, (std::vector<double>{9, 13, 20, 28}));
}

TEST(PaperFig3Test, OptimalCaseSeries) {
  // Optimal order B-D, B-E, B-A, B-C -> rates 14, 21, 25, 28.
  const auto delivery = deliveries_for_order({3, 4, 0, 2});
  const auto series = consistent_rate_series(delivery, kDemands, 4, 1.0);
  EXPECT_EQ(series, (std::vector<double>{14, 21, 25, 28}));
}

TEST(PaperFig3Test, OptimalDominatesWorstPointwise) {
  const auto worst = consistent_rate_series(deliveries_for_order({2, 0, 4, 3}),
                                            kDemands, 4, 1.0);
  const auto best = consistent_rate_series(deliveries_for_order({3, 4, 0, 2}),
                                           kDemands, 4, 1.0);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GE(best[k], worst[k]);
}

TEST(PaperFig3Test, DemandCyclePolicyProducesTheOptimalOrder) {
  // The §2 algorithm applied to B's neighbour table must yield exactly the
  // paper's best-case order D, E, A, C.
  DemandTable table({0, 2, 3, 4});
  advertise(table, 0, kDemandA);
  advertise(table, 2, kDemandC);
  advertise(table, 3, kDemandD);
  advertise(table, 4, kDemandE);
  DemandCyclePolicy policy(/*resort_each_pick=*/true);
  Rng rng(1);
  std::vector<NodeId> order;
  for (int i = 0; i < 4; ++i) order.push_back(policy.choose(table, 0.0, rng));
  EXPECT_EQ(order, (std::vector<NodeId>{3, 4, 0, 2}));
}

TEST(PaperFig4Test, DynamicSessionTable) {
  // §4's table: sessions B-D (t=1), B-C' (t=2), B-A' (t=3) once A drops
  // 2 -> 0 and C rises 0 -> 9 after the first session.
  DemandTable table({0 /*A*/, 2 /*C*/, 3 /*D*/});
  advertise(table, 0, 2.0);
  advertise(table, 2, 0.0);
  advertise(table, 3, 13.0);
  DemandCyclePolicy dynamic(/*resort_each_pick=*/true);
  Rng rng(1);

  EXPECT_EQ(dynamic.choose(table, 1.0, rng), 3u);  // t=1: B-D
  // Demand shifts (A'=0, C'=9) and the adverts refresh the table.
  advertise(table, 0, 0.0);
  advertise(table, 2, 9.0);
  EXPECT_EQ(dynamic.choose(table, 2.0, rng), 2u);  // t=2: B-C'
  EXPECT_EQ(dynamic.choose(table, 3.0, rng), 0u);  // t=3: B-A'
}

TEST(PaperFig4Test, StaticAlgorithmMisroutesAfterShift) {
  // The same shift under the frozen-order policy: B-A comes before B-C,
  // "it would not contribute to carrying consistency to the zones with
  // greatest demand".
  DemandTable table({0, 2, 3});
  advertise(table, 0, 2.0);
  advertise(table, 2, 0.0);
  advertise(table, 3, 13.0);
  DemandCyclePolicy static_policy(/*resort_each_pick=*/false);
  Rng rng(1);
  EXPECT_EQ(static_policy.choose(table, 1.0, rng), 3u);
  advertise(table, 0, 0.0);
  advertise(table, 2, 9.0);
  EXPECT_EQ(static_policy.choose(table, 2.0, rng), 0u);  // stale: A before C'
}

TEST(PaperSection2Test, DemandTableOrdersByDemand) {
  // The running example's full ordering over all five replicas.
  DemandTable table({0, 1, 2, 3, 4});
  const std::vector<double> demands{kDemandA, kDemandB, kDemandC, kDemandD,
                                    kDemandE};
  for (NodeId n = 0; n < 5; ++n) advertise(table, n, demands[n]);
  EXPECT_EQ(table.by_demand_desc(0.0), (std::vector<NodeId>{3, 4, 1, 0, 2}));
}

TEST(PaperMetricsTest, TotalDemandIsTwentyEight) {
  // Fig. 3's plateau: once all replicas are consistent the service rate is
  // the total demand 4+6+3+8+7 = 28.
  std::vector<std::optional<SimTime>> all_at_zero(5, 0.0);
  EXPECT_DOUBLE_EQ(consistent_request_rate(all_at_zero, kDemands, 0.0), 28.0);
}

TEST(PaperMetricsTest, ConsistentRequestsServedIntegrates) {
  // Two replicas, demand 2 and 3; deliveries at t=0 and t=1; by t=2 the
  // integral is 2*2 + 3*1 = 7 requests served with consistent content.
  const std::vector<std::optional<SimTime>> delivery{0.0, 1.0};
  EXPECT_DOUBLE_EQ(consistent_requests_served(delivery, {2.0, 3.0}, 2.0), 7.0);
}

TEST(PaperMetricsTest, RateSeriesHonoursPeriodScaling) {
  // Same deliveries, period 2.0: session k corresponds to time 2k.
  const std::vector<std::optional<SimTime>> delivery{0.0, 3.0};
  const auto series = consistent_rate_series(delivery, {5.0, 7.0}, 2, 2.0);
  EXPECT_EQ(series, (std::vector<double>{5.0, 12.0}));
}

TEST(PaperMetricsTest, UndeliveredReplicasNeverCount) {
  const std::vector<std::optional<SimTime>> delivery{0.0, std::nullopt};
  EXPECT_DOUBLE_EQ(consistent_request_rate(delivery, {3.0, 100.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(consistent_requests_served(delivery, {3.0, 100.0}, 10.0),
                   30.0);
}

TEST(PaperMetricsTest, ZeroDemandIsNeutral) {
  const std::vector<std::optional<SimTime>> delivery{1.0, 2.0};
  EXPECT_DOUBLE_EQ(demand_weighted_mean_delay(delivery, {0.0, 0.0}, 10.0),
                   0.0);
}

TEST(PaperMetricsTest, WeightedDelayClampsAtHorizon) {
  const std::vector<std::optional<SimTime>> delivery{25.0};
  EXPECT_DOUBLE_EQ(demand_weighted_mean_delay(delivery, {4.0}, 10.0), 10.0);
}

TEST(PaperMetricsTest, WeightedDelayPenalisesHotMisses) {
  // A missing delivery at a hot replica dominates the weighted delay.
  const std::vector<std::optional<SimTime>> delivery{0.0, std::nullopt};
  const double d = demand_weighted_mean_delay(delivery, {1.0, 9.0}, 10.0);
  EXPECT_DOUBLE_EQ(d, (1.0 * 0.0 + 9.0 * 10.0) / 10.0);
}

}  // namespace
}  // namespace fastcons
