#include "sim_runtime/sim_network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

std::shared_ptr<const DemandModel> static_demand(std::vector<double> d) {
  return std::make_shared<StaticDemand>(std::move(d));
}

SimConfig fast_sim(std::uint64_t seed = 1) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seed = seed;
  return cfg;
}

Graph line5(std::uint64_t seed = 10) {
  Rng rng(seed);
  return make_line(5, {0.01, 0.05}, rng);
}

TEST(SimNetworkTest, RejectsMismatchedDemandSize) {
  EXPECT_THROW(SimNetwork(line5(), static_demand({1.0, 2.0}), fast_sim()),
               ConfigError);
}

TEST(SimNetworkTest, RejectsBadLossRate) {
  SimConfig cfg = fast_sim();
  cfg.faults.loss = 1.0;
  EXPECT_THROW(SimNetwork(line5(), static_demand({1, 1, 1, 1, 1}), cfg),
               ConfigError);
}

TEST(SimNetworkTest, SingleWritePropagatesEverywhere) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 40.0));
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_EQ(net.engine(n).read("k"), "v") << "node " << n;
    EXPECT_TRUE(net.first_delivery(n, id).has_value());
  }
  EXPECT_EQ(net.nodes_holding(id), 5u);
}

TEST(SimNetworkTest, WriterDeliveryTimeIsWriteTime) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  const UpdateId id = net.schedule_write(2, "k", "v", 1.25);
  net.run_until(2.0);
  const auto at = net.first_delivery(2, id);
  ASSERT_TRUE(at.has_value());
  EXPECT_DOUBLE_EQ(*at, 1.25);
}

TEST(SimNetworkTest, DeliveryTimesRespectCausality) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 40.0));
  // Nothing can hold the update before it was written.
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_GE(*net.first_delivery(n, id), 0.5);
  }
}

TEST(SimNetworkTest, MultipleWritersConvergeToIdenticalState) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim(7));
  net.schedule_write(0, "a", "1", 0.3);
  net.schedule_write(4, "b", "2", 0.6);
  net.schedule_write(2, "a", "3", 0.9);  // conflicting key
  net.run_until(1.0);  // past the writes, so "consistent" is non-trivial
  EXPECT_TRUE(net.run_until_consistent(60.0));
  for (NodeId n = 1; n < net.size(); ++n) {
    EXPECT_EQ(net.engine(n).summary(), net.engine(0).summary());
    EXPECT_EQ(net.engine(n).read("a"), net.engine(0).read("a"));
    EXPECT_EQ(net.engine(n).read("b"), net.engine(0).read("b"));
  }
  // Last-writer-wins: the t=0.9 write to "a" is newest everywhere.
  EXPECT_EQ(net.engine(0).read("a"), "3");
}

TEST(SimNetworkTest, PredictedWriteIdsAreSequentialPerNode) {
  SimNetwork net(line5(), static_demand({1, 1, 1, 1, 1}), fast_sim());
  const UpdateId first = net.schedule_write(1, "x", "1", 0.1);
  const UpdateId second = net.schedule_write(1, "y", "2", 0.2);
  EXPECT_EQ(first, (UpdateId{1, 1}));
  EXPECT_EQ(second, (UpdateId{1, 2}));
}

TEST(SimNetworkTest, DeterministicForSameSeed) {
  const auto run = [](std::uint64_t seed) {
    SimNetwork net(line5(42), static_demand({4, 6, 3, 8, 7}), fast_sim(seed));
    const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
    net.run_until_update_everywhere(id, 40.0);
    std::vector<double> times;
    for (NodeId n = 0; n < net.size(); ++n) {
      times.push_back(net.first_delivery(n, id).value_or(-1.0));
    }
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

/// Ground truth the incremental convergence tracker must agree with.
bool brute_force_consistent(const SimNetwork& net) {
  for (NodeId n = 1; n < net.size(); ++n) {
    if (!(net.engine(n).summary() == net.engine(0).summary())) return false;
  }
  return true;
}

TEST(SimNetworkTest, IncrementalConsistencyTrackerAgreesWithBruteForce) {
  SimNetwork net(line5(), static_demand({3, 1, 4, 1, 5}), fast_sim(7));
  net.schedule_write(0, "a", "1", 0.3);
  net.schedule_write(4, "b", "2", 0.7);
  // Step through the run in slices and cross-check at every boundary,
  // including repeated polls at the same revision (the cached path).
  bool saw_inconsistent = false;
  for (int slice = 1; slice <= 120; ++slice) {
    net.run_until(0.1 * slice);
    const bool expected = brute_force_consistent(net);
    EXPECT_EQ(net.all_consistent(), expected) << "at t=" << 0.1 * slice;
    EXPECT_EQ(net.all_consistent(), expected) << "cached poll diverged";
    if (!expected) saw_inconsistent = true;
  }
  EXPECT_TRUE(saw_inconsistent);  // the check exercised both outcomes
  EXPECT_TRUE(net.all_consistent());
  EXPECT_GT(net.events_executed(), 0u);
}

TEST(SimNetworkTest, RunUntilConsistentMatchesTracker) {
  SimNetwork net(line5(), static_demand({2, 2, 2, 2, 2}), fast_sim(9));
  net.schedule_write(2, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_consistent(40.0));
  EXPECT_TRUE(brute_force_consistent(net));
}

TEST(SimNetworkTest, LossySimulationStillConverges) {
  SimConfig cfg = fast_sim(3);
  cfg.faults.loss = 0.2;
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 50.0));
  EXPECT_GT(net.messages_dropped(), 0u);
}

TEST(SimNetworkTest, PartitionHealsAndConverges) {
  // Split the line into {0, 1, 2} | {3, 4} for 5 time units: the far side
  // cannot learn the update until the partition heals.
  SimConfig cfg = fast_sim(4);
  cfg.faults.partitions.push_back(PartitionEvent{2, 0.0, 5.0});
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.run_until(5.0);
  EXPECT_LT(net.nodes_holding(id), 5u);
  EXPECT_FALSE(net.first_delivery(4, id).has_value());
  EXPECT_TRUE(net.run_until_update_everywhere(id, 60.0));
  EXPECT_GE(*net.first_delivery(4, id), 5.0);
}

TEST(SimNetworkTest, OverlayLinkShortcutsPropagation) {
  // Long line; an overlay link between the endpoints lets a fast push jump
  // across if demand pulls that way.
  Rng rng(8);
  Graph g = make_line(30, {0.01, 0.02}, rng);
  std::vector<double> demand(30, 1.0);
  demand[29] = 100.0;  // far end is the hot replica
  SimConfig cfg = fast_sim(9);
  SimNetwork net(std::move(g), static_demand(demand), cfg);
  net.add_overlay_link(0, 29, 0.05);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.run_until(1.0);
  // The overlay target got it almost immediately via the gradient push.
  ASSERT_TRUE(net.first_delivery(29, id).has_value());
  EXPECT_LT(*net.first_delivery(29, id), 0.7);
}

TEST(SimNetworkTest, TrafficCountersAccumulate) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.run_until_update_everywhere(id, 40.0);
  const TrafficCounters traffic = net.total_traffic();
  EXPECT_GT(traffic.total_messages(), 0u);
  EXPECT_GT(traffic.bytes(TrafficClass::session_control), 0u);
  EXPECT_GT(traffic.messages(TrafficClass::demand_advert), 0u);
  const EngineStats stats = net.total_stats();
  EXPECT_GT(stats.sessions_initiated, 0u);
  EXPECT_EQ(stats.updates_applied, 5u);
}

TEST(SimNetworkTest, OnDeliveryObserverSeesEveryNodeOnce) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  std::vector<int> seen(5, 0);
  net.on_delivery = [&](NodeId n, const Update& u, DeliveryPath, SimTime) {
    EXPECT_EQ(u.key, "k");
    ++seen[n];
  };
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.run_until_update_everywhere(id, 40.0);
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(seen[n], 1) << "node " << n;
}

TEST(SimNetworkTest, WeakConfigSendsNoFastTraffic) {
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::weak();
  cfg.seed = 11;
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 50.0));
  const TrafficCounters traffic = net.total_traffic();
  EXPECT_EQ(traffic.messages(TrafficClass::fast_control), 0u);
  EXPECT_EQ(traffic.messages(TrafficClass::fast_payload), 0u);
}

TEST(SimNetworkTest, DemandNowTracksDynamicModels) {
  Rng rng(21);
  Graph g = make_line(2, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StepDemand>(std::vector<std::map<SimTime, double>>{
      {{0.0, 1.0}, {3.0, 9.0}},
      {{0.0, 2.0}},
  });
  SimNetwork net(std::move(g), demand, fast_sim());
  EXPECT_EQ(net.demand_now()[0], 1.0);
  net.run_until(3.5);
  EXPECT_EQ(net.demand_now()[0], 9.0);
  EXPECT_EQ(net.demand_now()[1], 2.0);
}

TEST(SimNetworkTest, OverlayLinkLatencyIsHonoured) {
  Rng rng(22);
  Graph g = make_line(3, {0.01, 0.011}, rng);
  std::vector<double> demand{1.0, 2.0, 50.0};
  SimNetwork net(std::move(g), static_demand(demand), fast_sim(23));
  net.add_overlay_link(0, 2, 0.2);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.run_until(1.15);
  // The gradient push to node 2 travelled the overlay; the offer/ack/data
  // exchange is three one-way trips, so arrival is at least 3 latencies
  // after the write.
  const auto at = net.first_delivery(2, id);
  ASSERT_TRUE(at.has_value());
  EXPECT_GE(*at, 0.5 + 3 * 0.2 - 1e-9);
}

/// Steps `net` from its first event (a session timer) through the four
/// deliveries of that session: request, summary, push and reply must each
/// take one trip over the link.
void expect_session_hops(SimNetwork& net, double latency) {
  std::vector<SimTime> at;
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(net.sim().step());
    at.push_back(net.sim().now());
  }
  for (std::size_t hop = 1; hop < at.size(); ++hop) {
    EXPECT_DOUBLE_EQ(at[hop], at[hop - 1] + latency) << "hop " << hop;
  }
  const EngineStats stats = net.total_stats();
  EXPECT_EQ(stats.sessions_initiated, 1u);
  EXPECT_EQ(stats.sessions_responded, 1u);
  EXPECT_EQ(stats.sessions_completed, 1u);
}

TEST(SimNetworkTest, ReplyTravelsInboundLinkLatency) {
  // Replies reuse the latency their request arrived with instead of looking
  // the link up again; each of a session's four messages must still take
  // exactly one link latency. Periodic timing gives each node one session
  // per period at a seeded phase; on this seed the second node's first
  // timer fires after the first node's session has ended, so the first
  // five events are that session (the session counts below check it).
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::weak();
  cfg.protocol.advert_period = 0.0;
  cfg.timing = SimConfig::Timing::periodic;
  cfg.seed = 31;
  constexpr double kLatency = 0.003;

  Graph line(2);
  line.add_edge(0, 1, kLatency);
  SimNetwork net(std::move(line), static_demand({1, 2}), cfg);
  expect_session_hops(net, kLatency);

  // The same over an island-overlay link, whose latency SimNetwork keeps
  // outside the graph.
  SimNetwork overlay(Graph(2), static_demand({1, 2}), cfg);
  overlay.add_overlay_link(0, 1, kLatency);
  expect_session_hops(overlay, kLatency);
}

TEST(SimNetworkTest, PeriodicTimingAlsoConverges) {
  SimConfig cfg = fast_sim(26);
  cfg.timing = SimConfig::Timing::periodic;
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 40.0));
}

TEST(SimNetworkTest, UnprimedTablesStillConvergeViaAdverts) {
  // prime_tables=false: nodes start ignorant of neighbour demand; the
  // advert protocol fills the tables and everything still works.
  SimConfig cfg = fast_sim(27);
  cfg.prime_tables = false;
  cfg.protocol.advert_period = 0.25;
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 1.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 40.0));
  // By now the tables carry the true demands.
  EXPECT_NEAR(*net.engine(1).demand_table().demand_of(2), 3.0, 1e-9);
}

TEST(SimNetworkTest, AllConsistentDetectsDivergence) {
  SimNetwork net(line5(), static_demand({4, 6, 3, 8, 7}), fast_sim());
  EXPECT_TRUE(net.all_consistent());  // empty logs everywhere
  net.schedule_write(0, "k", "v", 0.5);
  net.run_until(0.6);
  EXPECT_FALSE(net.all_consistent());
}

}  // namespace
}  // namespace fastcons
