// The paper's core safety/liveness property, swept over topology families,
// algorithms and seeds: every write eventually reaches every replica, and
// the fast-consistency machinery never breaks eventual consistency — even
// with message loss.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

enum class Topo { line, ring, grid, star, tree, ba, er };
enum class Algo { weak, demand_only, fast, fast_subset, fast_unconstrained };

Graph build_topology(Topo topo, Rng& rng) {
  const LatencyRange lat{0.01, 0.05};
  switch (topo) {
    case Topo::line: return make_line(12, lat, rng);
    case Topo::ring: return make_ring(12, lat, rng);
    case Topo::grid: return make_grid(4, 3, lat, rng);
    case Topo::star: return make_star(12, lat, rng);
    case Topo::tree: return make_binary_tree(12, lat, rng);
    case Topo::ba: return make_barabasi_albert(16, 2, lat, rng);
    case Topo::er: return make_erdos_renyi(16, 0.2, lat, rng);
  }
  return Graph{};
}

ProtocolConfig build_protocol(Algo algo) {
  switch (algo) {
    case Algo::weak: return ProtocolConfig::weak();
    case Algo::demand_only: return ProtocolConfig::demand_order_only();
    case Algo::fast: return ProtocolConfig::fast();
    case Algo::fast_subset: {
      ProtocolConfig cfg = ProtocolConfig::fast();
      cfg.ack_mode = FastAckMode::subset;
      cfg.fast_fanout = 2;
      return cfg;
    }
    case Algo::fast_unconstrained: {
      ProtocolConfig cfg = ProtocolConfig::fast();
      cfg.push_rule = FastPushRule::unconstrained;
      return cfg;
    }
  }
  return ProtocolConfig{};
}

using Param = std::tuple<Topo, Algo, std::uint64_t>;

class ConvergenceProperty : public ::testing::TestWithParam<Param> {};

TEST_P(ConvergenceProperty, EveryWriteReachesEveryReplica) {
  const auto [topo, algo, seed] = GetParam();
  Rng rng(seed * 7919 + 13);
  Graph graph = build_topology(topo, rng);
  const std::size_t n = graph.size();
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(n, 0.0, 100.0, rng));

  SimConfig cfg;
  cfg.protocol = build_protocol(algo);
  cfg.seed = rng.next_u64();
  SimNetwork net(std::move(graph), demand, cfg);

  // Three writes from distinct random replicas at staggered times.
  std::vector<UpdateId> ids;
  for (int w = 0; w < 3; ++w) {
    const auto writer = static_cast<NodeId>(rng.index(n));
    ids.push_back(net.schedule_write(writer, "key" + std::to_string(w),
                                     "value" + std::to_string(w),
                                     0.3 + 0.4 * w));
  }

  // Run past the last write first: before any write fires, all-empty logs
  // are trivially "consistent" and would end the wait at t=0.
  net.run_until(2.0);
  ASSERT_TRUE(net.run_until_consistent(80.0)) << "did not converge";
  for (const UpdateId id : ids) {
    EXPECT_EQ(net.nodes_holding(id), n);
  }
  // Convergence also means identical materialised key-value state.
  for (NodeId node = 1; node < n; ++node) {
    for (int w = 0; w < 3; ++w) {
      const std::string key = "key" + std::to_string(w);
      EXPECT_EQ(net.engine(node).read(key), net.engine(0).read(key));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvergenceProperty,
    ::testing::Combine(
        ::testing::Values(Topo::line, Topo::ring, Topo::grid, Topo::star,
                          Topo::tree, Topo::ba, Topo::er),
        ::testing::Values(Algo::weak, Algo::demand_only, Algo::fast,
                          Algo::fast_subset, Algo::fast_unconstrained),
        ::testing::Values(1u, 2u)));

class LossyConvergenceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LossyConvergenceProperty, ConvergesDespiteLoss) {
  Rng rng(GetParam() * 31 + 7);
  Graph graph = make_barabasi_albert(14, 2, {0.01, 0.05}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(graph.size(), 0.0, 100.0, rng));
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.faults.loss = 0.25;
  cfg.seed = rng.next_u64();
  SimNetwork net(std::move(graph), demand, cfg);
  const auto writer = static_cast<NodeId>(rng.index(net.size()));
  const UpdateId id = net.schedule_write(writer, "k", "v", 0.5);
  EXPECT_TRUE(net.run_until_update_everywhere(id, 120.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyConvergenceProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

class HealedPartitionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HealedPartitionProperty, ConvergesAfterHeal) {
  // Ring cut in two places (0-9 and 4-5: the two group boundaries of a
  // 2-group partition) -> two halves; writes land on both sides during the
  // partition; after healing everything converges.
  Rng rng(GetParam() * 101 + 3);
  Graph graph = make_ring(10, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(10, 0.0, 100.0, rng));
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();
  cfg.seed = rng.next_u64();
  cfg.faults.partitions.push_back(PartitionEvent{2, 0.0, 8.0});
  SimNetwork net(std::move(graph), demand, cfg);
  const UpdateId left = net.schedule_write(2, "left", "L", 0.5);
  const UpdateId right = net.schedule_write(7, "right", "R", 0.5);
  net.run_until(8.0);
  // During the partition neither write crossed the cut.
  EXPECT_LT(net.nodes_holding(left), 10u);
  EXPECT_LT(net.nodes_holding(right), 10u);
  EXPECT_TRUE(net.run_until_consistent(80.0));
  EXPECT_EQ(net.nodes_holding(left), 10u);
  EXPECT_EQ(net.nodes_holding(right), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealedPartitionProperty,
                         ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace fastcons
