#include "sim_runtime/workload.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig w;
  w.keys = 3;
  w.write_interval = 2.0;
  w.duration = 30.0;
  w.warmup = 4.0;
  w.seed = 11;
  return w;
}

std::shared_ptr<const DemandModel> uniform_demand(std::size_t n,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  return std::make_shared<StaticDemand>(
      make_uniform_random_demand(n, 5.0, 50.0, rng));
}

TEST(WorkloadTest, ValidatesConfig) {
  Rng rng(1);
  const Graph g = make_ring(5, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  SimNetworkPool pool;
  WorkloadConfig bad = small_workload();
  bad.keys = 0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad, pool),
               ConfigError);
  bad = small_workload();
  bad.write_interval = 0.0;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad, pool),
               ConfigError);
  bad = small_workload();
  bad.warmup = bad.duration;
  EXPECT_THROW(run_workload(Graph(g), uniform_demand(5, 2), sim, bad, pool),
               ConfigError);
}

TEST(WorkloadTest, ProducesReadsAndWrites) {
  Rng rng(2);
  Graph g = make_barabasi_albert(12, 2, {0.01, 0.05}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 3;
  SimNetworkPool pool;
  const WorkloadResult result = run_workload(
      std::move(g), uniform_demand(12, 4), sim, small_workload(), pool);
  EXPECT_GT(result.writes, 5u);
  // ~12 nodes * ~27 demand * 26 effective units of reads ≈ thousands.
  EXPECT_GT(result.reads, 1000u);
  EXPECT_GT(result.fresh_reads, 0u);
  EXPECT_LE(result.fresh_reads, result.reads);
  EXPECT_GE(result.fresh_fraction(), 0.0);
  EXPECT_LE(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, DeterministicForSameSeeds) {
  const auto run = [] {
    Rng rng(5);
    Graph g = make_ring(8, {0.01, 0.02}, rng);
    SimConfig sim;
    sim.protocol = ProtocolConfig::fast();
    sim.seed = 6;
    SimNetworkPool pool;
    return run_workload(std::move(g), uniform_demand(8, 7), sim,
                        small_workload(), pool);
  };
  const WorkloadResult a = run();
  const WorkloadResult b = run();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.fresh_reads, b.fresh_reads);
  EXPECT_EQ(a.writes, b.writes);
}

TEST(WorkloadTest, FastServesFresherThanWeak) {
  // The paper's bottom line from the client's point of view: under the same
  // workload, fast consistency serves a larger fraction of reads with the
  // newest content.
  const auto run = [](ProtocolConfig protocol) {
    Rng rng(8);
    Graph g = make_barabasi_albert(25, 2, {0.01, 0.05}, rng);
    SimConfig sim;
    sim.protocol = protocol;
    sim.seed = 9;
    WorkloadConfig w = small_workload();
    w.duration = 60.0;
    w.write_interval = 1.5;
    w.seed = 10;
    SimNetworkPool pool;
    return run_workload(std::move(g), uniform_demand(25, 11), sim, w, pool);
  };
  const WorkloadResult weak = run(ProtocolConfig::weak());
  const WorkloadResult fast = run(ProtocolConfig::fast());
  EXPECT_GT(fast.fresh_fraction(), weak.fresh_fraction());
  // Stale reads that do happen are also younger under fast consistency.
  EXPECT_LT(fast.stale_age.mean(), weak.stale_age.mean());
}

TEST(WorkloadTest, NoWritesMeansAllReadsFresh) {
  Rng rng(12);
  Graph g = make_ring(6, {0.01, 0.02}, rng);
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  WorkloadConfig w = small_workload();
  w.write_interval = 1e9;  // effectively never writes
  SimNetworkPool pool;
  const WorkloadResult result =
      run_workload(std::move(g), uniform_demand(6, 13), sim, w, pool);
  EXPECT_EQ(result.writes, 0u);
  EXPECT_EQ(result.fresh_reads, result.reads);
  EXPECT_DOUBLE_EQ(result.fresh_fraction(), 1.0);
}

TEST(WorkloadTest, ZeroDemandNodesIssueNoReads) {
  Rng rng(14);
  Graph g = make_line(4, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{0, 0, 0, 0});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  SimNetworkPool pool;
  const WorkloadResult result =
      run_workload(std::move(g), demand, sim, small_workload(), pool);
  EXPECT_EQ(result.reads, 0u);
}

TEST(WorkloadTest, ReadCountTracksDemand) {
  // Each replica's read process is a Poisson stream at its demand rate, so
  // a lone reader at rate 20 over the 26 measured units reads ~520 times.
  Rng rng(21);
  Graph g = make_line(4, {0.01, 0.02}, rng);
  auto demand =
      std::make_shared<StaticDemand>(std::vector<double>{0, 0, 20, 0});
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 22;
  SimNetworkPool pool;
  const WorkloadResult result =
      run_workload(std::move(g), demand, sim, small_workload(), pool);
  EXPECT_GT(result.reads, 420u);
  EXPECT_LT(result.reads, 620u);
}

TEST(WorkloadTest, PooledRunsMatchFreshRuns) {
  // A pooled network is reset, not rebuilt, between runs; the read
  // processes are rebuilt per run, so every run replays a fresh one exactly,
  // also after the pool served a larger topology.
  const auto run = [](std::size_t n, SimNetworkPool& pool) {
    Rng rng(23 + n);
    Graph g = make_barabasi_albert(n, 2, {0.01, 0.05}, rng);
    SimConfig sim;
    sim.protocol = ProtocolConfig::fast();
    sim.seed = 24;
    return run_workload(std::move(g), uniform_demand(n, 25), sim,
                        small_workload(), pool);
  };
  SimNetworkPool pool;
  for (const std::size_t n : {12u, 20u, 9u}) {
    SimNetworkPool fresh_pool;
    const WorkloadResult fresh = run(n, fresh_pool);
    const WorkloadResult pooled = run(n, pool);
    EXPECT_EQ(pooled.reads, fresh.reads) << n;
    EXPECT_EQ(pooled.fresh_reads, fresh.fresh_reads) << n;
    EXPECT_EQ(pooled.writes, fresh.writes) << n;
    EXPECT_EQ(pooled.stale_age.count(), fresh.stale_age.count()) << n;
  }
}

// ---------------------------------------------------------------------------

TEST(TraceTest, RecordsEveryDeliveryOnce) {
  // SimNetwork::on_delivery fires once per first delivery at each node, in
  // delivery order — enough to rebuild an update's propagation trace.
  Rng rng(15);
  Graph g = make_ring(6, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(6, 0.0, 50.0, rng));
  SimConfig sim;
  sim.protocol = ProtocolConfig::fast();
  sim.seed = 16;
  SimNetwork net(std::move(g), demand, sim);
  struct Delivery {
    NodeId node;
    DeliveryPath path;
    SimTime at;
  };
  std::vector<Delivery> events;
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  net.on_delivery = [&events, id](NodeId node, const Update& update,
                                  DeliveryPath path, SimTime at) {
    if (update.id == id) events.push_back(Delivery{node, path, at});
  };
  ASSERT_TRUE(net.run_until_update_everywhere(id, 40.0));
  ASSERT_EQ(events.size(), 6u);
  // First event is the local write at the origin.
  EXPECT_EQ(events.front().node, 0u);
  EXPECT_EQ(events.front().path, DeliveryPath::local_write);
  std::size_t remote = 0;
  std::vector<bool> reached(6, false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Timestamps are non-decreasing (delivery order) and match the
    // first-delivery record; no node is reported twice.
    if (i > 0) {
      EXPECT_GE(events[i].at, events[i - 1].at);
    }
    EXPECT_EQ(net.first_delivery(events[i].node, id), events[i].at);
    EXPECT_FALSE(reached[events[i].node]) << events[i].node;
    reached[events[i].node] = true;
    if (events[i].path == DeliveryPath::session ||
        events[i].path == DeliveryPath::fast_push) {
      ++remote;
    }
  }
  EXPECT_EQ(remote, 5u);
}

}  // namespace
}  // namespace fastcons
