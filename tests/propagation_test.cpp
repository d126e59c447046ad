// The paper's §5 propagation measurement as the harness runs it: one write
// at a random replica, sessions counted until every replica has it, pooled
// over trials by harness::run_scenario.
#include "sim_runtime/propagation.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"

namespace fastcons {
namespace {

/// The pooled observations of one sweep point, under the names the
/// assertions below read.
struct PooledResult {
  EmpiricalCdf all;
  EmpiricalCdf high_demand;
  OnlineStats time_to_full;
  std::uint64_t reps_converged = 0;
  std::uint64_t reps_total = 0;
  std::uint64_t censored_samples = 0;
};

template <typename T>
const T& named(const std::vector<std::pair<std::string, T>>& entries,
               const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return value;
  }
  throw Error("missing metric " + name);
}

/// `reps` trials of `algo` on 20-node Barabási–Albert graphs with uniform
/// demand. Every call shares the scenario name and base seed, so algorithms
/// compare on identical random instances trial for trial.
PooledResult small_experiment(const std::string& algo, std::size_t reps = 40,
                              double high_demand_fraction = 0.10) {
  harness::SweepPoint point;
  point.label = algo;
  point.tags = {{"topo", "ba"}};
  point.params = {{"n", 20}, {"high_demand_fraction", high_demand_fraction}};
  harness::ScenarioSpec spec;
  spec.name = "propagation-test";
  spec.sweep = {point};
  spec.trials = reps;
  const ProtocolConfig protocol = harness::algorithm_config(algo);
  spec.run = [protocol](const harness::SweepPoint& p, std::uint64_t seed,
                        harness::TrialContext& ctx) {
    return harness::propagation_trial(p, seed, protocol,
                                      harness::uniform_demand(), ctx);
  };
  harness::RunOptions options;
  options.base_seed = 2024;
  const harness::PointResult point_result =
      harness::run_scenario(spec, options).points.at(0);

  PooledResult result;
  result.all = named(point_result.samples, "sessions_all");
  result.high_demand = named(point_result.samples, "sessions_high_demand");
  result.time_to_full = named(point_result.values, "time_to_full");
  result.reps_converged = named(point_result.counters, "trials_converged");
  result.reps_total = point_result.trials;
  result.censored_samples = named(point_result.counters, "censored_samples");
  return result;
}

TEST(PropagationTest, RejectsMissingFactories) {
  PropagationExperiment exp;
  Rng rng(1);
  PropagationContext ctx;
  EXPECT_THROW(run_propagation_trial(exp, rng, ctx), ConfigError);
}

TEST(PropagationTest, RejectsBadFraction) {
  EXPECT_THROW(small_experiment("fast", 10, 0.0), ConfigError);
}

TEST(PropagationTest, SampleCountsMatchTopologySize) {
  const auto result = small_experiment("fast", 10);
  // 19 non-writer replicas per repetition.
  EXPECT_EQ(result.all.count(), 10u * 19u);
  EXPECT_EQ(result.time_to_full.count(), 10u);
  EXPECT_EQ(result.reps_total, 10u);
  // Top 10% of 20 nodes = 2 nodes; the writer may occupy one of them.
  EXPECT_GE(result.high_demand.count(), 10u);
  EXPECT_LE(result.high_demand.count(), 20u);
}

TEST(PropagationTest, AllRepetitionsConverge) {
  const auto result = small_experiment("fast");
  EXPECT_EQ(result.reps_converged, result.reps_total);
  EXPECT_EQ(result.censored_samples, 0u);
}

TEST(PropagationTest, FastBeatsWeakOnAllThreeHeadlineMetrics) {
  // The paper's central claim, as a regression test with adequate margins.
  const auto weak = small_experiment("weak", 60);
  const auto fast = small_experiment("fast", 60);
  // 1. Mean sessions over all replicas improves.
  EXPECT_LT(fast.all.mean(), weak.all.mean() * 0.85);
  // 2. High-demand replicas converge in about one session.
  EXPECT_LT(fast.high_demand.mean(), 2.0);
  EXPECT_LT(fast.high_demand.mean(), weak.high_demand.mean() * 0.6);
  // 3. Time to full consistency improves.
  EXPECT_LT(fast.time_to_full.mean(), weak.time_to_full.mean());
}

TEST(PropagationTest, HighDemandSubsetBeatsPopulationUnderFast) {
  const auto fast = small_experiment("fast", 60);
  EXPECT_LT(fast.high_demand.mean(), fast.all.mean());
  // Under weak consistency the subset enjoys no advantage.
  const auto weak = small_experiment("weak", 60);
  EXPECT_NEAR(weak.high_demand.mean(), weak.all.mean(),
              0.35 * weak.all.mean());
}

TEST(PropagationTest, CdfIsProperDistribution) {
  const auto result = small_experiment("fast", 20);
  EXPECT_DOUBLE_EQ(result.all.at(result.all.max()), 1.0);
  EXPECT_GE(result.all.min(), 0.0);
  const auto curve = result.all.curve(0.0, 12.0, 13);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
}

TEST(PropagationTest, DemandOnlySitsBetweenWeakAndFast) {
  const auto weak = small_experiment("weak", 60);
  const auto mid = small_experiment("demand-order", 60);
  const auto fast = small_experiment("fast", 60);
  EXPECT_LT(mid.all.mean(), weak.all.mean());
  EXPECT_LT(fast.all.mean(), mid.all.mean());
}

}  // namespace
}  // namespace fastcons
