// Harness tests: registry round-trips, seed derivation, and the load-bearing
// guarantee that results are bit-identical regardless of thread count.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "harness/registry.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"

namespace fastcons::harness {
namespace {

// ------------------------------------------------------------- registry ----

TEST(ScenarioRegistry, ContainsAllRegisteredScenarios) {
  const ScenarioRegistry registry = builtin_registry();
  const std::vector<std::string> expected{
      "sec2",        "fig3",          "fig4",
      "fig5",        "fig6",          "uniform-topologies",
      "diameter-ba", "diameter-grid", "overhead",
      "islands",     "ablation",      "ablation-staleness",
      "freshness",   "large-scale",   "faults",
      "degraded"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.all().size(), 16u);
}

TEST(ScenarioRegistry, FindRoundTripsEveryRegisteredName) {
  const ScenarioRegistry registry = builtin_registry();
  for (const ScenarioSpec& spec : registry.all()) {
    const ScenarioSpec* found = registry.find(spec.name);
    ASSERT_NE(found, nullptr) << spec.name;
    EXPECT_EQ(found->name, spec.name);
    EXPECT_EQ(&registry.get(spec.name), found);
    EXPECT_FALSE(found->title.empty()) << spec.name;
    EXPECT_FALSE(found->paper_ref.empty()) << spec.name;
    EXPECT_FALSE(found->sweep.empty()) << spec.name;
    // Labels are unique within a scenario (they key the output).
    std::set<std::string> labels;
    for (const SweepPoint& point : found->sweep) {
      EXPECT_TRUE(labels.insert(point.label).second)
          << spec.name << " duplicate label " << point.label;
    }
  }
}

TEST(ScenarioRegistry, LiveFamilyIsSeparateFromBuiltins) {
  // The live (real-socket) scenarios measure wall clocks, so they must
  // never enter builtin_registry(): --all runs, the determinism digests
  // and the reset-equivalence sweeps all iterate the builtins only.
  const ScenarioRegistry builtin = builtin_registry();
  EXPECT_EQ(builtin.find("live"), nullptr);
  EXPECT_EQ(builtin.find("recovery"), nullptr);
  const ScenarioRegistry live = live_registry();
  const ScenarioSpec* spec = live.find("live");
  ASSERT_NE(spec, nullptr);
  // "live" plus the durable crash-recovery family, both wall-clock.
  EXPECT_NE(live.find("recovery"), nullptr);
  EXPECT_EQ(live.all().size(), 2u);
  // >= 3 topologies x weak vs fast, per the live results contract.
  EXPECT_GE(spec->sweep.size(), 6u);
  std::size_t weak = 0;
  std::size_t fast = 0;
  for (const SweepPoint& point : spec->sweep) {
    const std::string algo = tag_or(point.tags, "algo", "");
    weak += algo == "weak" ? 1 : 0;
    fast += algo == "fast" ? 1 : 0;
  }
  EXPECT_GE(weak, 3u);
  EXPECT_EQ(weak, fast);
}

TEST(ScenarioRegistry, UnknownNameIsNullFromFindAndThrowsFromGet) {
  const ScenarioRegistry registry = builtin_registry();
  EXPECT_EQ(registry.find("no-such-scenario"), nullptr);
  try {
    registry.get("no-such-scenario");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    // The error names the known scenarios so CLI typos are self-serviced.
    EXPECT_NE(std::string(e.what()).find("fig5"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidSpecs) {
  ScenarioRegistry registry;
  ScenarioSpec spec;
  spec.name = "demo";
  SweepPoint point;
  point.label = "only";
  spec.sweep.push_back(point);
  spec.run = [](const SweepPoint&, std::uint64_t, TrialContext&) {
    return TrialResult{};
  };
  registry.add(spec);
  EXPECT_THROW(registry.add(spec), ConfigError);  // duplicate

  ScenarioSpec no_sweep = spec;
  no_sweep.name = "no-sweep";
  no_sweep.sweep.clear();
  EXPECT_THROW(registry.add(no_sweep), ConfigError);

  ScenarioSpec no_fn = spec;
  no_fn.name = "no-fn";
  no_fn.run = nullptr;
  EXPECT_THROW(registry.add(no_fn), ConfigError);
}

// ----------------------------------------------------------------- seeds ----

TEST(TrialSeeds, ArePureFunctionsOfTheirInputs) {
  EXPECT_EQ(derive_trial_seed(42, "fig5", 1, 7),
            derive_trial_seed(42, "fig5", 1, 7));
}

TEST(TrialSeeds, SeparateScenariosPointsAndTrials) {
  std::set<std::uint64_t> seen;
  for (const char* scenario : {"fig5", "fig6", "overhead"}) {
    for (std::size_t point = 0; point < 4; ++point) {
      for (std::size_t trial = 0; trial < 64; ++trial) {
        EXPECT_TRUE(seen.insert(derive_trial_seed(42, scenario, point, trial))
                        .second)
            << scenario << " " << point << " " << trial;
      }
    }
  }
  // A different base seed moves every stream.
  EXPECT_NE(derive_trial_seed(42, "fig5", 0, 0),
            derive_trial_seed(43, "fig5", 0, 0));
}

// ----------------------------------------------------------- determinism ----

RunOptions smoke_options(std::size_t jobs) {
  RunOptions options;
  options.smoke = true;
  options.jobs = jobs;
  return options;
}

TEST(TrialRunner, ResultsAreBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion for the whole harness: same base seed, any
  // --jobs value, byte-identical serialised results. fig5 covers the
  // propagation path (multi-point sweep, samples, counters); freshness
  // covers the workload path.
  const ScenarioRegistry registry = builtin_registry();
  for (const char* name : {"fig5", "freshness"}) {
    const ScenarioSpec& spec = registry.get(name);
    const std::string one =
        scenario_to_json(run_scenario(spec, smoke_options(1))).dump();
    const std::string eight =
        scenario_to_json(run_scenario(spec, smoke_options(8))).dump();
    EXPECT_EQ(one, eight) << name;
  }
}

TEST(TrialRunner, TimingIsMeasuredButStaysOutsideTheDigest) {
  // wall_ms/events_executed are measurements of a particular run: they go
  // into the results files (under "timing") but never into the digestable
  // serialisation, so perf changes can't masquerade as result changes.
  const ScenarioRegistry registry = builtin_registry();
  ScenarioResult result = run_scenario(registry.get("fig5"), smoke_options(1));
  std::uint64_t events = 0;
  for (const PointResult& point : result.points) {
    events += point.events_executed;
    EXPECT_GE(point.wall_ms, 0.0);
  }
  EXPECT_GT(events, 0u);  // fig5 trials run on the simulator

  const std::string pure = scenario_to_json(result).dump();
  EXPECT_EQ(pure.find("timing"), std::string::npos);
  EXPECT_EQ(pure.find("wall_ms"), std::string::npos);
  const std::string timed =
      scenario_to_json(result, /*include_timing=*/true).dump();
  EXPECT_NE(timed.find("\"timing\""), std::string::npos);
  EXPECT_NE(timed.find("\"events_per_sec\""), std::string::npos);

  // Different measurements, same digest.
  ScenarioResult other = result;
  for (PointResult& point : other.points) {
    point.wall_ms += 1234.5;
    point.events_executed += 99;
  }
  EXPECT_EQ(scenario_to_json(other).dump(), pure);
  EXPECT_NE(scenario_to_json(other, true).dump(), timed);
}

TEST(TrialRunner, RollupDigestIsStableAcrossThreadCounts) {
  const ScenarioRegistry registry = builtin_registry();
  const auto run_all = [&](std::size_t jobs) {
    std::vector<ScenarioResult> results;
    for (const char* name : {"sec2", "fig3", "fig4"}) {
      results.push_back(run_scenario(registry.get(name), smoke_options(jobs)));
    }
    return digest_hex(rollup_to_json(results).dump());
  };
  EXPECT_EQ(run_all(1), run_all(8));
}

TEST(TrialRunner, SweepFilterPreservesPointIndicesAndNumbers) {
  // Running a filtered sweep must reproduce exactly the numbers the full
  // sweep produced for that point (seeds key off the spec's point index).
  const ScenarioRegistry registry = builtin_registry();
  const ScenarioSpec& spec = registry.get("fig5");

  const ScenarioResult full = run_scenario(spec, smoke_options(2));
  RunOptions filtered_options = smoke_options(2);
  filtered_options.sweep_filter = "fast";
  const ScenarioResult filtered = run_scenario(spec, filtered_options);

  ASSERT_EQ(filtered.points.size(), 1u);
  const PointResult* full_fast = nullptr;
  for (const PointResult& point : full.points) {
    if (point.point.label == "fast") full_fast = &point;
  }
  ASSERT_NE(full_fast, nullptr);
  EXPECT_EQ(filtered.points[0].index, full_fast->index);

  ScenarioResult full_only_fast = full;
  full_only_fast.points = {*full_fast};
  EXPECT_EQ(scenario_to_json(filtered).dump(),
            scenario_to_json(full_only_fast).dump());
}

TEST(TrialRunner, UnmatchedSweepFilterThrows) {
  const ScenarioRegistry registry = builtin_registry();
  RunOptions options = smoke_options(1);
  options.sweep_filter = "no-such-label";
  EXPECT_THROW(run_scenario(registry.get("fig5"), options), ConfigError);
}

TEST(TrialRunner, SmokeModeAppliesOverridesAndTrialCounts) {
  const ScenarioRegistry registry = builtin_registry();
  const ScenarioSpec& spec = registry.get("fig5");
  const ScenarioResult result = run_scenario(spec, smoke_options(1));
  ASSERT_EQ(result.points.size(), 3u);
  for (const PointResult& point : result.points) {
    EXPECT_EQ(point.trials, spec.smoke_trials);
    EXPECT_EQ(param_or(point.point.params, "n", 0.0), 12.0);  // smoke override
    // sessions_all pools one sample per non-writer replica per trial.
    ASSERT_FALSE(point.samples.empty());
    EXPECT_EQ(point.samples[0].first, "sessions_all");
    EXPECT_EQ(point.samples[0].second.count(), point.trials * (12 - 1));
  }
}

TEST(TrialRunner, TrialsOverrideWins) {
  const ScenarioRegistry registry = builtin_registry();
  RunOptions options = smoke_options(1);
  options.trials = 3;
  const ScenarioResult result = run_scenario(registry.get("fig3"), options);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].trials, 3u);
}

TEST(TrialRunner, SeedGroupsPairPointsOnIdenticalSeeds) {
  // Points sharing a seed_group receive the SAME seed per trial index
  // (common random numbers: algorithm variants compare on identical
  // topologies/demands); ungrouped points get independent streams.
  ScenarioSpec spec;
  spec.name = "pairing";
  for (const char* label : {"a", "b", "c"}) {
    SweepPoint point;
    point.label = label;
    if (std::string(label) != "c") point.seed_group = 0;
    spec.sweep.push_back(std::move(point));
  }
  spec.trials = 4;
  spec.smoke_trials = 4;
  spec.run = [](const SweepPoint&, std::uint64_t seed, TrialContext&) {
    TrialResult out;
    out.sample("seed", {static_cast<double>(seed >> 12)});
    return out;
  };
  const ScenarioResult result = run_scenario(spec, RunOptions{});
  ASSERT_EQ(result.points.size(), 3u);
  const auto seeds = [&](std::size_t i) {
    return result.points[i].samples.at(0).second.sorted_samples();
  };
  EXPECT_EQ(seeds(0), seeds(1));  // shared group: identical instances
  EXPECT_NE(seeds(0), seeds(2));  // no group: independent stream
}

TEST(TrialRunner, TrialExceptionsPropagate) {
  ScenarioSpec spec;
  spec.name = "throws";
  SweepPoint point;
  point.label = "only";
  spec.sweep.push_back(point);
  spec.trials = 4;
  spec.smoke_trials = 4;
  spec.run = [](const SweepPoint&, std::uint64_t, TrialContext&) -> TrialResult {
    throw ConfigError("boom");
  };
  RunOptions options;
  options.jobs = 4;
  EXPECT_THROW(run_scenario(spec, options), ConfigError);
}

TEST(Scenarios, TopologyFromPointBuildsErWaxmanAndComplete) {
  for (const std::string kind : {"er", "waxman", "complete"}) {
    SweepPoint point;
    point.tags = {{"topo", kind}};
    point.params = {{"n", 12}};
    Rng rng(5);
    const Graph graph = topology_from_point(point)(rng);
    EXPECT_EQ(graph.size(), 12u) << kind;
    if (kind == "complete") {
      EXPECT_EQ(graph.edge_count(), 12u * 11u / 2u);
    }
  }
}

// --------------------------------------------------------- paper checks ----

TEST(Scenarios, Fig4MatchesThePaperSessionOrders) {
  // fig4 is fully deterministic, so the harness can assert the paper's
  // table outright: dynamic B-D, B-C', B-A'; static B-D, B-A, B-C.
  const ScenarioRegistry registry = builtin_registry();
  const ScenarioResult result =
      run_scenario(registry.get("fig4"), smoke_options(1));
  ASSERT_EQ(result.points.size(), 2u);
  for (const PointResult& point : result.points) {
    ASSERT_FALSE(point.counters.empty()) << point.point.label;
    EXPECT_EQ(point.counters[0].first, "matches_paper");
    EXPECT_EQ(point.counters[0].second, 1u) << point.point.label;
  }
  EXPECT_TRUE(paper_mismatches({result}).empty());
}

TEST(Scenarios, Sec2WalkthroughDeliversViaFastPush) {
  const ScenarioRegistry registry = builtin_registry();
  const ScenarioResult result =
      run_scenario(registry.get("sec2"), smoke_options(1));
  ASSERT_EQ(result.points.size(), 1u);
  std::uint64_t order_ok = 0, fast_push = 0;
  for (const auto& [name, value] : result.points[0].counters) {
    if (name == "order_matches_paper") order_ok = value;
    if (name == "d_reached_by_fast_push") fast_push = value;
  }
  EXPECT_EQ(order_ok, 1u);
  EXPECT_EQ(fast_push, 1u);
  EXPECT_TRUE(paper_mismatches({result}).empty());
}

TEST(Scenarios, PaperMismatchesReportOnlyFailedChecks) {
  // fastcons_bench exits 1 on any line this returns.
  const auto scenario = [](std::string name, std::string counter,
                           std::uint64_t value) {
    PointResult point;
    point.point.label = "p";
    point.trials = 2;
    point.counters = {{"d_reached_by_fast_push", 0}, {counter, value}};
    ScenarioResult result;
    result.name = std::move(name);
    result.points.push_back(std::move(point));
    return result;
  };
  const std::vector<ScenarioResult> results{
      scenario("failed", "matches_paper", 1),
      scenario("held", "order_matches_paper", 2)};
  EXPECT_EQ(paper_mismatches(results),
            std::vector<std::string>{"failed/p matches_paper = 1/2"});
}

TEST(Scenarios, PaperMismatchesListEveryFailureInOrder) {
  // Every failed check is reported, not just the first, in scenario then
  // point order; only counters ending in "matches_paper" are checks.
  const auto point = [](std::string label, std::uint64_t value) {
    PointResult result;
    result.point.label = std::move(label);
    result.trials = 3;
    result.counters = {{"matches_paper", value},
                       {"matches_paper_runs", 0},
                       {"fast_push", 0}};
    return result;
  };
  ScenarioResult fig4;
  fig4.name = "fig4";
  fig4.points = {point("a", 2), point("b", 3), point("c", 0)};
  ScenarioResult sec2;
  sec2.name = "sec2";
  sec2.points = {point("walk", 1)};
  const std::vector<std::string> expected{"fig4/a matches_paper = 2/3",
                                          "fig4/c matches_paper = 0/3",
                                          "sec2/walk matches_paper = 1/3"};
  EXPECT_EQ(paper_mismatches({fig4, sec2}), expected);
  EXPECT_TRUE(paper_mismatches({}).empty());
}

}  // namespace
}  // namespace fastcons::harness
