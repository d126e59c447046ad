// Scaling and overhead scenarios: §5's uniform-topology and diameter claims,
// §8's traffic accounting.
#include "common/construction_cost.hpp"
#include "harness/scenarios.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/metrics.hpp"

namespace fastcons::harness {
namespace {

/// Structural metrics of the point's probe-123 sample topology, echoed as
/// reference values so the results file can relate sessions to the
/// diameter (the §5 claim). A ScenarioSpec::derive_reference hook: only
/// points that run pay for the all-pairs BFS.
ParamMap structural_reference(const SweepPoint& point) {
  Rng probe(123);
  const Graph sample = topology_from_point(point)(probe);
  return {{"sample_diameter", static_cast<double>(diameter(sample))},
          {"sample_mean_path", mean_path_length(sample)}};
}

/// Appends one sweep point per algorithm for a named topology.
void add_topology_points(std::vector<SweepPoint>& sweep,
                         const std::string& topo_label, const TagMap& topo_tags,
                         const ParamMap& params,
                         const std::vector<std::string>& algos,
                         std::size_t trials_divisor = 1) {
  for (const std::string& algo : algos) {
    SweepPoint point;
    point.label = topo_label + "/" + algo;
    point.tags = topo_tags;
    point.tags.emplace_back("algo", algo);
    point.params = params;
    point.trials_divisor = trials_divisor;
    // One seed stream for the whole scenario: algorithm columns (and the
    // retired benches' per-row comparisons) share random instances.
    point.seed_group = 0;
    sweep.push_back(std::move(point));
  }
}

// ------------------------------------------------------------ overhead ----

/// §8 traffic accounting: one write, fixed horizon, exact wire bytes per
/// message class from the codec.
TrialResult overhead_trial(const SweepPoint& point, std::uint64_t seed,
                           TrialContext& ctx) {
  const auto n = static_cast<std::size_t>(param_or(point.params, "n", 50));
  const SimTime horizon = param_or(point.params, "horizon", 10.0);

  Rng rng(seed);
  SimNetwork* net_ptr;
  {
    ConstructionCost::Scope construction;
    Graph g = topology_from_point(point)(rng);
    auto demand = std::make_shared<StaticDemand>(
        make_uniform_random_demand(n, 0.0, 100.0, rng));
    SimConfig cfg;
    cfg.protocol = algorithm_config(tag_or(point.tags, "algo", "fast"));
    cfg.seed = rng.next_u64();
    net_ptr = &ctx.state<SimNetworkPool>().acquire(std::move(g), demand, cfg);
  }
  SimNetwork& net = *net_ptr;
  net.schedule_write(static_cast<NodeId>(rng.index(n)), "k", "v", 0.5);
  net.run_until(horizon);

  const TrafficCounters total = net.total_traffic();
  const double node_units = static_cast<double>(n) * horizon;
  TrialResult out;
  out.value("messages_per_node_unit",
            static_cast<double>(total.total_messages()) / node_units);
  out.value("bytes_per_node_unit",
            static_cast<double>(total.total_bytes()) / node_units);
  record_traffic(out, total);
  return out;
}

}  // namespace

void register_scaling_scenarios(ScenarioRegistry& registry) {
  const auto& algos = three_algorithm_names();
  const std::vector<std::string> weak_fast{"weak", "fast"};

  {
    ScenarioSpec spec;
    spec.name = "uniform-topologies";
    spec.title = "§5 claim: figures 5/6 shapes hold on uniform topologies";
    spec.paper_ref = "§5";
    spec.description =
        "Lines, rings, grids and a balanced tree with uniform random "
        "demand. Expected shape: fast < weak mean sessions on every "
        "topology; fast high-demand well below fast mean.";
    add_topology_points(spec.sweep, "line-16", {{"topo", "line"}}, {{"n", 16}},
                        algos);
    add_topology_points(spec.sweep, "line-32", {{"topo", "line"}}, {{"n", 32}},
                        algos);
    add_topology_points(spec.sweep, "ring-16", {{"topo", "ring"}}, {{"n", 16}},
                        algos);
    add_topology_points(spec.sweep, "ring-32", {{"topo", "ring"}}, {{"n", 32}},
                        algos);
    add_topology_points(spec.sweep, "grid-4x4", {{"topo", "grid"}},
                        {{"w", 4}, {"h", 4}}, algos);
    add_topology_points(spec.sweep, "grid-6x6", {{"topo", "grid"}},
                        {{"w", 6}, {"h", 6}}, algos);
    add_topology_points(spec.sweep, "tree-31", {{"topo", "tree"}}, {{"n", 31}},
                        algos);
    spec.trials = 1500;
    spec.smoke_trials = 3;
    spec.run = algorithm_propagation_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "diameter-ba";
    spec.title = "§5 claim (a): sessions stay flat as BA node count grows 16x";
    spec.paper_ref = "§5";
    spec.description =
        "Barabási–Albert graphs n=25..400: node count grows 16x, the "
        "diameter barely moves, and sessions-to-consistency should stay "
        "nearly flat (sessions track the diameter, not the node count).";
    const std::vector<std::pair<std::size_t, std::size_t>> sizes{
        {25, 1}, {50, 1}, {100, 2}, {200, 4}, {400, 10}};
    for (const auto& [n, divisor] : sizes) {
      add_topology_points(spec.sweep, "ba-" + std::to_string(n),
                          {{"topo", "ba"}}, {{"n", static_cast<double>(n)}},
                          weak_fast, divisor);
    }
    spec.trials = 1000;
    spec.smoke_trials = 2;
    spec.run = algorithm_propagation_trial;
    spec.derive_reference = structural_reference;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "diameter-grid";
    spec.title = "§5 claim (b): on grids, sessions track the growing diameter";
    spec.paper_ref = "§5";
    spec.description =
        "k x k grids: the diameter grows linearly with k and "
        "sessions-to-consistency should track it — the counterpart that "
        "shows the flatness on BA graphs is a diameter effect.";
    const std::vector<std::pair<std::size_t, std::size_t>> sizes{
        {3, 1}, {5, 1}, {7, 2}, {9, 4}};
    for (const auto& [k, divisor] : sizes) {
      add_topology_points(
          spec.sweep, "grid-" + std::to_string(k) + "x" + std::to_string(k),
          {{"topo", "grid"}},
          {{"w", static_cast<double>(k)}, {"h", static_cast<double>(k)}},
          weak_fast, divisor);
    }
    spec.trials = 1000;
    spec.smoke_trials = 2;
    spec.run = algorithm_propagation_trial;
    spec.derive_reference = structural_reference;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "overhead";
    spec.title = "§8 overhead: wire bytes per message class, fast vs weak";
    spec.paper_ref = "§8";
    spec.description =
        "Exact codec byte counts over a fixed horizon on BA-50. Expected "
        "shape: the fast algorithm adds only small id-sized offer/ack "
        "traffic ('few additional bytes'); totals stay within a few percent "
        "of weak consistency.";
    for (const std::string& algo : algos) {
      SweepPoint point;
      point.label = algo;
      point.tags = {{"topo", "ba"}, {"algo", algo}};
      point.params = {{"n", 50}, {"horizon", 10.0}};
      point.seed_group = 0;  // same workload instances for every algorithm
      spec.sweep.push_back(std::move(point));
    }
    spec.trials = 300;
    spec.smoke_trials = 3;
    spec.smoke_overrides = {{"n", 12}, {"horizon", 5.0}};
    spec.run = overhead_trial;
    registry.add(std::move(spec));
  }
}

}  // namespace fastcons::harness
