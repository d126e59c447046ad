// §6 islands and the repository's extension experiments: design-choice
// ablations, advert staleness, and client-observed freshness.
#include <map>

#include "common/construction_cost.hpp"
#include "harness/scenarios.hpp"
#include "islands/islands.hpp"
#include "sim_runtime/sim_network.hpp"
#include "sim_runtime/workload.hpp"
#include "stats/online_stats.hpp"

namespace fastcons::harness {
namespace {

// ------------------------------------------------------------- islands ----

/// §6's complex demand distribution: two high-demand islands joined by a
/// cold bridge; measures arrival time in the far island with and without
/// the leader-bridge overlay.
TrialResult islands_trial(const SweepPoint& point, std::uint64_t seed,
                          TrialContext& ctx) {
  const auto clique = static_cast<std::size_t>(param_or(point.params, "clique", 6));
  const bool overlay = tag_or(point.tags, "variant", "fast") == "fast+overlay";
  const std::string algo = overlay ? "fast" : tag_or(point.tags, "variant", "fast");
  const SimTime deadline = param_or(point.params, "deadline", 80.0);

  Rng rng(seed);
  std::vector<double> demand;
  SimNetwork* net_ptr;
  {
    ConstructionCost::Scope construction;
    Graph g = topology_from_point(point)(rng);
    // Demands: left island warm, right island hot, bridge cold.
    demand.assign(g.size(), 1.0);
    for (NodeId n = 0; n < clique; ++n) demand[n] = rng.uniform(30.0, 50.0);
    for (NodeId n = clique; n < 2 * clique; ++n) {
      demand[n] = rng.uniform(50.0, 80.0);
    }
    auto model = std::make_shared<StaticDemand>(demand);
    SimConfig cfg;
    cfg.protocol = algorithm_config(algo);
    cfg.seed = rng.next_u64();
    net_ptr = &ctx.state<SimNetworkPool>().acquire(std::move(g), model, cfg);
  }
  SimNetwork& net = *net_ptr;

  const auto islands = detect_islands(net.graph(), demand, 20.0);
  const auto leaders = elect_leaders(islands, demand);
  std::uint64_t bridges_added = 0;
  if (overlay) {
    for (const Bridge& b : compute_bridges(net.graph(), leaders)) {
      net.add_overlay_link(b.a, b.b, b.latency);
      ++bridges_added;
    }
  }
  // Write in the left island; measure arrival in the right island.
  const auto writer = static_cast<NodeId>(rng.index(clique));
  const SimTime at = rng.uniform(0.5, 1.5);
  const UpdateId id = net.schedule_write(writer, "k", "v", at);
  net.run_until_update_everywhere(id, at + deadline);

  const NodeId far_leader_node =
      leaders.size() > 1 ? leaders[1] : static_cast<NodeId>(2 * clique - 1);
  TrialResult out;
  out.value("far_leader_sessions",
            net.first_delivery(far_leader_node, id).value_or(at + deadline) - at);
  OnlineStats island_stat;
  for (NodeId n = clique; n < 2 * clique; ++n) {
    island_stat.add(net.first_delivery(n, id).value_or(at + deadline) - at);
  }
  out.value("far_island_mean_sessions", island_stat.mean());
  double last = 0.0;
  for (NodeId n = 0; n < net.size(); ++n) {
    last = std::max(last, net.first_delivery(n, id).value_or(at + deadline) - at);
  }
  out.value("full_consistency_sessions", last);
  out.counter("overlay_bridges_added", bridges_added);
  return out;
}

// ------------------------------------------------------------ ablation ----

/// Builds the protocol variant a sweep point describes: the paper's fast
/// algorithm with one design choice flipped (fanout, ack mode, push trigger,
/// push rule), or the weak baseline.
ProtocolConfig ablation_config(const SweepPoint& point) {
  ProtocolConfig cfg = algorithm_config(tag_or(point.tags, "algo", "fast"));
  const auto fanout = param_or(point.params, "fast_fanout", 0.0);
  if (fanout > 0.0) cfg.fast_fanout = static_cast<std::size_t>(fanout);
  if (param_or(point.params, "subset_acks", 0.0) != 0.0) {
    cfg.ack_mode = FastAckMode::subset;
  }
  if (param_or(point.params, "push_on_writes_only", 0.0) != 0.0) {
    cfg.push_on_any_gain = false;
  }
  if (param_or(point.params, "unconstrained_push", 0.0) != 0.0) {
    cfg.push_rule = FastPushRule::unconstrained;
  }
  return cfg;
}

TrialResult ablation_trial(const SweepPoint& point, std::uint64_t seed,
                           TrialContext& ctx) {
  return propagation_trial(point, seed, ablation_config(point),
                           uniform_demand(), ctx);
}

// -------------------------------------------------- ablation-staleness ----

/// The §3 stale-table failure: every node's demand is re-drawn at t=0.45,
/// just before the write lands, so tables primed at t=0 rank yesterday's
/// hotspots. Sweeps the advert period; without adverts the high-demand
/// advantage evaporates.
TrialResult staleness_trial(const SweepPoint& point, std::uint64_t seed,
                            TrialContext& ctx) {
  const double advert = param_or(point.params, "advert_period", 0.0);
  ProtocolConfig protocol = ProtocolConfig::fast();
  protocol.advert_period = advert < 0.0 ? 0.0 : advert;

  const DemandFactory demand = [](const Graph& g,
                                  Rng& rng) -> std::shared_ptr<const DemandModel> {
    std::vector<std::map<SimTime, double>> schedules(g.size());
    for (auto& schedule : schedules) {
      schedule[0.0] = rng.uniform(0.0, 100.0);   // what tables get primed with
      schedule[0.45] = rng.uniform(0.0, 100.0);  // the surface that matters
    }
    return std::make_shared<StepDemand>(std::move(schedules));
  };
  return propagation_trial(point, seed, protocol, demand, ctx);
}

// ----------------------------------------------------------- freshness ----

/// The abstract, measured literally: Poisson client reads at demand rate
/// against a write stream; a read is fresh when the serving replica already
/// holds the newest write of the key.
TrialResult freshness_trial(const SweepPoint& point, std::uint64_t seed,
                            TrialContext& ctx) {
  const auto n = static_cast<std::size_t>(param_or(point.params, "n", 40));

  Rng rng(seed);
  Graph g;
  std::shared_ptr<StaticDemand> demand;
  {
    // Only the graph/demand build is construction; run_workload times its
    // own network wiring.
    ConstructionCost::Scope construction;
    g = topology_from_point(point)(rng);
    demand =
        std::make_shared<StaticDemand>(make_zipf_demand(n, 1.0, 60.0, rng));
  }
  SimConfig sim;
  sim.protocol = algorithm_config(tag_or(point.tags, "algo", "fast"));
  sim.seed = rng.next_u64();
  WorkloadConfig workload;
  workload.keys = static_cast<std::size_t>(param_or(point.params, "keys", 4));
  workload.write_interval = param_or(point.params, "write_interval", 2.0);
  workload.duration = param_or(point.params, "duration", 40.0);
  workload.warmup = param_or(point.params, "warmup", 5.0);
  workload.seed = rng.next_u64();
  const WorkloadResult result = run_workload(
      std::move(g), demand, sim, workload, ctx.state<SimNetworkPool>());

  TrialResult out;
  out.value("fresh_fraction", result.fresh_fraction());
  // Trials where every read was fresh have no stale-age observation; they
  // must not contribute a 0.0 (which would deflate the aggregate mean on
  // exactly the metric this scenario compares). The aggregated count then
  // reports how many trials saw any stale read.
  if (result.stale_age.count() > 0) {
    out.value("stale_age_mean", result.stale_age.mean());
  }
  out.counter("reads", result.reads);
  out.counter("fresh_reads", result.fresh_reads);
  out.counter("writes", result.writes);
  return out;
}

}  // namespace

void register_extension_scenarios(ScenarioRegistry& registry) {
  {
    ScenarioSpec spec;
    spec.name = "islands";
    spec.title = "§6 islands: leader bridges across a cold region";
    spec.paper_ref = "§6";
    spec.description =
        "Two high-demand cliques joined by a low-demand bridge. Expected "
        "shape: fast+overlay keeps the far island near ~1 session "
        "regardless of bridge length; plain fast degrades as the cold "
        "bridge lengthens.";
    for (const std::size_t bridge : {4u, 8u, 16u}) {
      for (const char* variant : {"weak", "fast", "fast+overlay"}) {
        SweepPoint point;
        point.label = "bridge-" + std::to_string(bridge) + "/" + variant;
        point.tags = {{"topo", "dumbbell"}, {"variant", variant}};
        point.params = {{"clique", 6},
                        {"bridge", static_cast<double>(bridge)},
                        {"lat_lo", 0.01},
                        {"lat_hi", 0.03}};
        point.seed_group = 0;  // variants compare on identical instances
        spec.sweep.push_back(std::move(point));
      }
    }
    spec.trials = 500;
    spec.smoke_trials = 3;
    spec.run = islands_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "ablation";
    spec.title = "Design-choice ablations on the Figure 5 workload";
    spec.paper_ref = "DESIGN §5 (extension)";
    spec.description =
        "Flips one fast-path design choice at a time on BA-50 with uniform "
        "demand: push fanout, ack semantics, push trigger, and the demand-"
        "gradient push rule vs unconstrained flooding, against the paper "
        "configuration and the weak baseline.";
    const std::vector<std::pair<std::string, ParamMap>> variants{
        {"fast-paper", {}},
        {"fanout-2", {{"fast_fanout", 2}}},
        {"fanout-3", {{"fast_fanout", 3}}},
        {"subset-acks", {{"subset_acks", 1}}},
        {"push-on-writes-only", {{"push_on_writes_only", 1}}},
        {"unconstrained-push", {{"unconstrained_push", 1}}},
    };
    for (const auto& [label, extra] : variants) {
      SweepPoint point;
      point.label = label;
      point.tags = {{"topo", "ba"}, {"algo", "fast"}};
      point.params = {{"n", 50}};
      for (const auto& [k, v] : extra) point.params.emplace_back(k, v);
      point.seed_group = 0;  // every variant sees the same instances
      spec.sweep.push_back(std::move(point));
    }
    SweepPoint weak;
    weak.label = "weak-baseline";
    weak.tags = {{"topo", "ba"}, {"algo", "weak"}};
    weak.params = {{"n", 50}};
    weak.seed_group = 0;
    spec.sweep.push_back(std::move(weak));
    spec.trials = 1200;
    spec.smoke_trials = 3;
    spec.smoke_overrides = {{"n", 12}};
    spec.run = ablation_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "ablation-staleness";
    spec.title = "Advert period vs table staleness (the §3 failure)";
    spec.paper_ref = "§3-§4 (extension)";
    spec.description =
        "Every node's demand is re-drawn just before the write lands, so "
        "demand tables primed at t=0 are stale. Expected shape: with no "
        "adverts the high-demand advantage degrades toward the population "
        "mean; faster adverts restore it at the cost of advert traffic.";
    for (const double advert : {-1.0, 1.0, 0.25, 0.05}) {
      SweepPoint point;
      point.label = advert < 0.0 ? "advert-never"
                                 : "advert-" + std::to_string(advert).substr(0, 4);
      point.tags = {{"topo", "ba"}};
      point.params = {{"n", 50}, {"advert_period", advert}};
      point.seed_group = 0;  // same shifted-demand instances per period
      spec.sweep.push_back(std::move(point));
    }
    spec.trials = 300;
    spec.smoke_trials = 3;
    spec.smoke_overrides = {{"n", 12}};
    spec.run = staleness_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "freshness";
    spec.title = "Client freshness: fresh-read fraction under a write stream";
    spec.paper_ref = "Abstract (extension)";
    spec.description =
        "Poisson reads at each replica at its demand rate while writes flow "
        "through BA-40 with Zipf demand. Expected shape: fast keeps the "
        "fresh-read fraction highest at every write rate and leaves younger "
        "stale reads; the gap widens as writes become more frequent.";
    for (const double interval : {4.0, 2.0, 1.0}) {
      for (const std::string& algo : three_algorithm_names()) {
        SweepPoint point;
        point.label = "write-interval-" +
                      std::to_string(interval).substr(0, 1) + "/" + algo;
        point.tags = {{"topo", "ba"}, {"algo", algo}};
        point.params = {{"n", 40}, {"write_interval", interval}};
        point.seed_group = 0;  // algorithms read the same client history
        spec.sweep.push_back(std::move(point));
      }
    }
    spec.trials = 20;
    spec.smoke_trials = 2;
    spec.smoke_overrides = {{"n", 12}, {"duration", 15.0}, {"warmup", 3.0}};
    spec.run = freshness_trial;
    registry.add(std::move(spec));
  }
}

}  // namespace fastcons::harness
