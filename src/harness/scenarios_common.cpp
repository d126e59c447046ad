// Shared helpers for the built-in scenario definitions.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <optional>

#include "common/construction_cost.hpp"
#include "common/error.hpp"
#include "harness/scenarios.hpp"
#include "stats/counters.hpp"

namespace fastcons::harness {

ProtocolConfig algorithm_config(const std::string& algo) {
  // Static-demand experiments: tables are primed at t=0, so adverts are
  // pure overhead; disabling them matches the paper's static model and
  // keeps the byte counters focused on the replication traffic.
  std::optional<ProtocolConfig> cfg = protocol_preset(algo);
  if (!cfg) throw ConfigError("unknown algorithm tag '" + algo + "'");
  cfg->advert_period = 0.0;
  return *cfg;
}

const std::vector<std::string>& three_algorithm_names() {
  static const std::vector<std::string> names{"weak", "demand-order", "fast"};
  return names;
}

TopologyFactory topology_from_point(const SweepPoint& point) {
  const std::string topo = tag_or(point.tags, "topo", "ba");
  const auto n = static_cast<std::size_t>(param_or(point.params, "n", 50));
  const LatencyRange lat{param_or(point.params, "lat_lo", 0.01),
                         param_or(point.params, "lat_hi", 0.05)};
  if (topo == "line") {
    return [n, lat](Rng& rng) { return make_line(n, lat, rng); };
  }
  if (topo == "ring") {
    return [n, lat](Rng& rng) { return make_ring(n, lat, rng); };
  }
  if (topo == "grid") {
    const auto w = static_cast<std::size_t>(
        param_or(point.params, "w", std::ceil(std::sqrt(static_cast<double>(n)))));
    const auto h = static_cast<std::size_t>(param_or(point.params, "h",
                                                     static_cast<double>(w)));
    return [w, h, lat](Rng& rng) { return make_grid(w, h, lat, rng); };
  }
  if (topo == "tree") {
    return [n, lat](Rng& rng) { return make_binary_tree(n, lat, rng); };
  }
  if (topo == "star") {
    return [n, lat](Rng& rng) { return make_star(n, lat, rng); };
  }
  if (topo == "complete") {
    return [n, lat](Rng& rng) { return make_complete(n, lat, rng); };
  }
  if (topo == "er") {
    // Mean degree ~8 at any size.
    const double p = std::min(1.0, 8.0 / static_cast<double>(n));
    return [n, p, lat](Rng& rng) { return make_erdos_renyi(n, p, lat, rng); };
  }
  if (topo == "waxman") {
    return [n, lat](Rng& rng) { return make_waxman(n, 0.6, 0.3, lat, rng); };
  }
  if (topo == "ba") {
    const auto m = static_cast<std::size_t>(param_or(point.params, "ba_m", 2));
    return [n, m, lat](Rng& rng) { return make_barabasi_albert(n, m, lat, rng); };
  }
  if (topo == "dumbbell") {
    const auto clique =
        static_cast<std::size_t>(param_or(point.params, "clique", 6));
    const auto bridge =
        static_cast<std::size_t>(param_or(point.params, "bridge", 4));
    return [clique, bridge, lat](Rng& rng) {
      return make_dumbbell(clique, bridge, lat, rng);
    };
  }
  throw ConfigError("unknown topology tag '" + topo + "'");
}

DemandFactory uniform_demand(double lo, double hi) {
  return [lo, hi](const Graph& g, Rng& rng) {
    return std::make_shared<StaticDemand>(
        make_uniform_random_demand(g.size(), lo, hi, rng));
  };
}

void record_traffic(TrialResult& out, const TrafficCounters& traffic) {
  out.counter("messages_total", traffic.total_messages());
  out.counter("bytes_total", traffic.total_bytes());
  for (std::size_t i = 0; i < static_cast<std::size_t>(TrafficClass::kCount);
       ++i) {
    const auto cls = static_cast<TrafficClass>(i);
    const std::string name(traffic_class_name(cls));
    out.counter("messages_" + name, traffic.messages(cls));
    out.counter("bytes_" + name, traffic.bytes(cls));
  }
}

std::optional<FaultConfig> fault_config_from_point(const SweepPoint& point) {
  bool any = false;
  for (const auto& [name, value] : point.params) {
    if (name.rfind("fault_", 0) == 0) {
      any = true;
      break;
    }
  }
  if (!any) return std::nullopt;
  FaultConfig f;
  f.loss = param_or(point.params, "fault_loss", 0.0);
  f.duplicate = param_or(point.params, "fault_dup", 0.0);
  f.reorder = param_or(point.params, "fault_reorder", 0.0);
  f.reorder_delay_max =
      param_or(point.params, "fault_reorder_delay", f.reorder_delay_max);
  f.crash_rate = param_or(point.params, "fault_crash_rate", 0.0);
  f.downtime_mean = param_or(point.params, "fault_downtime", f.downtime_mean);
  f.wipe_on_restart = param_or(point.params, "fault_wipe", 1.0) != 0.0;
  const double churn_until = param_or(point.params, "fault_churn_until", -1.0);
  if (churn_until >= 0.0) f.churn_until = churn_until;
  const double groups = param_or(point.params, "fault_partition_groups", 0.0);
  if (groups >= 2.0) {
    PartitionEvent partition;
    partition.groups = static_cast<std::size_t>(groups);
    partition.at = param_or(point.params, "fault_partition_at", 0.0);
    const double heal = param_or(point.params, "fault_heal_at", -1.0);
    if (heal >= 0.0) partition.heal_at = heal;
    f.partitions.push_back(partition);
  }
  return f;
}

namespace {

/// Per-worker cache of the fixed topologies shared_topology_for hands out,
/// keyed by the inputs the build actually reads (topology tag + params) —
/// not the point label, so algorithm variants of one topology (e.g.
/// grid-64x64/weak and /fast) share a single instance per worker.
struct SharedTopologyCache {
  std::vector<std::pair<std::string, std::shared_ptr<const Graph>>> by_key;
};

/// Probe seed for shared-topology construction. A constant: every worker
/// must build byte-identical graphs, and the build must never touch the
/// trial RNG stream.
constexpr std::uint64_t kSharedTopologyProbeSeed = 123;

/// Everything topology_from_point reads, flattened into a cache key.
/// Over-keying (params like "deadline" that the build ignores) only costs
/// a duplicate build; under-keying would silently alias different graphs —
/// hence shortest-round-trip formatting (std::to_chars), which keys every
/// distinct double distinctly, unlike std::to_string's fixed 6 decimals.
std::string topology_cache_key(const SweepPoint& point) {
  std::string key = tag_or(point.tags, "topo", "ba");
  for (const auto& [name, value] : point.params) {
    key += '|';
    key += name;
    key += '=';
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    key.append(buf, ec == std::errc{} ? end : buf);
  }
  return key;
}

}  // namespace

std::shared_ptr<const Graph> shared_topology_for(const SweepPoint& point,
                                                 TrialContext& ctx) {
  SharedTopologyCache& cache = ctx.state<SharedTopologyCache>();
  const std::string key = topology_cache_key(point);
  for (const auto& [existing, graph] : cache.by_key) {
    if (existing == key) return graph;
  }
  ConstructionCost::Scope construction;
  Rng probe(kSharedTopologyProbeSeed);
  auto graph = std::make_shared<const Graph>(topology_from_point(point)(probe));
  cache.by_key.emplace_back(key, graph);
  return graph;
}

TrialResult propagation_trial(const SweepPoint& point, std::uint64_t seed,
                              const ProtocolConfig& protocol,
                              const DemandFactory& demand, TrialContext& ctx) {
  PropagationExperiment exp;
  if (param_or(point.params, "shared_topo", 0.0) != 0.0) {
    exp.shared_topology = shared_topology_for(point, ctx);
  } else {
    exp.topology = topology_from_point(point);
  }
  exp.demand = demand;
  exp.sim.protocol = protocol;
  exp.deadline = param_or(point.params, "deadline", exp.deadline);
  exp.high_demand_fraction =
      param_or(point.params, "high_demand_fraction", exp.high_demand_fraction);
  const std::optional<FaultConfig> faults = fault_config_from_point(point);
  if (faults) exp.sim.faults = *faults;

  Rng rng(seed);
  const PropagationTrial& trial =
      run_propagation_trial(exp, rng, ctx.state<PropagationContext>());
  TrialResult out;
  out.value("time_to_full", trial.time_to_full);
  out.sample("sessions_all", trial.sessions_all);
  out.sample("sessions_high_demand", trial.sessions_high);
  out.counter("trials_converged", trial.converged ? 1 : 0);
  out.counter("censored_samples", trial.censored_samples);
  record_traffic(out, trial.traffic);
  // Fault telemetry only for fault points — including the zero-probability
  // control point, whose counters then read all-zero on purpose — so the
  // standard scenarios' result schema stays untouched.
  if (faults) {
    const FaultStats& f = trial.faults;
    out.counter("trials_consistent", trial.consistent ? 1 : 0);
    out.counter("faults_messages_lost", f.messages_lost);
    out.counter("faults_messages_duplicated", f.messages_duplicated);
    out.counter("faults_messages_delayed", f.messages_delayed);
    out.counter("faults_partition_drops", f.partition_drops);
    out.counter("faults_crash_drops", f.crash_drops);
    out.counter("faults_crashes", f.crashes);
    out.counter("faults_restarts", f.restarts);
    out.counter("faults_wipes", f.wipes);
    out.counter("faults_writes_deferred", f.writes_deferred);
  }
  return out;
}

TrialResult algorithm_propagation_trial(const SweepPoint& point,
                                        std::uint64_t seed,
                                        TrialContext& ctx) {
  return propagation_trial(point, seed,
                           algorithm_config(tag_or(point.tags, "algo", "fast")),
                           uniform_demand(), ctx);
}

}  // namespace fastcons::harness
