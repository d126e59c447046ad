#include "sim_runtime/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/construction_cost.hpp"
#include "common/error.hpp"

namespace fastcons {
namespace {

/// Marks the ceil(fraction * n) highest-demand nodes (demand desc, id asc)
/// in `mask`, using `order` as the sorting scratch buffer.
void high_demand_mask(const std::vector<double>& demands, double fraction,
                      std::vector<NodeId>& order, std::vector<bool>& mask) {
  const std::size_t n = demands.size();
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (demands[a] != demands[b]) return demands[a] > demands[b];
    return a < b;
  });
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(fraction * static_cast<double>(n))));
  mask.assign(n, false);
  for (std::size_t i = 0; i < std::min(k, n); ++i) mask[order[i]] = true;
}

}  // namespace

const PropagationTrial& run_propagation_trial(
    const PropagationExperiment& config, Rng& rng, PropagationContext& ctx) {
  if (!config.shared_topology && !config.topology) {
    throw ConfigError("propagation experiment needs a topology factory or a shared topology");
  }
  if (!config.demand) {
    throw ConfigError("propagation experiment needs a demand factory");
  }
  if (config.high_demand_fraction <= 0.0 || config.high_demand_fraction > 1.0) {
    throw ConfigError("high_demand_fraction must be in (0, 1]");
  }

  const SimTime period = config.sim.protocol.session_period;
  PropagationTrial& trial = ctx.trial;
  trial.sessions_all.clear();
  trial.sessions_high.clear();
  trial.time_to_full = 0.0;
  trial.traffic = TrafficCounters{};
  trial.converged = false;
  trial.censored_samples = 0;
  trial.faults = FaultStats{};
  trial.consistent = false;
  trial.pushes_suppressed_unhealthy = 0;

  // Construction phase: topology + demand + (re)wiring the pooled network.
  // Scoped so the harness can report the construction tax separately from
  // event execution.
  SimNetwork* net_ptr = nullptr;
  std::shared_ptr<const DemandModel> demand;
  {
    ConstructionCost::Scope construction;
    if (config.shared_topology != nullptr) {
      demand = config.demand(*config.shared_topology, rng);
      SimConfig sim_config = config.sim;
      sim_config.seed = rng.next_u64();
      net_ptr = &ctx.pool.acquire(config.shared_topology, demand, sim_config);
    } else {
      Graph graph = config.topology(rng);
      demand = config.demand(graph, rng);
      SimConfig sim_config = config.sim;
      sim_config.seed = rng.next_u64();
      net_ptr = &ctx.pool.acquire(std::move(graph), demand, sim_config);
    }
  }
  SimNetwork& net = *net_ptr;

  const auto writer = static_cast<NodeId>(rng.index(net.size()));
  // Random phase relative to the session timers, after a short settling
  // interval so adverts have fired at least once.
  const SimTime write_at = rng.uniform(0.5, 1.5);
  const UpdateId id = net.schedule_write(writer, "key", "value", write_at);

  trial.converged =
      net.run_until_update_everywhere(id, write_at + config.deadline);
  if (net.faults().enabled()) {
    // First-seen coverage survives a state wipe, so under churn it is not
    // yet consistency; keep running until the summaries actually agree.
    trial.consistent = net.run_until_consistent(write_at + config.deadline);
  } else {
    trial.consistent = trial.converged;
  }

  ctx.demands.resize(net.size());
  for (NodeId node = 0; node < net.size(); ++node) {
    ctx.demands[node] = demand->demand_at(node, write_at);
  }
  high_demand_mask(ctx.demands, config.high_demand_fraction, ctx.order,
                   ctx.high);

  double last = 0.0;
  for (NodeId node = 0; node < net.size(); ++node) {
    if (node == writer) continue;
    const auto at = net.first_delivery(node, id);
    double sessions;
    if (at.has_value()) {
      sessions = (*at - write_at) / period;
    } else {
      sessions = config.deadline / period;
      ++trial.censored_samples;
    }
    last = std::max(last, sessions);
    trial.sessions_all.push_back(sessions);
    if (ctx.high[node]) trial.sessions_high.push_back(sessions);
  }
  trial.time_to_full = last;
  trial.traffic.merge(net.total_traffic());
  trial.faults = net.fault_stats();
  trial.pushes_suppressed_unhealthy =
      net.total_stats().pushes_suppressed_unhealthy;
  return trial;
}

}  // namespace fastcons
