// The paper's §5 experiment, one repetition at a time: "The simulation begins
// by assuming a change on a randomly chosen replica, with the aim of
// measuring the number of sessions the algorithm uses to propagate this
// change, both in the replica with most demand and in those with less
// demand. ... experiments were repeated 10,000 times."
#ifndef FASTCONS_SIM_RUNTIME_PROPAGATION_HPP
#define FASTCONS_SIM_RUNTIME_PROPAGATION_HPP

#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "demand/demand_model.hpp"
#include "sim_runtime/sim_network.hpp"
#include "stats/counters.hpp"
#include "topology/graph.hpp"

namespace fastcons {

/// Factories let each repetition draw a fresh topology and demand
/// assignment, as the paper does.
using TopologyFactory = std::function<Graph(Rng&)>;
using DemandFactory =
    std::function<std::shared_ptr<const DemandModel>(const Graph&, Rng&)>;

struct PropagationExperiment {
  TopologyFactory topology;
  DemandFactory demand;
  SimConfig sim;

  /// Optional pre-built topology shared immutably across repetitions. When
  /// set, `topology` is never called and no trial RNG is consumed for the
  /// graph. This changes the experiment design, not just its speed: the
  /// whole instance — structure AND edge latencies — is frozen, so trials
  /// vary only in demand, writer and timer draws. Use it for points meant
  /// to study one fixed network (fig3's star, the large-scale grids);
  /// points that sample a topology distribution per trial (the fig5/fig6
  /// BA sweeps) must keep their per-trial factory, both for the statistics
  /// and because removing the draws would shift the RNG stream and every
  /// digest.
  std::shared_ptr<const Graph> shared_topology;

  /// "Replicas with most demand": the top fraction by demand at write time.
  double high_demand_fraction = 0.10;

  /// Give up on a repetition after this many session periods.
  SimTime deadline = 60.0;
};

/// One repetition's raw observations, before pooling. The harness runs
/// trials on worker threads and aggregates in trial order, so the per-trial
/// data must be returned instead of accumulated into shared state.
struct PropagationTrial {
  /// Sessions until delivery, one sample per non-writer replica (censored
  /// samples clamped to deadline/period).
  std::vector<double> sessions_all;

  /// The subset of `sessions_all` belonging to high-demand replicas.
  std::vector<double> sessions_high;

  /// Sessions until the change reached the last replica.
  double time_to_full = 0.0;

  /// Wire traffic summed over nodes (full horizon).
  TrafficCounters traffic;

  bool converged = false;
  std::uint64_t censored_samples = 0;

  /// Faults actually injected (all zero when config.sim.faults is disabled).
  FaultStats faults;

  /// Fast pushes the gradient rule would have sent on raw demand but
  /// suppressed because the target's health-decayed demand no longer
  /// cleared it. Zero whenever protocol.health.enabled is false, which is
  /// every pre-existing scenario; recorded only by the degraded family.
  std::uint64_t pushes_suppressed_unhealthy = 0;

  /// Every summary equal by the deadline. With faults disabled this is
  /// exactly `converged` (one write, no way to diverge); with faults
  /// enabled the trial keeps running after first-seen coverage until the
  /// summaries agree or the deadline passes — the metric that catches a
  /// wiped node that has not finished catching up, or a partition that
  /// never healed.
  bool consistent = false;
};

/// Pooled state one worker reuses across propagation repetitions: the
/// simulated network (reset, not rebuilt, between trials) and every scratch
/// vector the trial body needs. Results are bit-identical to fresh
/// construction — the reset-equivalence tests pin that — the pool only
/// removes the per-trial construction tax.
struct PropagationContext {
  SimNetworkPool pool;

  /// Demand snapshot at write time (one slot per node).
  std::vector<double> demands;

  /// Node ids sorted by demand, and the resulting high-demand mask.
  std::vector<NodeId> order;
  std::vector<bool> high;

  /// Trial observations; the sample vectors keep their capacity between
  /// repetitions.
  PropagationTrial trial;
};

/// Runs a single repetition of `config` drawing all randomness from `rng`,
/// reusing `ctx`'s network and buffers. Returns a reference to `ctx.trial`,
/// valid until the next call with the same context. Deterministic for a
/// given rng state.
const PropagationTrial& run_propagation_trial(
    const PropagationExperiment& config, Rng& rng, PropagationContext& ctx);

}  // namespace fastcons

#endif  // FASTCONS_SIM_RUNTIME_PROPAGATION_HPP
