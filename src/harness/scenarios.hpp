/// @file
/// Registration hooks for the built-in scenario groups, plus the few helpers
/// the scenario definition files share. Internal to the harness; CLI and
/// tests go through builtin_registry().
#ifndef FASTCONS_HARNESS_SCENARIOS_HPP
#define FASTCONS_HARNESS_SCENARIOS_HPP

#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "demand/demand_model.hpp"
#include "harness/registry.hpp"
#include "sim_runtime/propagation.hpp"
#include "topology/generators.hpp"

namespace fastcons::harness {

/// §2 walkthrough and Figures 3-6: "sec2", "fig3", "fig4", "fig5", "fig6".
void register_paper_scenarios(ScenarioRegistry& registry);

/// §5/§8 scaling and overhead claims: "uniform-topologies", "diameter-ba",
/// "diameter-grid", "overhead".
void register_scaling_scenarios(ScenarioRegistry& registry);

/// §6 islands and the repository's extensions: "islands", "ablation",
/// "ablation-staleness", "freshness".
void register_extension_scenarios(ScenarioRegistry& registry);

/// Thousand-node sweeps ("large-scale"): BA and grid topologies at 1k/4k
/// replicas — the regime demand-based propagation is meant for, affordable
/// now that trial construction is pooled and deterministic topologies are
/// shared across trials.
void register_large_scale_scenarios(ScenarioRegistry& registry);

/// Seeded fault injection ("faults"): lossy/duplicating/reordering links,
/// crash/restart churn with state wipe, and partition/heal events, weak vs
/// fast on identical seeds (seed_group common random numbers). Digest-
/// stable: all fault decisions come from the FaultPlan's own RNG stream.
void register_fault_scenarios(ScenarioRegistry& registry);

/// Graceful degradation ("degraded"): health-aware vs health-blind fast
/// anti-entropy under dead-peer and flapping regimes on seed_group common
/// random numbers. Digest-stable: health derivation is draw-free.
void register_degraded_scenarios(ScenarioRegistry& registry);

/// Real-socket scenarios ("live"): LocalCluster meshes over TCP, weak vs
/// fast, measuring wall-clock convergence, sustained write throughput and
/// write-visibility latency. Registered only in live_registry(): results
/// are wall-clock measurements, not deterministic functions of the seed.
void register_live_scenarios(ScenarioRegistry& registry);

/// Durable crash-recovery benchmark ("recovery"): a demand-asymmetric line
/// cluster whose middle node is killed and restarted in recover mode,
/// measuring local WAL/checkpoint replay time against log size and
/// demand-ordered catch-up time against the downtime write rate. Registered
/// only in live_registry(): wall-clock and disk measurements.
void register_recovery_scenarios(ScenarioRegistry& registry);

/// Maps an "algo" tag ("weak", "demand-order", "fast") to the protocol
/// preset with adverts disabled — the static-demand experiment setup every
/// figure uses. Throws ConfigError on unknown names.
ProtocolConfig algorithm_config(const std::string& algo);

/// The three algorithm names in figure order: weak, demand-order, fast.
const std::vector<std::string>& three_algorithm_names();

/// Builds a topology factory from a point's tags/params. Understands
/// tag "topo" in {line, ring, grid, tree, ba, dumbbell, star, complete, er,
/// waxman} with params "n" (or "w"/"h" for grids, "clique"/"bridge" for
/// dumbbells). "er" links each pair with p = min(1, 8/n); "waxman" uses
/// alpha 0.6, beta 0.3.
TopologyFactory topology_from_point(const SweepPoint& point);

/// Uniform [lo, hi) per-node demand factory (the paper's §5 setup).
DemandFactory uniform_demand(double lo = 0.0, double hi = 100.0);

/// The topology a sweep point with `shared_topo != 0` shares across every
/// trial: built once per (context, point label) from the point's topology
/// tags with a fixed probe RNG — never the trial RNG — so trials consume
/// identical draw sequences whether or not sharing is on, and every worker
/// builds the same graph. Only meaningful for points whose topology is
/// supposed to be one fixed instance (grids, stars, rings); random-
/// per-trial topologies (the fig5/fig6 BA sweeps) must not set it.
std::shared_ptr<const Graph> shared_topology_for(const SweepPoint& point,
                                                 TrialContext& ctx);

/// Runs one propagation repetition for `point` (reading the topology tags,
/// "deadline", "high_demand_fraction", "shared_topo" and the fault_*
/// params) and records the standard propagation
/// metrics into a TrialResult: sessions_all/sessions_high samples,
/// time_to_full value, convergence and traffic counters. Pools the network
/// and scratch buffers in `ctx`; the raw PropagationTrial stays readable in
/// `ctx.state<PropagationContext>().trial` until the worker's next trial.
TrialResult propagation_trial(const SweepPoint& point, std::uint64_t seed,
                              const ProtocolConfig& protocol,
                              const DemandFactory& demand, TrialContext& ctx);

/// propagation_trial with the point's "algo" tag preset (default "fast";
/// see algorithm_config) and uniform demand: the trial body of every
/// algorithm-tagged propagation point.
TrialResult algorithm_propagation_trial(const SweepPoint& point,
                                        std::uint64_t seed, TrialContext& ctx);

/// The fault configuration a sweep point asks for, or nullopt when the
/// point has no `fault_*` params at all — pre-existing scenarios take the
/// nullopt path and their trial behaviour (and digests) cannot change.
/// Params: fault_loss, fault_dup, fault_reorder, fault_reorder_delay,
/// fault_crash_rate, fault_downtime, fault_wipe (0/1), fault_churn_until
/// (< 0 = unbounded), fault_partition_groups (>= 2 enables a partition),
/// fault_partition_at, fault_heal_at (< 0 = never heals).
std::optional<FaultConfig> fault_config_from_point(const SweepPoint& point);

/// Appends `traffic` to `out` as messages_total/bytes_total plus one
/// messages_<class>/bytes_<class> counter pair per TrafficClass — the one
/// spelling of the traffic counter names every scenario shares.
void record_traffic(TrialResult& out, const TrafficCounters& traffic);

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_SCENARIOS_HPP
