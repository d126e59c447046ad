// Seeded fault injection: the Figure 5 experiment re-run on networks that
// drop, duplicate and reorder messages, crash and wipe replicas, and
// partition outright. Weak vs fast anti-entropy on identical seeds
// (seed_group common random numbers), so every point's degradation curve is
// a paired comparison. All fault decisions come from the FaultPlan's own
// derived RNG stream (fault_plan.hpp), which keeps this family — and every
// pre-existing scenario — digest-deterministic at any --jobs count.
#include "harness/scenarios.hpp"

namespace fastcons::harness {
namespace {

/// Appends weak/fast points for one fault regime, paired on `seed_group` so
/// both algorithms face the same topologies, demands, timer phases and
/// fault draws trial-for-trial.
void add_fault_points(std::vector<SweepPoint>& sweep, const std::string& label,
                      ParamMap fault_params, std::size_t seed_group) {
  for (const char* algo : {"weak", "fast"}) {
    SweepPoint point;
    point.label = label + "/" + algo;
    point.tags = {{"topo", "ba"}, {"algo", algo}};
    point.params = fault_params;
    point.params.emplace_back("n", 64);
    point.seed_group = seed_group;
    sweep.push_back(std::move(point));
  }
}

}  // namespace

void register_fault_scenarios(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.name = "faults";
  spec.title = "Fault injection: loss, duplication, reordering, churn and "
               "partitions";
  spec.paper_ref = "§5 (extension)";
  spec.description =
      "Propagation of one write over 64-node Barabási–Albert graphs while "
      "the network misbehaves: message loss at 0/10/30%, duplication plus "
      "bounded reordering, crash/restart churn that wipes replica state, "
      "and a two-way partition that heals mid-run. Weak and fast anti-"
      "entropy run on identical random instances per trial (seed_group). "
      "Expected shape: fast's demand-directed sessions keep high-demand "
      "replicas fresh at mild loss and recover faster after churn and "
      "heal; both degrade together as loss approaches 30%. "
      "trials_consistent counts trials whose summaries fully re-agreed by "
      "the deadline — the measure wipes and partitions actually stress.";
  // The zero-probability control: exercises the fault-family code path
  // (fault params present, telemetry recorded) while injecting nothing, so
  // its curves must match a fault-free run of the same points.
  add_fault_points(spec.sweep, "loss-0.0", {{"fault_loss", 0.0}},
                   /*seed_group=*/0);
  add_fault_points(spec.sweep, "loss-0.1", {{"fault_loss", 0.1}},
                   /*seed_group=*/1);
  add_fault_points(spec.sweep, "loss-0.3",
                   {{"fault_loss", 0.3}, {"deadline", 90.0}},
                   /*seed_group=*/2);
  add_fault_points(spec.sweep, "dup-reorder",
                   {{"fault_loss", 0.1},
                    {"fault_dup", 0.1},
                    {"fault_reorder", 0.3},
                    {"fault_reorder_delay", 0.5}},
                   /*seed_group=*/3);
  // Churn: ~5 crashes per unit time across 64 nodes, each wiping the
  // replica; crashes stop at t=8 so catch-up (and the deadline) is fair.
  add_fault_points(spec.sweep, "churn",
                   {{"fault_crash_rate", 0.08},
                    {"fault_downtime", 0.5},
                    {"fault_churn_until", 8.0},
                    {"deadline", 90.0}},
                   /*seed_group=*/4);
  // Partition: the mesh splits into two id-blocks just before/around the
  // write and heals at t=8; convergence time includes the repair.
  add_fault_points(spec.sweep, "partition",
                   {{"fault_partition_groups", 2},
                    {"fault_partition_at", 1.0},
                    {"fault_heal_at", 8.0},
                    {"deadline", 90.0}},
                   /*seed_group=*/5);
  spec.trials = 200;
  spec.smoke_trials = 2;
  // Smoke shrinks the mesh and the horizon; churn/heal times stay inside
  // the shrunken deadline so every fault class still fires.
  spec.smoke_overrides = {{"n", 24}, {"deadline", 30.0}};
  spec.run = algorithm_propagation_trial;
  registry.add(std::move(spec));
}

}  // namespace fastcons::harness
