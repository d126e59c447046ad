// Thousand-node sweeps: the regime where demand-based propagation
// differentiates from blind gossip, and where per-trial construction used
// to dominate the budget. Affordable now that workers pool their networks
// (reset, not rebuild, between trials), deterministic grids are built once
// per sweep point and shared immutably across trials, and the BA generator
// reuses its working buffers.
#include "harness/scenarios.hpp"

namespace fastcons::harness {
namespace {

/// Appends weak/fast points for one large topology. `seed_group` pairs the
/// two algorithms on identical random instances per trial index.
void add_large_points(std::vector<SweepPoint>& sweep, const std::string& label,
                      TagMap topo_tags, ParamMap params,
                      std::size_t trials_divisor, std::size_t seed_group) {
  for (const char* algo : {"weak", "fast"}) {
    SweepPoint point;
    point.label = label + "/" + algo;
    point.tags = topo_tags;
    point.tags.emplace_back("algo", algo);
    point.params = params;
    point.trials_divisor = trials_divisor;
    point.seed_group = seed_group;
    sweep.push_back(std::move(point));
  }
}

}  // namespace

void register_large_scale_scenarios(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.name = "large-scale";
  spec.title = "Large-scale sweeps: 1k/4k-node BA and grid propagation";
  spec.paper_ref = "§5 (extension)";
  spec.description =
      "The Figure 5/6 experiment pushed to 1024 and 4096 replicas on "
      "Barabási–Albert graphs (fresh random instance per trial) and square "
      "grids (one deterministic instance shared across trials). Expected "
      "shape: on BA the fast/weak session gap persists and stays nearly "
      "flat in the node count; on grids both algorithms track the growing "
      "diameter but fast keeps high-demand replicas near one session.";
  // BA graphs: a fresh random topology per trial, exactly like fig5/fig6.
  add_large_points(spec.sweep, "ba-1024", {{"topo", "ba"}}, {{"n", 1024}},
                   /*trials_divisor=*/1, /*seed_group=*/0);
  add_large_points(spec.sweep, "ba-4096", {{"topo", "ba"}}, {{"n", 4096}},
                   /*trials_divisor=*/4, /*seed_group=*/1);
  // Grids are deterministic: shared_topo=1 builds one instance per sweep
  // point (probe RNG, not trial RNG) and shares it immutably across all
  // trials — the only per-trial randomness is demand, writer and phase.
  // Deadlines scale with the diameter (2*(k-1) hops for a k x k grid).
  add_large_points(spec.sweep, "grid-32x32", {{"topo", "grid"}},
                   {{"w", 32}, {"h", 32}, {"shared_topo", 1}, {"deadline", 100.0}},
                   /*trials_divisor=*/2, /*seed_group=*/2);
  add_large_points(spec.sweep, "grid-64x64", {{"topo", "grid"}},
                   {{"w", 64}, {"h", 64}, {"shared_topo", 1}, {"deadline", 220.0}},
                   /*trials_divisor=*/20, /*seed_group=*/3);
  spec.trials = 100;
  spec.smoke_trials = 2;
  // Smoke shrinks every point to toy size; shared_topo stays on for the
  // grids so the sharing path gets CI coverage at every thread count.
  spec.smoke_overrides = {{"n", 48}, {"w", 7}, {"h", 7}, {"deadline", 30.0}};
  spec.run = algorithm_propagation_trial;
  registry.add(std::move(spec));
}

}  // namespace fastcons::harness
