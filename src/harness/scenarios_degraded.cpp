// Degraded operation: health-aware vs health-blind propagation while peers
// die or flap. The peer-health layer (src/health) marks silent neighbours
// suspect/down from advert+message recency, decays their demand out of
// partner selection and the fast-push gradient, and re-promotes them on
// first contact after recovery. Each regime pairs an aware and a blind
// point on seed_group common random numbers: identical topologies, demands,
// writers, timer phases and crash schedules trial-for-trial, so any curve
// difference is the health policy itself. Health derivation is draw-free,
// which keeps both variants digest-deterministic at any --jobs count.
#include "harness/scenarios.hpp"

namespace fastcons::harness {
namespace {

TrialResult degraded_trial(const SweepPoint& point, std::uint64_t seed,
                           TrialContext& ctx) {
  // Fast algorithm with adverts RE-ENABLED: the figure scenarios run
  // static-demand with advert_period = 0 (algorithm_config), but adverts
  // are the health layer's recency signal and its recovery channel, so
  // both variants here pay for them — the comparison isolates the policy,
  // not the advert traffic.
  ProtocolConfig protocol = algorithm_config("fast");
  protocol.advert_period = param_or(point.params, "advert_period", 0.25);
  if (tag_or(point.tags, "health", "blind") == "aware") {
    protocol.health.enabled = true;
    protocol.health.suspect_after =
        param_or(point.params, "health_suspect_after", 1.5);
    protocol.health.down_after =
        param_or(point.params, "health_down_after", 4.0);
    protocol.health.suspect_demand_factor =
        param_or(point.params, "health_suspect_factor", 0.25);
  }

  TrialResult out =
      propagation_trial(point, seed, protocol, uniform_demand(), ctx);
  // The trial just run is still in the context's pooled slot.
  const PropagationTrial& trial = ctx.state<PropagationContext>().trial;
  out.counter("pushes_suppressed_unhealthy", trial.pushes_suppressed_unhealthy);
  return out;
}

/// Appends blind/aware points for one degradation regime, paired on
/// `seed_group` (the faults family's common-random-numbers pattern).
void add_degraded_points(std::vector<SweepPoint>& sweep,
                         const std::string& label, ParamMap fault_params,
                         std::size_t seed_group) {
  for (const char* health : {"blind", "aware"}) {
    SweepPoint point;
    point.label = label + "/" + health;
    point.tags = {{"topo", "ba"}, {"health", health}};
    point.params = fault_params;
    point.params.emplace_back("n", 48);
    point.seed_group = seed_group;
    sweep.push_back(std::move(point));
  }
}

}  // namespace

void register_degraded_scenarios(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.name = "degraded";
  spec.title = "Graceful degradation: health-aware vs health-blind under "
               "dead and flapping peers";
  spec.paper_ref = "§5 (extension)";
  spec.description =
      "Propagation of one write over 48-node Barabási–Albert graphs while "
      "replicas fail, fast anti-entropy with adverts on, with the peer-"
      "health layer off (blind) vs on (aware) per regime on identical "
      "random instances (seed_group). dead-peers: early crashes whose "
      "downtime outlives the horizon — aware stops burning sessions and "
      "pushes on corpses, so live replicas see the change in fewer "
      "sessions (lower sessions_all/time_to_full among the living; the "
      "dead censor identically in both). flapping: rapid short crashes "
      "without state wipe — the stress test for re-promotion; aware must "
      "not lag behind blind once a flapping peer returns. "
      "pushes_suppressed_unhealthy counts gradient pushes the decayed "
      "demand vetoed; it is zero for every blind point by construction.";
  // Dead peers: crashes only before t=2, each lasting ~40 units — longer
  // than any deadline here, so a crashed replica is simply gone. The aware
  // variant marks them down within health_down_after and routes around.
  add_degraded_points(spec.sweep, "dead-peers",
                      {{"fault_crash_rate", 0.15},
                       {"fault_downtime", 40.0},
                       {"fault_churn_until", 2.0},
                       {"deadline", 30.0}},
                      /*seed_group=*/0);
  // Flapping: frequent sub-period outages with state retained (a flaky
  // link, not a crash). Suspicion decays demand but must recover on the
  // first advert after each return; down_after is rarely reached.
  add_degraded_points(spec.sweep, "flapping",
                      {{"fault_crash_rate", 0.5},
                       {"fault_downtime", 0.4},
                       {"fault_wipe", 0.0},
                       {"fault_churn_until", 10.0},
                       {"deadline", 30.0}},
                      /*seed_group=*/1);
  spec.trials = 200;
  spec.smoke_trials = 2;
  spec.smoke_overrides = {{"n", 24}, {"deadline", 20.0}};
  spec.run = degraded_trial;
  registry.add(std::move(spec));
}

}  // namespace fastcons::harness
