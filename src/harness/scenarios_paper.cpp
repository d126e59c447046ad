// The paper-core scenarios: the §2 walkthrough and Figures 3-6.
#include <deque>
#include <map>
#include <optional>

#include "common/construction_cost.hpp"
#include "core/engine.hpp"
#include "harness/scenarios.hpp"
#include "sim_runtime/sim_network.hpp"
#include "stats/service_metrics.hpp"

namespace fastcons::harness {
namespace {

// ---------------------------------------------------------------- sec2 ----

/// Pooled per-worker state for sec2: the three walkthrough engines and B's
/// demand table are constructed once and reset — never rebuilt — for every
/// later trial on the worker.
struct Sec2Context {
  std::optional<DemandTable> b_table;
  std::optional<ReplicaEngine> e, b, d;
};

/// §2 running example (A..E with demands 4 6 3 8 7): B's demand-ordered
/// session cycle and the 18-step message walkthrough (session E<->B, then
/// the fast update B->D). Fully deterministic; one trial.
TrialResult sec2_trial(const SweepPoint&, std::uint64_t, TrialContext& ctx) {
  const std::vector<double> demands{4, 6, 3, 8, 7};  // A..E

  TrialResult out;

  Sec2Context& pooled = ctx.state<Sec2Context>();

  // B's demand-ordered cycle: paper best case B-D, B-E, B-A, B-C.
  const std::vector<NodeId> b_neighbours{0, 2, 3, 4};
  if (pooled.b_table.has_value()) {
    pooled.b_table->reset(b_neighbours, 0.0);
  } else {
    pooled.b_table.emplace(b_neighbours);
  }
  DemandTable& b_table = *pooled.b_table;
  for (const NodeId peer : {0u, 2u, 3u, 4u}) {
    b_table.update(peer, demands[peer], 0.0);
  }
  const auto order = b_table.by_demand_desc(0.0);
  const bool order_ok = order == std::vector<NodeId>{3, 4, 0, 2};
  out.counter("order_matches_paper", order_ok ? 1 : 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    out.value("order_pick_" + std::to_string(i + 1),
              static_cast<double>(order[i]));
  }

  // Steps 1-18: engines for E, B, D; E writes, sessions with B; B's gain
  // fast-updates D.
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.advert_period = 0.0;
  const auto engine_for = [&cfg](std::optional<ReplicaEngine>& slot,
                                 NodeId self, std::vector<NodeId> neighbours,
                                 std::uint64_t seed) -> ReplicaEngine& {
    if (slot.has_value()) {
      slot->reset(self, neighbours, cfg, seed);
    } else {
      slot.emplace(self, std::move(neighbours), cfg, seed);
    }
    return *slot;
  };
  ReplicaEngine& e = engine_for(pooled.e, 4, {1}, 1);
  ReplicaEngine& b = engine_for(pooled.b, 1, {0, 2, 3, 4}, 2);
  ReplicaEngine& d = engine_for(pooled.d, 3, {1}, 3);
  e.set_own_demand(demands[4]);
  b.set_own_demand(demands[1]);
  d.set_own_demand(demands[3]);
  e.prime_neighbour_demand(1, demands[1], 0.0);
  for (const NodeId peer : {0u, 2u, 3u, 4u}) {
    b.prime_neighbour_demand(peer, demands[peer], 0.0);
  }
  d.prime_neighbour_demand(1, demands[1], 0.0);

  std::map<NodeId, ReplicaEngine*> engines{{4, &e}, {1, &b}, {3, &d}};
  std::deque<std::pair<NodeId, Outbound>> queue;
  const auto enqueue = [&](NodeId from, std::vector<Outbound> outs) {
    for (Outbound& o : outs) queue.push_back({from, std::move(o)});
  };

  std::uint64_t steps = 1;  // the client write itself
  enqueue(4, e.local_write("news", "update-from-E", 0.0));
  enqueue(4, e.on_session_timer(0.0));  // E selects B (most demand)
  while (!queue.empty()) {
    auto [from, o] = std::move(queue.front());
    queue.pop_front();
    ++steps;
    const auto it = engines.find(o.to);
    if (it == engines.end()) continue;  // A/C not instantiated in this demo
    enqueue(o.to, it->second->handle(from, o.msg, 0.0));
  }
  out.counter("walkthrough_messages", steps);

  std::uint64_t holding = 0;
  for (const auto& [id, engine] : engines) {
    if (engine->summary().contains(UpdateId{4, 1})) ++holding;
  }
  out.counter("replicas_holding_update", holding);
  out.counter("d_reached_by_fast_push",
              d.summary().contains(UpdateId{4, 1}) ? 1 : 0);
  return out;
}

// ---------------------------------------------------------------- fig3 ----

/// The §2 five-replica star (B is the hub and holds the change).
Graph fig3_star() {
  Graph g(5);
  g.add_edge(1, 0, 0.02);
  g.add_edge(1, 2, 0.02);
  g.add_edge(1, 3, 0.02);
  g.add_edge(1, 4, 0.02);
  return g;
}

const std::vector<double>& fig3_demands() {
  static const std::vector<double> demands{4, 6, 3, 8, 7};
  return demands;
}

/// Requests/unit-time served consistently after sessions 1..4 when B visits
/// neighbours in `order` (the paper's analytic worst/optimal curves).
std::vector<double> fig3_series_for_order(const std::vector<NodeId>& order) {
  std::vector<std::optional<SimTime>> delivery(5);
  delivery[1] = 0.0;  // B starts with the change
  for (std::size_t k = 0; k < order.size(); ++k) {
    delivery[order[k]] = static_cast<double>(k + 1);
  }
  return consistent_rate_series(delivery, fig3_demands(), 4, 1.0);
}

/// Pooled per-worker state for fig3: the (deterministic) star and its
/// demand model are built once and shared immutably across every trial the
/// worker executes; the network is reset, not rebuilt, per trial.
struct Fig3Context {
  std::shared_ptr<const Graph> star;
  std::shared_ptr<const DemandModel> demands;
  SimNetworkPool pool;
};

/// One measured fast-consistency run: B writes at t=0; sample the
/// consistent-service rate at the four session boundaries.
TrialResult fig3_trial(const SweepPoint&, std::uint64_t seed,
                       TrialContext& ctx) {
  Fig3Context& fig3 = ctx.state<Fig3Context>();
  SimNetwork* net_ptr;
  {
    ConstructionCost::Scope construction;
    if (fig3.star == nullptr) {
      fig3.star = std::make_shared<const Graph>(fig3_star());
      fig3.demands = std::make_shared<StaticDemand>(fig3_demands());
    }
    SimConfig cfg;
    cfg.protocol = ProtocolConfig::fast();
    cfg.protocol.advert_period = 0.0;
    cfg.timing = SimConfig::Timing::periodic;
    cfg.seed = seed;
    net_ptr = &fig3.pool.acquire(fig3.star, fig3.demands, cfg);
  }
  SimNetwork& net = *net_ptr;
  const UpdateId id = net.schedule_write(1, "k", "v", 0.0);
  net.run_until_update_everywhere(id, 10.0);
  std::vector<std::optional<SimTime>> delivery(5);
  for (NodeId n = 0; n < 5; ++n) delivery[n] = net.first_delivery(n, id);
  const auto series = consistent_rate_series(delivery, fig3_demands(), 4, 1.0);

  TrialResult out;
  for (std::size_t k = 0; k < series.size(); ++k) {
    out.value("rate_session_" + std::to_string(k + 1), series[k]);
  }
  return out;
}

// ---------------------------------------------------------------- fig4 ----

/// Drives B's engine through three session timers with the Fig. 4 demand
/// shift (A: 2->0, C: 0->9 after the first session; D constant at 13) and
/// records the chosen partner sequence.
TrialResult fig4_trial(const SweepPoint& point, std::uint64_t, TrialContext&) {
  const std::string variant = tag_or(point.tags, "selection", "dynamic");
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.selection = variant == "dynamic" ? PartnerSelection::demand_dynamic
                                       : PartnerSelection::demand_static;
  cfg.advert_period = 0.0;  // adverts injected manually below
  ReplicaEngine b(1, {0 /*A*/, 2 /*C*/, 3 /*D*/}, cfg, 1);
  b.set_own_demand(6.0);
  // Initial adverts: A=2, C=0, D=13 (Fig. 4, t=1).
  b.handle(0, Message{DemandAdvert{2.0}}, 0.5);
  b.handle(2, Message{DemandAdvert{0.0}}, 0.5);
  b.handle(3, Message{DemandAdvert{13.0}}, 0.5);

  std::vector<NodeId> partners;
  const auto record = [&](std::vector<Outbound> outs) {
    for (const Outbound& o : outs) {
      if (std::holds_alternative<SessionRequest>(o.msg)) partners.push_back(o.to);
    }
  };
  record(b.on_session_timer(1.0));  // t=1
  // The shift: A' = 0, C' = 9, advertised before the next session.
  b.handle(0, Message{DemandAdvert{0.0}}, 1.5);
  b.handle(2, Message{DemandAdvert{9.0}}, 1.5);
  record(b.on_session_timer(2.0));  // t=2
  record(b.on_session_timer(3.0));  // t=3

  const std::vector<NodeId> expected =
      variant == "dynamic" ? std::vector<NodeId>{3, 2, 0}    // B-D, B-C', B-A'
                           : std::vector<NodeId>{3, 0, 2};   // B-D, B-A, B-C
  TrialResult out;
  for (std::size_t i = 0; i < partners.size(); ++i) {
    out.value("partner_" + std::to_string(i + 1),
              static_cast<double>(partners[i]));
  }
  out.counter("matches_paper", partners == expected ? 1 : 0);
  return out;
}

// ------------------------------------------------------------- fig5 / 6 ----

/// One sweep point per algorithm on BA graphs of `n` nodes with uniform
/// random demand — the Figure 5/6 setup.
std::vector<SweepPoint> ba_algorithm_sweep(std::size_t n, double paper_fast,
                                           double paper_weak) {
  std::vector<SweepPoint> sweep;
  for (const std::string& algo : three_algorithm_names()) {
    SweepPoint point;
    point.label = algo;
    point.tags = {{"algo", algo}, {"topo", "ba"}};
    point.params = {{"n", static_cast<double>(n)}};
    // Pair the three curves on identical topologies/demands/writers per
    // trial index (the retired benches ran all algorithms on one seed).
    point.seed_group = 0;
    if (algo == "fast") {
      point.reference = {{"paper_mean_sessions_to_full", paper_fast},
                         {"paper_high_demand_sessions", 1.0}};
    } else if (algo == "weak") {
      point.reference = {{"paper_mean_sessions_to_full", paper_weak}};
    }
    sweep.push_back(std::move(point));
  }
  return sweep;
}

TrialResult figure_cdf_trial(const SweepPoint& point, std::uint64_t seed,
                             TrialContext& ctx) {
  return propagation_trial(point, seed,
                           algorithm_config(tag_or(point.tags, "algo", "fast")),
                           uniform_demand(), ctx);
}

}  // namespace

void register_paper_scenarios(ScenarioRegistry& registry) {
  {
    ScenarioSpec spec;
    spec.name = "sec2";
    spec.title = "§2 running example: demand table, session order, 18-step walkthrough";
    spec.paper_ref = "§2, §2.1";
    spec.description =
        "Replays the five-replica example (demands A=4 B=6 C=3 D=8 E=7): "
        "checks B's demand-ordered cycle is B-D, B-E, B-A, B-C and that the "
        "protocol walkthrough delivers E's write to D via the fast push.";
    SweepPoint point;
    point.label = "walkthrough";
    spec.sweep.push_back(std::move(point));
    spec.trials = 1;
    spec.smoke_trials = 1;
    spec.run = sec2_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig3";
    spec.title = "Figure 3: requests served with consistent content per session";
    spec.paper_ref = "§2, Figure 3";
    spec.description =
        "Five-replica star of §2; the measured fast-consistency curve should "
        "dominate the analytic optimal order at every session boundary "
        "because the fast push serves D without consuming a session.";
    SweepPoint point;
    point.label = "star-5";
    point.tags = {{"algo", "fast"}};
    const auto worst = fig3_series_for_order({2, 0, 4, 3});    // B-C B-A B-E B-D
    const auto optimal = fig3_series_for_order({3, 4, 0, 2});  // B-D B-E B-A B-C
    for (std::size_t k = 0; k < 4; ++k) {
      point.reference.emplace_back("worst_session_" + std::to_string(k + 1),
                                   worst[k]);
      point.reference.emplace_back("optimal_session_" + std::to_string(k + 1),
                                   optimal[k]);
    }
    spec.sweep.push_back(std::move(point));
    spec.trials = 2000;
    spec.smoke_trials = 25;
    spec.run = fig3_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig4";
    spec.title = "Figure 4: dynamic demand re-routes the session order";
    spec.paper_ref = "§3-§4, Figure 4";
    spec.description =
        "Demand shift A:2->0, C:0->9 after the first session. The dynamic "
        "§4 algorithm must choose B-D, B-C', B-A'; the static §2 variant "
        "mis-routes to the stale order B-D, B-A, B-C.";
    for (const char* variant : {"dynamic", "static"}) {
      SweepPoint point;
      point.label = variant;
      point.tags = {{"selection", variant}};
      spec.sweep.push_back(std::move(point));
    }
    spec.trials = 1;
    spec.smoke_trials = 1;
    spec.run = fig4_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig5";
    spec.title = "Figure 5: CDF of sessions to propagate a change, 50 nodes";
    spec.paper_ref = "§5, Figure 5";
    spec.description =
        "BRITE-like (Barabási–Albert) topologies with 50 nodes, uniform "
        "random demands, a change at a random replica. Paper: fast reaches "
        "all replicas in 3.9261 mean sessions vs 6.1499 for weak; "
        "high-demand replicas converge in ~1 session.";
    spec.sweep = ba_algorithm_sweep(50, 3.9261, 6.1499);
    spec.trials = 10000;
    spec.smoke_trials = 6;
    spec.smoke_overrides = {{"n", 12}};
    spec.run = figure_cdf_trial;
    registry.add(std::move(spec));
  }
  {
    ScenarioSpec spec;
    spec.name = "fig6";
    spec.title = "Figure 6: CDF of sessions to propagate a change, 100 nodes";
    spec.paper_ref = "§5, Figure 6";
    spec.description =
        "The Figure 5 experiment at 100 nodes. Paper: fast 4.78117 vs weak "
        "6.982 mean sessions to full; doubling the node count grows the "
        "session count only mildly (it tracks the diameter).";
    spec.sweep = ba_algorithm_sweep(100, 4.78117, 6.982);
    spec.trials = 10000;
    spec.smoke_trials = 4;
    spec.smoke_overrides = {{"n", 16}};
    spec.run = figure_cdf_trial;
    registry.add(std::move(spec));
  }
}

}  // namespace fastcons::harness
