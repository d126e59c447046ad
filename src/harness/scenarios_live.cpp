// The "live" scenario family: the real-socket counterpart of the fig3/fig5
// simulations. Each trial boots a LocalCluster (one ReplicaServer thread +
// TCP listener per node), seeds one write and clocks wall-time to full
// convergence, then drives sustained write load through run_load and
// records achieved throughput and per-write full-visibility latency.
//
// Unlike every other scenario these results are measurements of this host
// and this run — wall clocks, scheduler noise, TCP — so the family lives in
// live_registry(), outside the digest-pinned builtin registry, and its JSON
// is written without entering DIGESTS.txt.
#include <chrono>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "harness/scenarios.hpp"
#include "net/cluster.hpp"

namespace fastcons::harness {
namespace {

TrialResult live_trial(const SweepPoint& point, std::uint64_t seed,
                       TrialContext& /*ctx*/) {
  using Clock = std::chrono::steady_clock;
  Rng rng(seed);
  const Graph topology = topology_from_point(point)(rng);

  // Live runs keep adverts on (the preset, not algorithm_config): there is
  // no prime-at-t0 step over real sockets, so demand tables fill the way a
  // deployment's would — from the periodic DemandAdvert broadcasts.
  const std::string algo = tag_or(point.tags, "algo", "fast");
  const std::optional<ProtocolConfig> protocol = protocol_preset(algo);
  if (!protocol) throw ConfigError("unknown algorithm tag '" + algo + "'");
  ClusterConfig cfg;
  cfg.protocol = *protocol;
  cfg.seconds_per_unit = param_or(point.params, "seconds_per_unit", 0.02);
  cfg.seed = rng.next_u64();
  cfg.demands.reserve(topology.size());
  for (std::size_t n = 0; n < topology.size(); ++n) {
    cfg.demands.push_back(rng.uniform(0.0, 100.0));
  }

  const double convergence_timeout =
      param_or(point.params, "convergence_timeout_s", 30.0);
  const double rate = param_or(point.params, "rate", 200.0);
  const double load_seconds = param_or(point.params, "load_seconds", 3.0);
  const NodeId writer = 0;

  LocalCluster cluster(topology, cfg);
  cluster.start();

  // Phase 1: one seed write, wall-clock time until every replica holds it.
  const auto t0 = Clock::now();
  cluster.server(writer).write("seed", "value");
  const bool converged = cluster.wait_for_convergence(convergence_timeout, 1);
  const double convergence_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Phase 2: sustained write load with per-write visibility tracking.
  const LoadReport load =
      cluster.run_load(writer, rate, load_seconds, convergence_timeout);

  // Wire/engine totals across every replica.
  TrafficCounters traffic;
  NetStats net_totals;
  std::uint64_t updates_applied = 0;
  std::uint64_t duplicates = 0;
  for (NodeId n = 0; n < cluster.size(); ++n) {
    traffic.merge(cluster.server(n).traffic());
    const NetStats net = cluster.server(n).net_stats();
    net_totals.frames_sent += net.frames_sent;
    net_totals.bytes_sent += net.bytes_sent;
    net_totals.frames_dropped += net.frames_dropped;
    net_totals.frames_received += net.frames_received;
    net_totals.bytes_received += net.bytes_received;
    net_totals.connect_attempts += net.connect_attempts;
    net_totals.connect_failures += net.connect_failures;
    net_totals.disconnects += net.disconnects;
    net_totals.codec_errors += net.codec_errors;
    const EngineStats stats = cluster.server(n).stats();
    updates_applied += stats.updates_applied;
    duplicates += stats.duplicate_updates;
  }
  cluster.stop();

  TrialResult out;
  out.value("converged", converged ? 1.0 : 0.0);
  out.value("time_to_convergence_ms", convergence_ms);
  out.value("achieved_writes_per_sec", load.achieved_writes_per_sec);
  out.value("writes_issued", static_cast<double>(load.writes_issued));
  out.value("writes_confirmed", static_cast<double>(load.writes_confirmed));
  out.value("confirmed_fraction",
            load.writes_issued == 0
                ? 0.0
                : static_cast<double>(load.writes_confirmed) /
                      static_cast<double>(load.writes_issued));
  out.value("drain_seconds", load.drain_seconds);
  out.sample("write_visibility_ms",
             load.visibility_latency_ms.sorted_samples());
  record_traffic(out, traffic);
  out.counter("updates_applied", updates_applied);
  out.counter("duplicate_updates", duplicates);
  out.counter("net_frames_sent", net_totals.frames_sent);
  out.counter("net_bytes_sent", net_totals.bytes_sent);
  out.counter("net_frames_received", net_totals.frames_received);
  out.counter("net_bytes_received", net_totals.bytes_received);
  out.counter("net_frames_dropped", net_totals.frames_dropped);
  out.counter("net_connect_attempts", net_totals.connect_attempts);
  out.counter("net_connect_failures", net_totals.connect_failures);
  out.counter("net_disconnects", net_totals.disconnects);
  out.counter("net_codec_errors", net_totals.codec_errors);
  return out;
}

void add_live_points(std::vector<SweepPoint>& sweep, const std::string& label,
                     TagMap topo_tags, ParamMap params) {
  for (const char* algo : {"weak", "fast"}) {
    SweepPoint point;
    point.label = label + "/" + algo;
    point.tags = topo_tags;
    point.tags.emplace_back("algo", algo);
    point.params = params;
    sweep.push_back(std::move(point));
  }
}

}  // namespace

void register_live_scenarios(ScenarioRegistry& registry) {
  ScenarioSpec spec;
  spec.name = "live";
  spec.title = "Live TCP clusters: convergence, throughput and visibility";
  spec.paper_ref = "§5 (live transport)";
  spec.description =
      "The paper's propagation experiment run over real sockets: one "
      "ReplicaServer thread + TCP listener per node, demand tables fed by "
      "adverts on the wire. Per point: wall-clock time for one write to "
      "reach every replica, then a sustained write load with per-write "
      "full-visibility latency (p50/p99) and bytes-on-wire. Expected "
      "shape, as in the simulations: fast converges in fewer session "
      "periods than weak and keeps visibility latency flatter under load. "
      "Results are wall-clock measurements of the host that ran them — "
      "excluded from the determinism digests.";
  add_live_points(spec.sweep, "line-8", {{"topo", "line"}}, {{"n", 8}});
  add_live_points(spec.sweep, "star-8", {{"topo", "star"}}, {{"n", 8}});
  add_live_points(spec.sweep, "ba-12", {{"topo", "ba"}}, {{"n", 12}});
  spec.trials = 3;
  spec.smoke_trials = 1;
  // Smoke: tiny meshes, sub-second load window, but the same phases.
  spec.smoke_overrides = {{"n", 4},
                          {"rate", 60.0},
                          {"load_seconds", 0.5},
                          {"convergence_timeout_s", 20.0}};
  spec.run = live_trial;
  registry.add(std::move(spec));
}

}  // namespace fastcons::harness
