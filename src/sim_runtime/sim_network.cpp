#include "sim_runtime/sim_network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace fastcons {
namespace {

// XOR-salt for the fault stream's seed so it can never coincide with the
// driver stream Rng(config_.seed) or any per-node stream split from it.
constexpr std::uint64_t kFaultSeedSalt = 0xFA171F1A57C0FFEEull;

}  // namespace

SimNetwork::SimNetwork(Graph graph, std::shared_ptr<const DemandModel> demand,
                       SimConfig config) {
  wire(std::make_shared<const Graph>(std::move(graph)), std::move(demand),
       std::move(config));
}

SimNetwork::SimNetwork(std::shared_ptr<const Graph> graph,
                       std::shared_ptr<const DemandModel> demand,
                       SimConfig config) {
  wire(std::move(graph), std::move(demand), std::move(config));
}

void SimNetwork::reset(Graph graph, std::shared_ptr<const DemandModel> demand,
                       SimConfig config) {
  reset(std::make_shared<const Graph>(std::move(graph)), std::move(demand),
        std::move(config));
}

void SimNetwork::reset(std::shared_ptr<const Graph> graph,
                       std::shared_ptr<const DemandModel> demand,
                       SimConfig config) {
  sim_.reset();
  overlay_latency_.clear();
  holding_count_.clear();
  summary_revision_ = 0;
  consistent_revision_ = ~std::uint64_t{0};
  consistent_cache_ = false;
  on_delivery = nullptr;
  on_crash = nullptr;
  on_restart = nullptr;
  // first_seen_ inner vectors keep their capacity for the surviving nodes;
  // wire() resizes the outer vector to the new node count.
  for (auto& seen : first_seen_) seen.clear();
  wire(std::move(graph), std::move(demand), std::move(config));
}

void SimNetwork::wire(std::shared_ptr<const Graph> graph,
                      std::shared_ptr<const DemandModel> demand,
                      SimConfig config) {
  if (graph == nullptr) throw ConfigError("SimNetwork needs a topology");
  if (demand == nullptr) throw ConfigError("SimNetwork needs a demand model");
  if (demand->size() != graph->size()) {
    throw ConfigError("demand model size does not match topology size");
  }
  graph_ = std::move(graph);
  demand_ = std::move(demand);
  config_ = config;
  // The driver stream: seeds every engine and per-node stream below.
  Rng rng(config_.seed);

  const std::size_t n = graph_->size();
  // Rebuilding the plan every wire() is what makes pooled reset exact: all
  // fault state (including its RNG position) restarts from the config.
  faults_.reset(config_.faults, n, config_.seed ^ kFaultSeedSalt);
  engines_.reserve(n);
  node_rngs_.reserve(n);
  node_rngs_.clear();
  // A pooled network shrinking to a smaller topology drops surplus engines;
  // their storage is the one piece reset() cannot retain.
  if (engines_.size() > n) {
    engines_.erase(engines_.begin() + static_cast<std::ptrdiff_t>(n),
                   engines_.end());
  }
  build_link_index();
  first_seen_.resize(n);
  planned_writes_.assign(n, 0);
  node_applied_.assign(n, 0);
  node_digest_.assign(n, 0);
  for (NodeId node = 0; node < n; ++node) {
    // The engine copies the ids out of this scratch list, so one buffer
    // serves every node of every trial.
    scratch_neighbours_.clear();
    scratch_neighbours_.reserve(graph_->neighbours(node).size());
    for (const Edge& e : graph_->neighbours(node)) {
      scratch_neighbours_.push_back(e.peer);
    }
    // Draw order matches the historical constructor exactly: one next_u64
    // per engine, then one split per node RNG.
    if (node < engines_.size()) {
      engines_[node].reset(node, scratch_neighbours_, config_.protocol,
                           rng.next_u64());
    } else {
      engines_.emplace_back(node, scratch_neighbours_, config_.protocol,
                            rng.next_u64());
    }
    node_rngs_.push_back(rng.split());
  }
  // Prime demand knowledge at t=0.
  for (NodeId node = 0; node < n; ++node) {
    refresh_own_demand(node);
    if (config_.prime_tables) {
      for (const Edge& e : graph_->neighbours(node)) {
        engines_[node].prime_neighbour_demand(
            e.peer, demand_->demand_at(e.peer, 0.0), 0.0);
      }
    }
    install_delivery_hook(node);
  }
  start_timers();
  // Seed the churn schedule: each node's first crash, in node order so the
  // fault-stream draw order is fixed. Gaps past churn_until fire crash_tick
  // but crash nothing (it re-checks the window).
  if (faults_.churn_active(0.0)) {
    for (NodeId node = 0; node < n; ++node) {
      sim_.schedule_at(faults_.first_crash_gap(),
                       [this, node] { crash_tick(node); });
    }
  }
}

void SimNetwork::install_delivery_hook(NodeId node) {
  EngineHooks hooks;
  hooks.on_delivery = [this, node](const Update& u, DeliveryPath path,
                                   SimTime now) {
    // Any application may change this node's summary — including one the
    // tracker already counted before a crash wiped the node. The revision
    // only keys the all_consistent() cache, so bumping it unconditionally
    // is digest-neutral; skipping it would leave a stale "inconsistent"
    // verdict cached while a wiped node re-applies old updates.
    ++summary_revision_;
    auto& seen = first_seen_[node];
    const auto it = std::lower_bound(
        seen.begin(), seen.end(), u.id,
        [](const auto& entry, UpdateId id) { return entry.first < id; });
    if (it == seen.end() || it->first != u.id) {
      seen.emplace(it, u.id, now);
      const auto hold = std::lower_bound(
          holding_count_.begin(), holding_count_.end(), u.id,
          [](const auto& entry, UpdateId id) { return entry.first < id; });
      if (hold != holding_count_.end() && hold->first == u.id) {
        ++hold->second;
      } else {
        holding_count_.emplace(hold, u.id, 1);
      }
      ++node_applied_[node];
      node_digest_[node] ^= UpdateIdHash{}(u.id);
      if (on_delivery) on_delivery(node, u, path, now);
    }
  };
  engines_[node].set_hooks(std::move(hooks));
}

ReplicaEngine& SimNetwork::engine(NodeId n) {
  FASTCONS_EXPECTS(n < engines_.size());
  return engines_[n];
}

const ReplicaEngine& SimNetwork::engine(NodeId n) const {
  FASTCONS_EXPECTS(n < engines_.size());
  return engines_[n];
}

std::uint64_t SimNetwork::edge_key(NodeId a, NodeId b) noexcept {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

void SimNetwork::build_link_index() {
  const Graph& graph = *graph_;
  link_begin_.resize(graph.size() + 1);
  links_.clear();
  links_.reserve(2 * graph.edge_count());
  for (NodeId node = 0; node < graph.size(); ++node) {
    link_begin_[node] = links_.size();
    const std::vector<Edge>& adjacency = graph.neighbours(node);
    links_.insert(links_.end(), adjacency.begin(), adjacency.end());
  }
  link_begin_[graph.size()] = links_.size();
}

void SimNetwork::refresh_own_demand(NodeId n) {
  engines_[n].set_own_demand(demand_->demand_at(n, sim_.now()));
}

void SimNetwork::start_timers() {
  const ProtocolConfig& proto = config_.protocol;
  for (NodeId node = 0; node < engines_.size(); ++node) {
    // First session: exponential gap for Poisson timing, uniform phase for
    // periodic timing — either way nodes are desynchronised.
    const SimTime first =
        config_.timing == SimConfig::Timing::exponential
            ? node_rngs_[node].exponential(proto.session_period)
            : node_rngs_[node].uniform(0.0, proto.session_period);
    sim_.schedule_at(first, [this, node] { session_tick(node); });

    if (proto.advert_period > 0.0) {
      sim_.schedule_at(node_rngs_[node].uniform(0.0, proto.advert_period),
                       [this, node] { advert_tick(node); });
    }
  }
}

void SimNetwork::session_tick(NodeId node) {
  // A crashed node skips its timer body but still reschedules (and still
  // draws its gap below): its RNG stream keeps the exact positions it has
  // in a fault-free run, so enabling churn perturbs no other stream.
  if (!faults_.node_down(node)) {
    refresh_own_demand(node);
    scratch_out_.clear();
    engines_[node].on_session_timer(sim_.now(), scratch_out_);
    dispatch(node, scratch_out_);
  }
  // Draw the next gap after dispatching, exactly where the retired closure
  // version drew it, so per-node RNG streams are reproduced draw-for-draw.
  const SimTime gap =
      config_.timing == SimConfig::Timing::exponential
          ? node_rngs_[node].exponential(config_.protocol.session_period)
          : config_.protocol.session_period;
  sim_.schedule_in(gap, [this, node] { session_tick(node); });
}

void SimNetwork::advert_tick(NodeId node) {
  if (!faults_.node_down(node)) {
    refresh_own_demand(node);
    scratch_out_.clear();
    engines_[node].on_advert_timer(sim_.now(), scratch_out_);
    dispatch(node, scratch_out_);
  }
  sim_.schedule_in(config_.protocol.advert_period,
                   [this, node] { advert_tick(node); });
}

void SimNetwork::crash_tick(NodeId node) {
  // Re-check the window: the scheduled gap may have landed past churn_until
  // (or churn may have been meant to end while this event was in flight).
  if (!faults_.churn_active(sim_.now())) return;
  const FaultPlan::CrashOutcome outcome = faults_.on_crash(node, sim_.now());
  if (outcome.wipe) {
    scratch_neighbours_.clear();
    for (const Edge& e : graph_->neighbours(node)) {
      scratch_neighbours_.push_back(e.peer);
    }
    // The wipe loses data, not identity: the origin write counter survives
    // (see restore_write_seq) so post-restart writes keep the sequence ids
    // schedule_write promised and never collide with pre-crash writes that
    // peers still hold.
    const SeqNo write_seq = engines_[node].write_seq();
    engines_[node].reset(node, scratch_neighbours_, config_.protocol,
                         outcome.wipe_seed);
    engines_[node].restore_write_seq(write_seq);
    install_delivery_hook(node);
    // The wiped summary changed without a delivery; drop the cached
    // all_consistent() verdict. (Overlay neighbours are graph-external and
    // are not restored — the faults family runs on plain topologies.)
    ++summary_revision_;
  }
  if (on_crash) on_crash(node, outcome.wipe, sim_.now());
  sim_.schedule_in(outcome.downtime, [this, node] { restart_tick(node); });
}

void SimNetwork::restart_tick(NodeId node) {
  const bool wiped = config_.faults.wipe_on_restart;
  const std::optional<double> next_gap = faults_.on_restart(node, sim_.now());
  if (wiped) {
    // Re-prime the reborn engine's demand knowledge like wire() does at
    // t=0; a retained engine kept its tables.
    refresh_own_demand(node);
    if (config_.prime_tables) {
      for (const Edge& e : graph_->neighbours(node)) {
        engines_[node].prime_neighbour_demand(
            e.peer, demand_->demand_at(e.peer, sim_.now()), sim_.now());
      }
    }
  }
  if (on_restart) on_restart(node, wiped, sim_.now());
  if (next_gap) {
    sim_.schedule_in(*next_gap, [this, node] { crash_tick(node); });
  }
}

UpdateId SimNetwork::schedule_write(NodeId node, std::string key,
                                    std::string value, SimTime at) {
  FASTCONS_EXPECTS(node < engines_.size());
  const UpdateId id{node, ++planned_writes_[node]};
  sim_.schedule_at(at, [this, node, key = std::move(key),
                        value = std::move(value)]() mutable {
    perform_write(node, std::move(key), std::move(value));
  });
  return id;
}

void SimNetwork::perform_write(NodeId node, std::string key,
                               std::string value) {
  if (faults_.node_down(node)) {
    // The client retries as soon as the node is back. At equal timestamps
    // the restart event wins: it was inserted when the crash fired, before
    // this deferral, and the simulator runs same-time events in insertion
    // order. perform_write re-checks anyway in case of a back-to-back crash.
    ++faults_.stats().writes_deferred;
    sim_.schedule_at(faults_.down_until(node),
                     [this, node, key = std::move(key),
                      value = std::move(value)]() mutable {
                       perform_write(node, std::move(key), std::move(value));
                     });
    return;
  }
  refresh_own_demand(node);
  scratch_out_.clear();
  engines_[node].local_write(std::move(key), std::move(value), sim_.now(),
                             scratch_out_);
  dispatch(node, scratch_out_);
}

void SimNetwork::add_overlay_link(NodeId a, NodeId b, double latency) {
  FASTCONS_EXPECTS(a < engines_.size() && b < engines_.size());
  FASTCONS_EXPECTS(a != b);
  FASTCONS_EXPECTS(latency >= 0.0);
  overlay_latency_[edge_key(a, b)] = latency;
  engines_[a].add_overlay_neighbour(b, sim_.now());
  engines_[b].add_overlay_neighbour(a, sim_.now());
  if (config_.prime_tables) {
    engines_[a].prime_neighbour_demand(b, demand_->demand_at(b, sim_.now()),
                                       sim_.now());
    engines_[b].prime_neighbour_demand(a, demand_->demand_at(a, sim_.now()),
                                       sim_.now());
  }
}

double SimNetwork::link_latency(NodeId a, NodeId b) const {
  const Edge* const last = links_.data() + link_begin_[a + 1];
  for (const Edge* e = links_.data() + link_begin_[a]; e != last; ++e) {
    if (e->peer == b) return e->latency;
  }
  const auto it = overlay_latency_.find(edge_key(a, b));
  if (it != overlay_latency_.end()) return it->second;
  throw ConfigError("message between non-adjacent nodes");
}

void SimNetwork::dispatch(NodeId from, std::vector<Outbound>& outs,
                          NodeId back_to, double back_latency) {
  for (Outbound& out : outs) {
    // Decide any drop before touching the payload: a lost message must not
    // pay for a capture, and nothing below copies outside the duplicate
    // path — the Message moves from the engine's Outbound into the event
    // closure and on into the receiving engine. (Each Outbound owns a
    // distinct Message, so there is no genuine fan-out sharing to justify a
    // shared_ptr payload.)
    if (faults_.enabled()) {
      // All per-message fault decisions happen here, at send time, from the
      // fault plan's own stream. Messages already in flight when a
      // partition starts still arrive (send-time semantics).
      if (faults_.crossing_partition(from, out.to, sim_.now())) {
        ++faults_.stats().partition_drops;
        continue;
      }
      const FaultPlan::LinkFate fate = faults_.link_fate();
      if (fate.lost) continue;
      const double latency =
          out.to == back_to ? back_latency : link_latency(from, out.to);
      if (fate.duplicated) {
        // The copy pays for the one Message copy in the layer; it only
        // happens on the duplicate path.
        sim_.schedule_in(latency + fate.dup_extra_delay,
                         [this, from, to = out.to, latency,
                          msg = out.msg]() mutable {
                           deliver(from, to, latency, std::move(msg));
                         });
      }
      sim_.schedule_in(latency + fate.extra_delay,
                       [this, from, to = out.to, latency,
                        msg = std::move(out.msg)]() mutable {
                         deliver(from, to, latency, std::move(msg));
                       });
      continue;
    }
    const double latency =
        out.to == back_to ? back_latency : link_latency(from, out.to);
    sim_.schedule_in(latency, [this, from, to = out.to, latency,
                               msg = std::move(out.msg)]() mutable {
      deliver(from, to, latency, std::move(msg));
    });
  }
}

void SimNetwork::deliver(NodeId from, NodeId to, double latency,
                         Message&& msg) {
  if (faults_.node_down(to)) {
    // The receiver is crashed: the message is lost at its doorstep. Checked
    // at delivery (not send) time so a message racing a crash behaves like
    // the real network — and the check is draw-free either way.
    ++faults_.stats().crash_drops;
    return;
  }
  refresh_own_demand(to);  // gradient decisions use current demand
  scratch_out_.clear();
  engines_[to].handle(from, std::move(msg), sim_.now(), scratch_out_);
  dispatch(to, scratch_out_, from, latency);
}

void SimNetwork::run_until(SimTime t) { sim_.run_until(t); }

bool SimNetwork::run_until_update_everywhere(UpdateId id, SimTime deadline) {
  // Step in slices so we can stop as soon as coverage is complete without
  // draining the (endless) timer queue.
  const SimTime slice = 0.1;
  while (sim_.now() < deadline) {
    if (nodes_holding(id) == size()) return true;
    sim_.run_until(std::min(deadline, sim_.now() + slice));
  }
  return nodes_holding(id) == size();
}

bool SimNetwork::run_until_consistent(SimTime deadline, SimTime check_every) {
  FASTCONS_EXPECTS(check_every > 0.0);
  while (sim_.now() < deadline) {
    if (all_consistent()) return true;
    sim_.run_until(std::min(deadline, sim_.now() + check_every));
  }
  return all_consistent();
}

bool SimNetwork::all_consistent() const {
  if (engines_.size() <= 1) return true;
  if (consistent_revision_ == summary_revision_) return consistent_cache_;
  // Cheap screen: equal applied counts and equal id digests. Different
  // counts or digests prove different summaries; a match is only probable,
  // so it is confirmed by the full comparison below.
  bool result = true;
  for (std::size_t n = 1; n < engines_.size(); ++n) {
    if (node_applied_[n] != node_applied_[0] ||
        node_digest_[n] != node_digest_[0]) {
      result = false;
      break;
    }
  }
  if (result) {
    for (std::size_t n = 1; n < engines_.size(); ++n) {
      if (!(engines_[n].summary() == engines_[0].summary())) {
        result = false;
        break;
      }
    }
  }
  consistent_revision_ = summary_revision_;
  consistent_cache_ = result;
  return result;
}

std::size_t SimNetwork::nodes_holding(UpdateId id) const {
  const auto it = std::lower_bound(
      holding_count_.begin(), holding_count_.end(), id,
      [](const auto& entry, UpdateId key) { return entry.first < key; });
  if (it == holding_count_.end() || it->first != id) return 0;
  return it->second;
}

std::optional<SimTime> SimNetwork::first_delivery(NodeId n, UpdateId id) const {
  FASTCONS_EXPECTS(n < first_seen_.size());
  const auto& seen = first_seen_[n];
  const auto it = std::lower_bound(
      seen.begin(), seen.end(), id,
      [](const auto& entry, UpdateId key) { return entry.first < key; });
  if (it == seen.end() || it->first != id) return std::nullopt;
  return it->second;
}

std::vector<double> SimNetwork::demand_now() const {
  return demand_snapshot(*demand_, sim_.now());
}

TrafficCounters SimNetwork::total_traffic() const {
  TrafficCounters total;
  for (const auto& engine : engines_) total.merge(engine.counters());
  return total;
}

EngineStats SimNetwork::total_stats() const {
  EngineStats total;
  for (const auto& engine : engines_) {
    const EngineStats& s = engine.stats();
    total.sessions_initiated += s.sessions_initiated;
    total.sessions_completed += s.sessions_completed;
    total.sessions_responded += s.sessions_responded;
    total.sessions_expired += s.sessions_expired;
    total.offers_sent += s.offers_sent;
    total.offers_received += s.offers_received;
    total.offers_accepted += s.offers_accepted;
    total.offers_declined += s.offers_declined;
    total.duplicate_updates += s.duplicate_updates;
    total.updates_applied += s.updates_applied;
    total.payloads_truncated += s.payloads_truncated;
    total.pushes_suppressed_unhealthy += s.pushes_suppressed_unhealthy;
  }
  return total;
}

}  // namespace fastcons
