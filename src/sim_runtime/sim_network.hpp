// SimNetwork: runs one ReplicaEngine per topology node on the discrete-event
// simulator, modelling link latencies, message loss and link failures — the
// ns-2 replacement glue (DESIGN.md S6).
#ifndef FASTCONS_SIM_RUNTIME_SIM_NETWORK_HPP
#define FASTCONS_SIM_RUNTIME_SIM_NETWORK_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "demand/demand_model.hpp"
#include "sim/simulator.hpp"
#include "sim_runtime/fault_plan.hpp"
#include "topology/graph.hpp"

namespace fastcons {

/// Simulation-level knobs on top of the protocol configuration.
struct SimConfig {
  ProtocolConfig protocol;

  /// Inter-session timing: a Poisson process (exponential gaps, the classic
  /// anti-entropy model, "at random time" in the paper) or a fixed period
  /// with a uniformly random phase per node.
  enum class Timing { exponential, periodic } timing = Timing::exponential;

  /// Seeded fault injection — the one way to lose a message or cut a link:
  /// per-link loss/duplication/reordering, node crash/restart churn,
  /// scheduled partitions (fault_plan.hpp). The
  /// default (everything disabled) consumes no RNG draws and schedules no
  /// events, so it is bit-identical to the pre-fault-layer behaviour.
  FaultConfig faults;

  /// Master seed; every node and the network driver derive independent
  /// streams from it.
  std::uint64_t seed = 1;

  /// Prime every node's neighbour table with true demands at t=0 (the
  /// paper's experiments assume nodes already know neighbour demand; the
  /// advert protocol then keeps tables fresh if enabled).
  bool prime_tables = true;
};

/// A fully wired simulated replica network.
///
/// The topology is held as `shared_ptr<const Graph>` and never mutated:
/// trials of a sweep point that use one deterministic topology can share a
/// single immutable Graph with zero per-trial build cost, while callers
/// with a fresh per-trial graph pass it by value as before. Engines copy
/// the neighbour id lists they need at wiring time, so the graph is read,
/// never aliased mutably.
class SimNetwork {
 public:
  SimNetwork(Graph graph, std::shared_ptr<const DemandModel> demand,
             SimConfig config);
  SimNetwork(std::shared_ptr<const Graph> graph,
             std::shared_ptr<const DemandModel> demand, SimConfig config);

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Rewires this instance as if freshly constructed with the given
  /// arguments — observationally identical, RNG streams included — while
  /// retaining slab slots, heap storage, engine log/kv/session capacity
  /// and the first-delivery record's arrays. A pooled network therefore runs
  /// steady-state trials allocation-free outside first touch. Overlay
  /// links and the delivery observer are cleared.
  void reset(Graph graph, std::shared_ptr<const DemandModel> demand,
             SimConfig config);
  void reset(std::shared_ptr<const Graph> graph,
             std::shared_ptr<const DemandModel> demand, SimConfig config);

  std::size_t size() const noexcept { return engines_.size(); }
  Simulator& sim() noexcept { return sim_; }
  const Graph& graph() const noexcept { return *graph_; }
  ReplicaEngine& engine(NodeId n);
  const ReplicaEngine& engine(NodeId n) const;

  /// Schedules a client write at `node` at absolute time `at`; returns the
  /// id the write will get (deterministic: only SimNetwork injects writes).
  UpdateId schedule_write(NodeId node, std::string key, std::string value,
                          SimTime at);

  /// Adds an island-overlay link (§6): both engines treat each other as
  /// neighbours; messages between them take `latency`.
  void add_overlay_link(NodeId a, NodeId b, double latency);

  /// Runs the simulation until the given absolute time.
  void run_until(SimTime t);

  /// Runs until every node has applied `id` at least once or `deadline`
  /// passes. Returns whether full coverage was reached. Coverage is read
  /// from the first-delivery record, which a wipe does not erase.
  bool run_until_update_everywhere(UpdateId id, SimTime deadline);

  /// Runs until all summaries are equal (checked every `check_every`) or
  /// deadline. Returns whether convergence was reached.
  bool run_until_consistent(SimTime deadline, SimTime check_every = 0.5);

  /// True when every engine's summary equals node 0's. Compares the
  /// summaries themselves, so a write wiped from every replica counts as
  /// agreed-on absence, not as divergence.
  bool all_consistent() const;

  /// Events executed by the underlying simulator so far.
  std::uint64_t events_executed() const noexcept {
    return sim_.events_executed();
  }

  /// Nodes that have applied `id` at least once (a count over the
  /// first-delivery record; a wipe does not lower it).
  std::size_t nodes_holding(UpdateId id) const;

  /// Time node `n` first applied `id` (any path), if it has.
  std::optional<SimTime> first_delivery(NodeId n, UpdateId id) const;

  /// Demand of every node at the current simulated time.
  std::vector<double> demand_now() const;

  /// Sum of per-engine traffic counters.
  TrafficCounters total_traffic() const;

  /// Sum of per-engine protocol statistics.
  EngineStats total_stats() const;

  /// Messages lost to any fault: the loss coin, a partition, a down receiver.
  std::uint64_t messages_dropped() const noexcept {
    const FaultStats& s = faults_.stats();
    return s.messages_lost + s.partition_drops + s.crash_drops;
  }

  /// The fault-injection state machine (config, node up/down, counters).
  const FaultPlan& faults() const noexcept { return faults_; }

  /// Counters of the faults injected so far this trial.
  const FaultStats& fault_stats() const noexcept { return faults_.stats(); }

  /// Optional observer invoked on every first-time delivery at any node.
  /// Cleared by reset().
  std::function<void(NodeId, const Update&, DeliveryPath, SimTime)> on_delivery;

 private:
  /// Shared tail of construction and reset(): validates the arguments,
  /// (re)builds engines and per-node RNG streams in exactly the
  /// constructor's draw order, primes demand knowledge, installs the
  /// delivery hooks and starts the timers.
  void wire(std::shared_ptr<const Graph> graph,
            std::shared_ptr<const DemandModel> demand, SimConfig config);
  void start_timers();
  /// Self-rescheduling timer bodies. Scheduled events capture just
  /// [this, node], which fits EventFn's inline buffer — no allocation and
  /// no closure-ownership gymnastics (workload.cpp shows the owner-vector
  /// pattern external timers still use).
  void session_tick(NodeId node);
  void advert_tick(NodeId node);
  /// Fault churn: crash `node` now (possibly wiping its engine) and
  /// schedule its restart; restart it and schedule the next crash while the
  /// churn window is open.
  void crash_tick(NodeId node);
  void restart_tick(NodeId node);
  /// Applies a client write at `node`, deferring past any crash the node is
  /// currently in (re-scheduled for the restart instant).
  void perform_write(NodeId node, std::string key, std::string value);
  /// (Re)installs the delivery hook that feeds first_seen_ and
  /// on_delivery; also used after a crash wipes an engine.
  void install_delivery_hook(NodeId node);
  /// Schedules deliveries for `outs`, moving each message into its event;
  /// the vector's elements are consumed but the vector itself is the
  /// caller's (the hot paths pass scratch_out_ and reuse its capacity).
  /// A message addressed to `back_to` travels `back_latency` without a
  /// link lookup: deliver() passes the sender of the message being handled
  /// and the latency it arrived with, and every link's latency is the same
  /// in both directions (Graph writes both; overlay_latency_ is keyed by
  /// the unordered pair), so three of a session's four messages skip the
  /// adjacency scan.
  void dispatch(NodeId from, std::vector<Outbound>& outs,
                NodeId back_to = kInvalidNode, double back_latency = 0.0);
  /// `latency` is the base latency of the link `msg` travelled (without
  /// any fault delay), which replies to `from` reuse.
  void deliver(NodeId from, NodeId to, double latency, Message&& msg);
  void refresh_own_demand(NodeId n);
  /// Fills links_/link_begin_ from the graph (see links_).
  void build_link_index();
  double link_latency(NodeId a, NodeId b) const;
  static std::uint64_t edge_key(NodeId a, NodeId b) noexcept;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const DemandModel> demand_;
  SimConfig config_;
  Simulator sim_;
  FaultPlan faults_;
  std::vector<ReplicaEngine> engines_;
  std::vector<Rng> node_rngs_;

  // Every node's graph edges in one array: node n's are
  // links_[link_begin_[n], link_begin_[n + 1]), in adjacency order.
  // link_latency runs once per message that starts an exchange (replies
  // reuse the inbound latency, see dispatch); scanning this contiguous copy
  // beats chasing the graph's per-node vectors, and on ba-1024's degree
  // mix a linear scan beats a binary search over a peer-sorted copy. The
  // graph is immutable, so the index holds for the whole trial.
  std::vector<Edge> links_;
  std::vector<std::size_t> link_begin_;
  std::unordered_map<std::uint64_t, double> overlay_latency_;

  // first_seen_[n]: (update id, first application time) at node n, sorted
  // by id — the runtime's one record of deliveries; coverage is derived
  // from it. Kept across a wipe: it records what reached a node, not what
  // the node still holds. Flat vectors: a trial touches few ids per node,
  // and hash tables here cost a bucket-array allocation per node per trial.
  std::vector<std::vector<std::pair<UpdateId, SimTime>>> first_seen_;
  std::vector<SeqNo> planned_writes_;

  // Reused output buffer for engine entry points: one delivery never nests
  // inside another (follow-up traffic goes through scheduled events), so a
  // single scratch vector serves every call without allocating.
  std::vector<Outbound> scratch_out_;

  // Reused neighbour-id buffer for wiring engines on reset.
  std::vector<NodeId> scratch_neighbours_;
};

/// Owns at most one SimNetwork and hands it out construct-or-reset style:
/// the first acquire() builds the network, every later one rewires it in
/// place. This is the one spelling of "pooled network per trial context"
/// shared by run_propagation_trial, run_workload, the harness scenarios
/// and the benchmarks.
class SimNetworkPool {
 public:
  SimNetwork& acquire(std::shared_ptr<const Graph> graph,
                      std::shared_ptr<const DemandModel> demand,
                      SimConfig config) {
    if (net_ != nullptr) {
      net_->reset(std::move(graph), std::move(demand), std::move(config));
    } else {
      net_ = std::make_unique<SimNetwork>(std::move(graph), std::move(demand),
                                          std::move(config));
    }
    return *net_;
  }

  SimNetwork& acquire(Graph graph, std::shared_ptr<const DemandModel> demand,
                      SimConfig config) {
    return acquire(std::make_shared<const Graph>(std::move(graph)),
                   std::move(demand), std::move(config));
  }

 private:
  std::unique_ptr<SimNetwork> net_;
};

}  // namespace fastcons

#endif  // FASTCONS_SIM_RUNTIME_SIM_NETWORK_HPP
