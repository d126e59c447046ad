// ReplicaEngine: one replica's complete protocol logic, sans-I/O.
//
// The engine is a deterministic state machine. A runtime (the discrete-event
// simulation in src/sim_runtime, or the TCP server in src/net) drives it by
// calling the on_*/handle/local_write entry points with the current time and
// delivers the returned Outbound messages however it likes. The engine never
// reads a clock, never blocks, never allocates a socket — which is what
// makes one implementation testable step-by-step and runnable both simulated
// and over real networks.
#ifndef FASTCONS_CORE_ENGINE_HPP
#define FASTCONS_CORE_ENGINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/policy.hpp"
#include "demand/demand_table.hpp"
#include "health/peer_health.hpp"
#include "replication/write_log.hpp"
#include "stats/counters.hpp"

namespace fastcons {

/// How an update first reached this replica (metrics dimension).
enum class DeliveryPath : std::uint8_t { local_write, session, fast_push };

/// Human-readable name of a DeliveryPath ("local-write", "session", ...).
std::string_view delivery_path_name(DeliveryPath p) noexcept;

/// Observer callbacks. Default-constructed hooks are no-ops.
struct EngineHooks {
  /// Fired exactly once per update when it is first applied locally.
  std::function<void(const Update&, DeliveryPath, SimTime)> on_delivery;
  /// Fired when an anti-entropy session completes at this end.
  std::function<void(NodeId peer, SimTime)> on_session_complete;
};

/// A serialisable image of one replica's durable state: everything a
/// restarted node needs to resume as *the same replica*. In-flight sessions
/// and offers are deliberately excluded (peers time them out and retry), as
/// is peer knowledge (conservatively forgotten; the next summary exchange
/// rebuilds it — forgetting can only cause redundant sends, never loss).
/// next_session/next_offer persist so a reborn node never reuses an id a
/// pre-crash in-flight exchange may still be circulating under.
struct EngineSnapshot {
  NodeId self = kInvalidNode;
  SeqNo write_seq = 0;
  std::uint64_t next_session = 0;
  std::uint64_t next_offer = 0;
  double own_demand = 0.0;
  SummaryVector summary;        ///< everything ever applied (incl. truncated)
  std::vector<Update> updates;  ///< retained payloads, (origin, seq) order
  /// Last advertised demand per neighbour, registration order. Restored as
  /// a priming hint so post-recovery catch-up can walk neighbours
  /// demand-hot-first before fresh adverts arrive.
  std::vector<std::pair<NodeId, double>> neighbour_demand;
};

/// Protocol statistics one engine accumulates over its lifetime.
struct EngineStats {
  std::uint64_t sessions_initiated = 0;  ///< anti-entropy sessions we started
  std::uint64_t sessions_completed = 0;  ///< completed, as initiator
  std::uint64_t sessions_responded = 0;  ///< sessions answered as responder
  std::uint64_t sessions_expired = 0;    ///< abandoned by the timeout
  std::uint64_t offers_sent = 0;         ///< FastOffers we sent
  std::uint64_t offers_received = 0;     ///< FastOffers we received
  std::uint64_t offers_accepted = 0;  ///< we answered YES / non-empty subset
  std::uint64_t offers_declined = 0;  ///< we answered NO / empty subset
  std::uint64_t duplicate_updates = 0;  ///< payloads received but already known
  std::uint64_t updates_applied = 0;    ///< novel updates applied locally
  std::uint64_t payloads_truncated = 0;  ///< discarded by auto-truncation
  /// Fast pushes withheld by health decay: the raw demand gradient would
  /// have selected the peer, but its decayed (suspect) demand did not clear
  /// our own. Always 0 with health disabled.
  std::uint64_t pushes_suppressed_unhealthy = 0;
};

/// One replica of the fast-consistency protocol.
class ReplicaEngine {
 public:
  /// `seed` feeds the engine-local RNG (random partner selection); give
  /// every node a distinct stream.
  ReplicaEngine(NodeId self, std::vector<NodeId> neighbours,
                ProtocolConfig config, std::uint64_t seed);

  ReplicaEngine(const ReplicaEngine&) = delete;
  ReplicaEngine& operator=(const ReplicaEngine&) = delete;
  // Movable so runtimes can keep engines in one contiguous vector.
  ReplicaEngine(ReplicaEngine&&) = default;
  ReplicaEngine& operator=(ReplicaEngine&&) = default;

  /// Reinitialises to the state a freshly constructed
  /// `ReplicaEngine(self, neighbours, config, seed)` would have —
  /// observationally identical, RNG stream included — while retaining the
  /// write-log, kv, session, offer and peer-knowledge vector capacity, so
  /// a pooled runtime re-wires engines between trials without returning
  /// their storage to the allocator. Hooks are cleared (as on
  /// construction); the caller re-installs them.
  void reset(NodeId self, const std::vector<NodeId>& neighbours,
             const ProtocolConfig& config, std::uint64_t seed);

  // --- runtime entry points -------------------------------------------
  //
  // Every entry point exists in two shapes: the vector-returning form for
  // callers that want a fresh container, and an appending form taking the
  // output vector by reference so a runtime can reuse one scratch buffer
  // across millions of deliveries (the simulation hot path does; see
  // SimNetwork::deliver).

  /// A client performed a write here. Applies it locally and returns the
  /// resulting fast-push traffic (paper: a client write triggers the fast
  /// update part immediately).
  std::vector<Outbound> local_write(std::string key, std::string value,
                                    SimTime now);
  void local_write(std::string key, std::string value, SimTime now,
                   std::vector<Outbound>& out);

  /// The per-replica anti-entropy timer fired: start one session.
  std::vector<Outbound> on_session_timer(SimTime now);
  void on_session_timer(SimTime now, std::vector<Outbound>& out);

  /// Starts an anti-entropy session with a specific peer, bypassing the
  /// partner policy — the recovery path uses this to drain catch-up sessions
  /// in demand order. The caller is responsible for picking an alive peer;
  /// a dead one simply times out like any other expired session.
  void start_session_with(NodeId peer, SimTime now, std::vector<Outbound>& out);

  /// The advert timer fired: broadcast DemandAdvert to all neighbours.
  std::vector<Outbound> on_advert_timer(SimTime now);
  void on_advert_timer(SimTime now, std::vector<Outbound>& out);

  /// A message arrived from `from`.
  std::vector<Outbound> handle(NodeId from, const Message& msg, SimTime now);

  /// Move-in variant for the simulation hot path: payloads (update vectors,
  /// summary) are moved into the engine instead of copied. The const&
  /// overload copies once and delegates here.
  std::vector<Outbound> handle(NodeId from, Message&& msg, SimTime now);
  void handle(NodeId from, Message&& msg, SimTime now,
              std::vector<Outbound>& out);

  /// Housekeeping: abandon sessions/offers idle past the timeout.
  void expire_inflight(SimTime now);

  // --- demand plumbing -------------------------------------------------

  /// The runtime tells the engine its own current demand (the engine cannot
  /// know it: demand is generated by clients).
  void set_own_demand(double demand) noexcept { own_demand_ = demand; }
  double own_demand() const noexcept { return own_demand_; }

  /// Primes the neighbour table (static experiments prime once at t=0;
  /// dynamic ones rely on adverts instead).
  void prime_neighbour_demand(NodeId peer, double demand, SimTime now);

  /// Adds an island-overlay neighbour discovered after construction (§6).
  void add_overlay_neighbour(NodeId peer, SimTime now);

  // --- introspection ---------------------------------------------------

  /// This replica's node id.
  NodeId self() const noexcept { return self_; }
  /// The protocol configuration the engine was built with.
  const ProtocolConfig& config() const noexcept { return config_; }
  /// The replica's write log (materialised state + payloads).
  const WriteLog& log() const noexcept { return log_; }
  /// Version summary of every update this replica has applied.
  const SummaryVector& summary() const noexcept { return log_.summary(); }
  /// The neighbour demand table (paper §4).
  const DemandTable& demand_table() const noexcept { return table_; }
  /// Per-neighbour health state machine (src/health); disabled (everything
  /// `up`) unless ProtocolConfig::health.enabled.
  const PeerHealthTracker& peer_health() const noexcept { return health_; }
  /// Live runtimes report a failed connect attempt to `peer` here; repeated
  /// failures force the peer to at least `suspect` (no-op when health
  /// tracking is disabled — sim runtimes never call this).
  void note_peer_failure(NodeId peer, SimTime now) {
    if (health_.enabled()) health_.record_failure(peer, now);
  }
  /// Protocol statistics accumulated since construction.
  const EngineStats& stats() const noexcept { return stats_; }
  /// Wire-traffic counters accumulated since construction.
  const TrafficCounters& counters() const noexcept { return counters_; }

  /// Client read of the materialised key-value state.
  std::optional<std::string> read(const std::string& key) const {
    return log_.read(key);
  }

  /// Discards payloads covered by `stable` (a summary every peer is known
  /// to cover — e.g. gossiped stability frontiers). Sessions with partners
  /// that somehow regressed below it fall back to a full-log transfer.
  /// Returns the number of payloads discarded.
  std::size_t truncate_log_below(const SummaryVector& stable) {
    return log_.truncate_below(stable);
  }

  /// Installs observer callbacks (replacing any previous hooks).
  void set_hooks(EngineHooks hooks) { hooks_ = std::move(hooks); }

  /// The origin write counter: sequence numbers 1..write_seq() have been
  /// issued by this replica's local writes.
  SeqNo write_seq() const noexcept { return next_seq_; }

  /// Restores the origin write counter after a reset. A crash that wipes a
  /// replica's data must NOT reset this counter: origin sequence numbers
  /// are durable (think a fsync'd counter beside the log), because a reborn
  /// origin reissuing seq numbers would forge ids that collide with its own
  /// pre-crash writes still circulating at peers.
  void restore_write_seq(SeqNo next) noexcept { next_seq_ = next; }

  // --- durability hooks -------------------------------------------------

  /// Captures the durable state image (see EngineSnapshot for what is and
  /// is not included). Pure read; the engine is unchanged.
  EngineSnapshot snapshot() const;

  /// Restores a snapshot into a freshly constructed/reset engine for the
  /// same node id. Updates are re-applied idempotently (the WAL suffix may
  /// overlap the checkpoint), the summary is merged on top so coverage of
  /// truncated payloads survives, and the write counter resumes past both
  /// the snapshot's counter and any replayed self-origin write. Hooks do NOT
  /// fire for restored updates — they were delivered before the crash.
  void restore(EngineSnapshot snapshot);

  /// Sessions this engine initiated that have not completed or expired.
  std::size_t inflight_sessions() const noexcept { return sessions_.size(); }
  /// Fast offers this engine sent that are awaiting an ack.
  std::size_t inflight_offers() const noexcept { return offers_.size(); }

 private:
  struct SessionState {
    NodeId peer = kInvalidNode;
    SimTime started_at = 0.0;
    bool awaiting_reply = false;  // false: awaiting the peer's summary
  };
  struct OfferState {
    NodeId peer = kInvalidNode;
    SimTime started_at = 0.0;
    std::vector<UpdateId> offered;
  };

  /// Applies updates (moving payloads into the log); returns (id, timestamp)
  /// of the novel ones — all the fast-update path needs — firing hooks.
  std::vector<OfferedId> apply_all(std::vector<Update>&& updates,
                                   DeliveryPath path, SimTime now);

  /// Fast-update trigger (steps 13-18): offer the novel `gained` updates to
  /// eligible neighbours. `source` is excluded (it obviously has them).
  void after_gain(const std::vector<OfferedId>& gained, NodeId source,
                  DeliveryPath path, SimTime now, std::vector<Outbound>& out);

  /// Discards payloads every neighbour is known to hold (auto_truncate).
  void maybe_auto_truncate();

  bool peer_known_to_have_all(NodeId peer,
                              const std::vector<OfferedId>& gained) const;

  /// The knowledge summary for `peer`, created empty on first use (every
  /// neighbour's is seated up front; only strangers are created here).
  SummaryVector& knowledge_for(NodeId peer);
  /// The knowledge summary for neighbour `peer`, which every neighbour has
  /// (seat_peer_knowledge, add_overlay_neighbour); empty until the first
  /// exchange with it.
  const SummaryVector& neighbour_knowledge(NodeId peer) const;
  /// Gives peer_knowledge_ exactly one empty entry per neighbour, reusing
  /// the entries (and their summary buffers) it already holds.
  void seat_peer_knowledge();

  /// Builds an Outbound and records traffic counters.
  void send(std::vector<Outbound>& out, NodeId to, Message msg);

  // Message handlers; all append their traffic to `out`. Payload-carrying
  // messages (push/reply/data) arrive by value so their update vectors can
  // be moved into the log.
  void on_session_request(NodeId from, const SessionRequest& m, SimTime now,
                          std::vector<Outbound>& out);
  void on_session_summary(NodeId from, const SessionSummary& m, SimTime now,
                          std::vector<Outbound>& out);
  void on_session_push(NodeId from, SessionPush m, SimTime now,
                       std::vector<Outbound>& out);
  void on_session_reply(NodeId from, SessionReply m, SimTime now,
                        std::vector<Outbound>& out);
  void on_fast_offer(NodeId from, const FastOffer& m, SimTime now,
                     std::vector<Outbound>& out);
  void on_fast_ack(NodeId from, const FastAck& m, SimTime now,
                   std::vector<Outbound>& out);
  void on_fast_data(NodeId from, FastData m, SimTime now,
                    std::vector<Outbound>& out);
  void on_demand_advert(NodeId from, const DemandAdvert& m, SimTime now,
                        std::vector<Outbound>& out);

  /// &health_ when tracking is enabled, nullptr otherwise — the disabled
  /// path hands policies/tables the exact health-blind overloads.
  const PeerHealthTracker* health_if_enabled() const noexcept {
    return health_.enabled() ? &health_ : nullptr;
  }

  NodeId self_;
  ProtocolConfig config_;
  Rng rng_;
  WriteLog log_;
  DemandTable table_;
  PeerHealthTracker health_;
  std::unique_ptr<PartnerPolicy> policy_;
  EngineHooks hooks_;
  EngineStats stats_;
  TrafficCounters counters_;

  double own_demand_ = 0.0;
  SeqNo next_seq_ = 0;            // local client writes
  std::uint64_t next_session_ = 0;
  std::uint64_t next_offer_ = 0;

  // In-flight state, a handful of entries each: flat vectors instead of
  // node-based maps so the per-message find/insert/erase churn stays out of
  // the allocator. Session/offer ids are strictly increasing, so appending
  // keeps the vectors sorted for binary-search lookups.
  std::vector<std::pair<std::uint64_t, SessionState>> sessions_;  // by us
  std::vector<std::pair<std::uint64_t, OfferState>> offers_;      // by us
  // What each neighbour is known to have (via summaries, offers, data);
  // sorted by peer id. Every neighbour has an entry from construction or
  // reset on, so a pooled engine's trials reuse the summary buffers; a
  // stranger (a peer that is not, or not yet, a neighbour) gets one on
  // first contact.
  std::vector<std::pair<NodeId, SummaryVector>> peer_knowledge_;
  // after_gain's ranking of push targets, kept so ranking never allocates.
  std::vector<RankedPeer> push_order_;
};

}  // namespace fastcons

#endif  // FASTCONS_CORE_ENGINE_HPP
