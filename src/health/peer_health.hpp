// Peer-health tracking: a per-neighbour up -> suspect -> down state machine
// driven purely by message recency (and, on the live path, connect
// failures). The paper's demand adverts double as a liveness signal (§4:
// the table "tells us if this replica is available"); this layer turns that
// signal into graded state so push-target selection can *decay* demand for
// silent peers instead of flipping them alive/dead at one threshold.
//
// Determinism contract (this directory is scanned by the fastcons_lint
// determinism rule): the tracker never reads a clock, never draws
// randomness, and derives state from (last_heard, failures, now) at query
// time — no background transitions, no mutation on read. With
// HealthConfig::enabled == false every query returns `up` and every factor
// is 1.0, so default-off configurations are bit-identical to a build
// without this layer.
#ifndef FASTCONS_HEALTH_PEER_HEALTH_HPP
#define FASTCONS_HEALTH_PEER_HEALTH_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace fastcons {

/// Per-neighbour health verdict. Ordering matters: worse states compare
/// greater, so callers can write `state >= PeerHealth::suspect`.
enum class PeerHealth : std::uint8_t { up = 0, suspect = 1, down = 2 };

/// "up" / "suspect" / "down".
std::string_view peer_health_name(PeerHealth s) noexcept;

struct HealthConfig {
  /// Master switch. Off (the default) keeps every sim digest byte-identical:
  /// all queries report `up` and demand factors of 1.0.
  bool enabled = false;

  /// Silence (now - last_heard, protocol units) at which a peer becomes
  /// suspect. The transition happens exactly at the threshold: silence >=
  /// suspect_after is suspect. With advert_period 0.25 the default means
  /// six consecutive missed adverts.
  SimTime suspect_after = 1.5;

  /// Silence at which a suspect peer is declared down (>= down_after).
  SimTime down_after = 4.0;

  /// Multiplier applied to a suspect peer's advertised demand during push
  /// target selection — the "aging" half of demand decay. Down peers decay
  /// to zero (excluded entirely).
  double suspect_demand_factor = 0.25;

  /// Live path only: this many consecutive connect failures force the peer
  /// to at least `suspect` regardless of silence (sim runtimes never call
  /// record_failure). 0 disables failure-driven suspicion.
  std::uint32_t failure_threshold = 3;
};

/// Snapshot of one peer's derived health, for introspection (NetStats
/// reports these fields so operators and the soak harness read the same
/// values the engine acts on).
struct PeerHealthView {
  NodeId peer = kInvalidNode;
  PeerHealth state = PeerHealth::up;
  SimTime last_heard = 0.0;
  /// When the current degradation began (protocol units); 0 while up.
  /// Derived: min of (last_heard + suspect_after) and the first connect
  /// failure of the current consecutive run, whichever applies.
  SimTime suspect_since = 0.0;
  std::uint32_t consecutive_failures = 0;
};

/// Draw-free health tracker for one replica's neighbour set.
class PeerHealthTracker {
 public:
  PeerHealthTracker() = default;
  PeerHealthTracker(const std::vector<NodeId>& peers, const HealthConfig& config,
                    SimTime now);

  /// Reinitialises as if freshly constructed (pooled-engine reset path),
  /// reusing entry storage.
  void reset(const std::vector<NodeId>& peers, const HealthConfig& config,
             SimTime now);

  /// Same, starting empty; callers add peers one by one (the engine feeds
  /// it from the demand table's entries without building a temporary list).
  void reset(const HealthConfig& config);

  bool enabled() const noexcept { return config_.enabled; }
  const HealthConfig& config() const noexcept { return config_; }

  /// Adds a peer discovered after construction (island bridges). No-op if
  /// already tracked.
  void add_peer(NodeId peer, SimTime now);

  /// Any received message proves the peer is up: refreshes last_heard and
  /// clears the consecutive-failure run. Returns the state the peer was in
  /// *before* this contact, so callers can observe re-promotions (a `down`
  /// return means this contact revived the peer). Unknown peers return `up`
  /// and are ignored.
  PeerHealth record_contact(NodeId peer, SimTime now);

  /// Live path: a connect attempt to `peer` failed.
  void record_failure(NodeId peer, SimTime now);

  /// Derived state at `now`. Unknown peers (and disabled trackers) are `up`.
  PeerHealth state(NodeId peer, SimTime now) const;

  /// Demand multiplier for push-target selection: 1.0 (up),
  /// suspect_demand_factor (suspect), 0.0 (down).
  double demand_factor(NodeId peer, SimTime now) const;

  /// Full derived snapshot for one peer / all peers (peer-id order).
  PeerHealthView view(NodeId peer, SimTime now) const;
  std::vector<PeerHealthView> views(SimTime now) const;

  /// True when every tracked peer derives `up` at `now`.
  bool all_up(SimTime now) const;

  /// Count of down -> up re-promotions observed via record_contact since
  /// construction/reset (the soak harness' recovery invariant).
  std::uint64_t recoveries() const noexcept { return recoveries_; }

 private:
  struct Entry {
    NodeId peer = kInvalidNode;
    SimTime last_heard = 0.0;
    SimTime first_failure = 0.0;  ///< start of the consecutive-failure run
    std::uint32_t failures = 0;   ///< consecutive connect failures
  };

  const Entry* find(NodeId peer) const;
  Entry* find(NodeId peer);
  PeerHealth derive(const Entry& entry, SimTime now) const noexcept;
  SimTime derive_suspect_since(const Entry& entry, SimTime now) const noexcept;

  HealthConfig config_;
  std::vector<Entry> entries_;  // sorted by peer id
  std::uint64_t recoveries_ = 0;
};

}  // namespace fastcons

#endif  // FASTCONS_HEALTH_PEER_HEALTH_HPP
