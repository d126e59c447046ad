// Peer-health derivation: a per-neighbour up -> suspect -> down state machine
// driven purely by message recency (and, on the live path, connect
// failures). The paper's demand adverts double as a liveness signal (§4:
// the table "tells us if this replica is available"); this layer turns that
// signal into graded state so push-target selection can *decay* demand for
// silent peers instead of flipping them alive/dead at one threshold.
//
// The evidence itself (HealthStamps) lives in each neighbour's row of the
// demand table (src/demand), the engine's one per-neighbour record; this
// layer only owns the thresholds and the derivation.
//
// Determinism contract (this directory is scanned by the fastcons_lint
// determinism rule): nothing here reads a clock or draws randomness, and
// state is derived from (last_heard, failures, now) at query time — no
// background transitions, no mutation on read. With HealthConfig::enabled
// == false every derivation is `up` and every factor is 1.0, so default-off
// configurations are bit-identical to a build without this layer.
#ifndef FASTCONS_HEALTH_PEER_HEALTH_HPP
#define FASTCONS_HEALTH_PEER_HEALTH_HPP

#include <cstdint>
#include <string_view>

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

/// One peer's health evidence: what the derivation reads. A peer first
/// tracked at `now` starts as HealthStamps{now}.
struct HealthStamps {
  SimTime last_heard = 0.0;
  SimTime first_failure = 0.0;  ///< start of the consecutive-failure run
  std::uint32_t failures = 0;   ///< consecutive connect failures
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

/// The health thresholds and the draw-free derivation over HealthStamps.
class PeerHealthTracker {
 public:
  PeerHealthTracker() = default;
  explicit PeerHealthTracker(const HealthConfig& config) : config_(config) {}

  bool enabled() const noexcept { return config_.enabled; }
  const HealthConfig& config() const noexcept { return config_; }

  /// Any received message proves the peer is up: refreshes last_heard and
  /// clears the consecutive-failure run. Returns the state the peer was in
  /// *before* this contact, so callers can observe re-promotions (a `down`
  /// return means this contact revived the peer).
  PeerHealth record_contact(HealthStamps& stamps, SimTime now) const noexcept;

  /// Live path: a connect attempt to the peer failed.
  static void record_failure(HealthStamps& stamps, SimTime now) noexcept;

  /// Derived state at `now`; always `up` when disabled.
  PeerHealth derive(const HealthStamps& stamps, SimTime now) const noexcept;

  /// Demand multiplier for push-target selection: 1.0 (up),
  /// suspect_demand_factor (suspect), 0.0 (down).
  double demand_factor(const HealthStamps& stamps, SimTime now) const noexcept;

  /// Full derived snapshot of `peer`, whose evidence is `stamps`.
  PeerHealthView view(NodeId peer, const HealthStamps& stamps,
                      SimTime now) const noexcept;

 private:
  SimTime derive_suspect_since(const HealthStamps& stamps,
                               SimTime now) const noexcept;

  HealthConfig config_;
};

}  // namespace fastcons

#endif  // FASTCONS_HEALTH_PEER_HEALTH_HPP
