#include "health/peer_health.hpp"

#include <algorithm>

namespace fastcons {

std::string_view peer_health_name(PeerHealth s) noexcept {
  switch (s) {
    case PeerHealth::up: return "up";
    case PeerHealth::suspect: return "suspect";
    case PeerHealth::down: return "down";
  }
  return "?";
}

PeerHealth PeerHealthTracker::derive(const HealthStamps& stamps,
                                     SimTime now) const noexcept {
  if (!config_.enabled) return PeerHealth::up;
  const SimTime silence = now - stamps.last_heard;
  if (config_.down_after > 0.0 && silence >= config_.down_after) {
    return PeerHealth::down;
  }
  if (config_.suspect_after > 0.0 && silence >= config_.suspect_after) {
    return PeerHealth::suspect;
  }
  if (config_.failure_threshold > 0 &&
      stamps.failures >= config_.failure_threshold) {
    return PeerHealth::suspect;
  }
  return PeerHealth::up;
}

SimTime PeerHealthTracker::derive_suspect_since(const HealthStamps& stamps,
                                                SimTime now) const noexcept {
  if (derive(stamps, now) == PeerHealth::up) return 0.0;
  SimTime since = now;
  if (config_.suspect_after > 0.0 &&
      now - stamps.last_heard >= config_.suspect_after) {
    since = std::min(since, stamps.last_heard + config_.suspect_after);
  }
  if (config_.failure_threshold > 0 &&
      stamps.failures >= config_.failure_threshold) {
    since = std::min(since, stamps.first_failure);
  }
  return since;
}

PeerHealth PeerHealthTracker::record_contact(HealthStamps& stamps,
                                             SimTime now) const noexcept {
  const PeerHealth before = derive(stamps, now);
  stamps = HealthStamps{now};
  return before;
}

void PeerHealthTracker::record_failure(HealthStamps& stamps,
                                       SimTime now) noexcept {
  if (stamps.failures == 0) stamps.first_failure = now;
  ++stamps.failures;
}

double PeerHealthTracker::demand_factor(const HealthStamps& stamps,
                                        SimTime now) const noexcept {
  switch (derive(stamps, now)) {
    case PeerHealth::up: return 1.0;
    case PeerHealth::suspect: return config_.suspect_demand_factor;
    case PeerHealth::down: return 0.0;
  }
  return 1.0;
}

PeerHealthView PeerHealthTracker::view(NodeId peer, const HealthStamps& stamps,
                                       SimTime now) const noexcept {
  PeerHealthView v;
  v.peer = peer;
  v.state = derive(stamps, now);
  v.last_heard = stamps.last_heard;
  v.suspect_since = derive_suspect_since(stamps, now);
  v.consecutive_failures = stamps.failures;
  return v;
}

}  // namespace fastcons
