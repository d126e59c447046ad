// Anti-entropy partner-selection policies. The policy object owns the cycle
// state (which neighbours have been visited since the cycle began), so the
// engine stays oblivious to selection details.
#ifndef FASTCONS_CORE_POLICY_HPP
#define FASTCONS_CORE_POLICY_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/config.hpp"
#include "demand/demand_table.hpp"

namespace fastcons {

/// Strategy interface: pick the partner for the next anti-entropy session.
class PartnerPolicy {
 public:
  virtual ~PartnerPolicy() = default;

  /// Returns the chosen neighbour or kInvalidNode when none is eligible
  /// (e.g. every neighbour down). `health`, when non-null, excludes peers
  /// the tracker derives `down` and decays suspect peers' demand in the
  /// selection order; nullptr is health-blind (the historical behaviour).
  virtual NodeId choose(const DemandTable& table, SimTime now, Rng& rng,
                        const PeerHealthTracker* health) = 0;

  /// Health-blind convenience overload.
  NodeId choose(const DemandTable& table, SimTime now, Rng& rng) {
    return choose(table, now, rng, nullptr);
  }

  /// Forgets cycle state (used when the neighbour set changes).
  virtual void reset() {}
};

/// Golding's baseline: uniformly random alive neighbour, with replacement.
/// One rng.index draw over the eligible peers in registration order.
class RandomPolicy final : public PartnerPolicy {
 public:
  using PartnerPolicy::choose;
  NodeId choose(const DemandTable& table, SimTime now, Rng& rng,
                const PeerHealthTracker* health) override;
};

/// Demand-ordered cycle without replacement (paper §2 static / §4 dynamic).
///
/// resort_each_pick == false: the order is frozen from the demand table at
/// the moment a cycle starts — §3's static algorithm, which mis-routes when
/// demand shifts mid-cycle.
/// resort_each_pick == true: the highest-demand *currently alive, not yet
/// visited* neighbour is recomputed at every pick — §4's dynamic algorithm
/// (picks C' over A' in Fig. 4).
class DemandCyclePolicy final : public PartnerPolicy {
 public:
  explicit DemandCyclePolicy(bool resort_each_pick)
      : resort_each_pick_(resort_each_pick) {}

  using PartnerPolicy::choose;
  NodeId choose(const DemandTable& table, SimTime now, Rng& rng,
                const PeerHealthTracker* health) override;
  void reset() override;

 private:
  /// Marks the peer in `slot` visited; false when it already was.
  bool visit(PeerSlot slot);

  bool resort_each_pick_;
  // Buffers kept across picks and reset(), so a pick allocates nothing once
  // they have grown to the neighbour count.
  std::vector<std::uint8_t> visited_;     // by table slot; 1 = visited
  std::vector<RankedPeer> order_;         // this pick's ranking (resort)
  std::vector<RankedPeer> frozen_order_;  // this cycle's ranking (static)
};

/// Factory keyed by the configuration enum.
std::unique_ptr<PartnerPolicy> make_policy(PartnerSelection selection);

}  // namespace fastcons

#endif  // FASTCONS_CORE_POLICY_HPP
