#include "core/policy.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {

NodeId RandomPolicy::choose(const DemandTable& table, SimTime now, Rng& rng,
                            const PeerHealthTracker* health) {
  // Count, draw, then walk to the drawn peer: the same draw and pick as
  // indexing a list of the eligible peers, without building the list.
  const std::vector<DemandEntry>& entries = table.entries();
  std::size_t count = 0;
  for (const DemandEntry& entry : entries) {
    if (DemandTable::eligible(entry.peer, now, health)) ++count;
  }
  if (count == 0) return kInvalidNode;
  std::size_t skip = rng.index(count);
  if (count == entries.size()) return entries[skip].peer;  // none skipped
  for (const DemandEntry& entry : entries) {
    if (!DemandTable::eligible(entry.peer, now, health)) continue;
    if (skip == 0) return entry.peer;
    --skip;
  }
  FASTCONS_ASSERT(false);
  return kInvalidNode;
}

bool DemandCyclePolicy::visit(NodeId peer) {
  const auto it = std::lower_bound(visited_.begin(), visited_.end(), peer);
  if (it != visited_.end() && *it == peer) return false;
  visited_.insert(it, peer);
  return true;
}

NodeId DemandCyclePolicy::choose(const DemandTable& table, SimTime now,
                                 Rng& /*rng*/,
                                 const PeerHealthTracker* health) {
  if (resort_each_pick_) {
    // Dynamic: among alive neighbours not yet visited this cycle, take the
    // one with the highest *current* demand. A fresh cycle starts when all
    // alive neighbours have been visited.
    table.by_demand_desc(now, health, order_);
    if (order_.empty()) return kInvalidNode;
    for (const RankedPeer& ranked : order_) {
      if (visit(ranked.peer)) return ranked.peer;
    }
    visited_.clear();  // cycle exhausted; start over
    visited_.push_back(order_.front().peer);
    return order_.front().peer;
  }
  // Static: freeze the order when the cycle begins; walk it to the end even
  // if demand shifts underneath (the behaviour §3 criticises).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (frozen_order_.empty()) {
      table.by_demand_desc(now, health, frozen_order_);
      visited_.clear();
      if (frozen_order_.empty()) return kInvalidNode;
    }
    for (const RankedPeer& ranked : frozen_order_) {
      const NodeId peer = ranked.peer;
      if (!visit(peer)) continue;
      // Skip silently if the peer went down after the order froze.
      if (!DemandTable::eligible(peer, now, health)) continue;
      return peer;
    }
    frozen_order_.clear();  // cycle exhausted; refreeze next attempt
  }
  return kInvalidNode;
}

void DemandCyclePolicy::reset() {
  visited_.clear();
  order_.clear();
  frozen_order_.clear();
}

std::unique_ptr<PartnerPolicy> make_policy(PartnerSelection selection) {
  switch (selection) {
    case PartnerSelection::uniform_random:
      return std::make_unique<RandomPolicy>();
    case PartnerSelection::demand_static:
      return std::make_unique<DemandCyclePolicy>(/*resort_each_pick=*/false);
    case PartnerSelection::demand_dynamic:
      return std::make_unique<DemandCyclePolicy>(/*resort_each_pick=*/true);
  }
  FASTCONS_ASSERT(false);
  return nullptr;
}

}  // namespace fastcons
