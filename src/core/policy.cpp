#include "core/policy.hpp"

#include "common/assert.hpp"

namespace fastcons {

NodeId RandomPolicy::choose(const DemandTable& table, SimTime now, Rng& rng,
                            const PeerHealthTracker* health) {
  // Count, draw, then walk to the drawn peer: the same draw and pick as
  // indexing a list of the eligible peers, without building the list.
  const std::vector<PeerSlot>& neighbours = table.neighbours();
  std::size_t count = 0;
  for (const PeerSlot slot : neighbours) {
    if (DemandTable::eligible(table.row(slot), now, health)) ++count;
  }
  if (count == 0) return kInvalidNode;
  std::size_t skip = rng.index(count);
  if (count == neighbours.size()) {
    return table.row(neighbours[skip]).peer;  // none skipped
  }
  for (const PeerSlot slot : neighbours) {
    const DemandEntry& row = table.row(slot);
    if (!DemandTable::eligible(row, now, health)) continue;
    if (skip == 0) return row.peer;
    --skip;
  }
  FASTCONS_ASSERT(false);
  return kInvalidNode;
}

bool DemandCyclePolicy::visit(PeerSlot slot) {
  if (slot >= visited_.size()) visited_.resize(slot + 1, 0);
  if (visited_[slot] != 0) return false;
  visited_[slot] = 1;
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
      if (visit(ranked.slot)) return ranked.peer;
    }
    visited_.clear();  // cycle exhausted; start over
    visit(order_.front().slot);
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
      if (!visit(ranked.slot)) continue;
      // Skip silently if the peer went down after the order froze.
      if (!DemandTable::eligible(table.row(ranked.slot), now, health)) continue;
      return ranked.peer;
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
