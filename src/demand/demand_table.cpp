#include "demand/demand_table.hpp"

#include <algorithm>

namespace fastcons {

DemandTable::DemandTable(const std::vector<NodeId>& neighbours) {
  rows_.reserve(neighbours.size());
  neighbours_.reserve(neighbours.size());
  by_peer_.reserve(neighbours.size());
  for (const NodeId peer : neighbours) add_neighbour(seat(peer));
}

void DemandTable::reset(const std::vector<NodeId>& neighbours) {
  rows_.clear();
  neighbours_.clear();
  by_peer_.clear();
  for (const NodeId peer : neighbours) add_neighbour(seat(peer));
}

std::size_t DemandTable::position(NodeId peer) const {
  // Branch-free lower bound: the halving step compiles to a conditional
  // move, so a search costs no mispredicted branches whichever peer sent
  // the message.
  const std::pair<NodeId, PeerSlot>* base = by_peer_.data();
  std::size_t n = by_peer_.size();
  if (n == 0) return 0;
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].first < peer ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - by_peer_.data()) +
         (base->first < peer ? 1 : 0);
}

PeerSlot DemandTable::slot_of(NodeId peer) const {
  const std::size_t i = position(peer);
  return i < by_peer_.size() && by_peer_[i].first == peer ? by_peer_[i].second
                                                           : kNoSlot;
}

PeerSlot DemandTable::seat(NodeId peer) {
  const std::size_t i = position(peer);
  if (i < by_peer_.size() && by_peer_[i].first == peer) {
    return by_peer_[i].second;
  }
  const auto slot = static_cast<PeerSlot>(rows_.size());
  by_peer_.insert(by_peer_.begin() + static_cast<std::ptrdiff_t>(i),
                  {peer, slot});
  rows_.push_back(DemandEntry{peer, false, 0.0, HealthStamps{}});
  return slot;
}

void DemandTable::add_neighbour(PeerSlot slot, SimTime now) {
  DemandEntry& row = rows_[slot];
  if (row.neighbour) return;
  row.neighbour = true;
  row.health = HealthStamps{now};
  neighbours_.push_back(slot);
}

void DemandTable::set_demand(PeerSlot slot, double demand) {
  DemandEntry& row = rows_[slot];
  if (row.neighbour) row.demand = demand;
}

std::optional<double> DemandTable::demand_of(NodeId peer) const {
  const PeerSlot slot = slot_of(peer);
  if (slot == kNoSlot || !rows_[slot].neighbour) return std::nullopt;
  return rows_[slot].demand;
}

PeerHealth DemandTable::record_contact(PeerSlot slot, SimTime now,
                                       const PeerHealthTracker& health) {
  DemandEntry& row = rows_[slot];
  if (!row.neighbour) return PeerHealth::up;
  return health.record_contact(row.health, now);
}

void DemandTable::record_failure(PeerSlot slot, SimTime now) {
  DemandEntry& row = rows_[slot];
  if (row.neighbour) PeerHealthTracker::record_failure(row.health, now);
}

void DemandTable::by_demand_desc(SimTime now, const PeerHealthTracker* health,
                                 std::vector<RankedPeer>& ranked) const {
  if (health != nullptr && !health->enabled()) health = nullptr;
  ranked.clear();
  for (const PeerSlot slot : neighbours_) {
    const DemandEntry& row = rows_[slot];
    if (!eligible(row, now, health)) continue;
    const double factor =
        health == nullptr ? 1.0 : health->demand_factor(row.health, now);
    ranked.push_back(RankedPeer{row.demand * factor, row.peer, slot});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPeer& a, const RankedPeer& b) {
              if (a.demand != b.demand) return a.demand > b.demand;
              return a.peer < b.peer;
            });
}

std::vector<NodeId> DemandTable::by_demand_desc(
    SimTime now, const PeerHealthTracker* health) const {
  std::vector<RankedPeer> ranked;
  by_demand_desc(now, health, ranked);
  std::vector<NodeId> order(ranked.size());
  std::transform(ranked.begin(), ranked.end(), order.begin(),
                 [](const RankedPeer& r) { return r.peer; });
  return order;
}

}  // namespace fastcons
