#include "demand/demand_table.hpp"

#include <algorithm>

namespace fastcons {

namespace {

/// First index entry with key >= peer.
auto index_lower_bound(const std::vector<std::pair<NodeId, std::uint32_t>>& index,
                       NodeId peer) {
  return std::lower_bound(
      index.begin(), index.end(), peer,
      [](const std::pair<NodeId, std::uint32_t>& e, NodeId p) {
        return e.first < p;
      });
}

}  // namespace

DemandTable::DemandTable(std::vector<NodeId> neighbours) {
  entries_.reserve(neighbours.size());
  index_.reserve(neighbours.size());
  for (const NodeId peer : neighbours) add_neighbour(peer);
}

void DemandTable::reset(const std::vector<NodeId>& neighbours) {
  entries_.clear();
  index_.clear();
  for (const NodeId peer : neighbours) add_neighbour(peer);
}

const DemandEntry* DemandTable::find(NodeId peer) const {
  const auto it = index_lower_bound(index_, peer);
  if (it == index_.end() || it->first != peer) return nullptr;
  return &entries_[it->second];
}

DemandEntry* DemandTable::find(NodeId peer) {
  return const_cast<DemandEntry*>(
      static_cast<const DemandTable*>(this)->find(peer));
}

void DemandTable::update(NodeId peer, double demand) {
  if (DemandEntry* entry = find(peer)) entry->demand = demand;
}

std::optional<double> DemandTable::demand_of(NodeId peer) const {
  const DemandEntry* entry = find(peer);
  if (entry == nullptr) return std::nullopt;
  return entry->demand;
}

void DemandTable::by_demand_desc(SimTime now, const PeerHealthTracker* health,
                                 std::vector<RankedPeer>& ranked) const {
  if (health != nullptr && !health->enabled()) health = nullptr;
  ranked.clear();
  for (const DemandEntry& entry : entries_) {
    if (!eligible(entry.peer, now, health)) continue;
    const double factor =
        health == nullptr ? 1.0 : health->demand_factor(entry.peer, now);
    ranked.push_back(RankedPeer{entry.demand * factor, entry.peer});
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

std::vector<NodeId> DemandTable::alive(SimTime now,
                                       const PeerHealthTracker* health) const {
  std::vector<NodeId> result;
  result.reserve(entries_.size());
  for (const auto& entry : entries_) {
    if (eligible(entry.peer, now, health)) result.push_back(entry.peer);
  }
  return result;
}

void DemandTable::add_neighbour(NodeId peer) {
  const auto it = index_lower_bound(index_, peer);
  if (it != index_.end() && it->first == peer) return;
  index_.insert(it, {peer, static_cast<std::uint32_t>(entries_.size())});
  entries_.push_back(DemandEntry{peer, 0.0});
}

}  // namespace fastcons
