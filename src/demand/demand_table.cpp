#include "demand/demand_table.hpp"

#include <algorithm>

#include "common/assert.hpp"

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

DemandTable::DemandTable(std::vector<NodeId> neighbours,
                         SimTime liveness_window)
    : liveness_window_(liveness_window) {
  entries_.reserve(neighbours.size());
  index_.reserve(neighbours.size());
  for (const NodeId peer : neighbours) {
    add_neighbour(peer, 0.0);
  }
}

void DemandTable::reset(const std::vector<NodeId>& neighbours,
                        SimTime liveness_window) {
  liveness_window_ = liveness_window;
  entries_.clear();
  index_.clear();
  for (const NodeId peer : neighbours) {
    add_neighbour(peer, 0.0);
  }
}

const DemandEntry* DemandTable::find(NodeId peer) const {
  const auto it = index_lower_bound(index_, peer);
  if (it == index_.end() || it->first != peer) return nullptr;
  return &entries_[it->second];
}

DemandEntry* DemandTable::find(NodeId peer) {
  const auto it = index_lower_bound(index_, peer);
  if (it == index_.end() || it->first != peer) return nullptr;
  return &entries_[it->second];
}

void DemandTable::update(NodeId peer, double demand, SimTime now) {
  if (DemandEntry* entry = find(peer)) {
    entry->demand = demand;
    entry->last_heard = now;
  }
}

void DemandTable::touch(NodeId peer, SimTime now) {
  if (DemandEntry* entry = find(peer)) entry->last_heard = now;
}

std::optional<double> DemandTable::demand_of(NodeId peer) const {
  const DemandEntry* entry = find(peer);
  if (entry == nullptr) return std::nullopt;
  return entry->demand;
}

bool DemandTable::is_alive(NodeId peer, SimTime now) const {
  const DemandEntry* entry = find(peer);
  if (entry == nullptr) return false;
  return is_alive(*entry, now);
}

NodeId DemandTable::next_dead_probe(SimTime now) {
  DemandEntry* oldest = nullptr;
  for (auto& entry : entries_) {
    if (is_alive(entry, now)) continue;
    if (oldest == nullptr || entry.last_probed < oldest->last_probed ||
        (entry.last_probed == oldest->last_probed &&
         entry.peer < oldest->peer)) {
      oldest = &entry;
    }
  }
  if (oldest == nullptr) return kInvalidNode;
  oldest->last_probed = now;
  return oldest->peer;
}

void DemandTable::by_demand_desc(SimTime now, const PeerHealthTracker* health,
                                 std::vector<RankedPeer>& ranked) const {
  if (health != nullptr && !health->enabled()) health = nullptr;
  ranked.clear();
  for (const DemandEntry& entry : entries_) {
    if (!eligible(entry, now, health)) continue;
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
    if (eligible(entry, now, health)) result.push_back(entry.peer);
  }
  return result;
}

void DemandTable::add_neighbour(NodeId peer, SimTime now) {
  const auto it = index_lower_bound(index_, peer);
  if (it != index_.end() && it->first == peer) return;
  index_.insert(it, {peer, static_cast<std::uint32_t>(entries_.size())});
  entries_.push_back(DemandEntry{peer, 0.0, now});
}

}  // namespace fastcons
