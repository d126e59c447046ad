// The per-replica neighbour demand table of paper §4: "Each replica
// maintains a table with its neighbours' data. The table holds at least an
// identifying name and its demand. Before any replication process is
// carried out, this table must be updated... as an added advantage, tells us
// if this replica is available."
//
// Entries are refreshed by DemandAdvert messages. Availability is src/health's
// decision: the engine feeds its PeerHealthTracker from every received
// message, and eligible() asks that tracker whether a neighbour is `down`.
#ifndef FASTCONS_DEMAND_DEMAND_TABLE_HPP
#define FASTCONS_DEMAND_DEMAND_TABLE_HPP

#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "health/peer_health.hpp"

namespace fastcons {

/// One neighbour's last-advertised state.
struct DemandEntry {
  NodeId peer = kInvalidNode;  ///< neighbour id
  double demand = 0.0;         ///< last advertised demand
};

/// A neighbour as DemandTable::by_demand_desc ranks it.
struct RankedPeer {
  double demand = 0.0;  ///< the sort key (health-decayed when tracked)
  NodeId peer = kInvalidNode;
};

/// Neighbour demand table.
class DemandTable {
 public:
  explicit DemandTable(std::vector<NodeId> neighbours);

  /// Reinitialises as if freshly constructed with these neighbours, but
  /// reusing the entry and index storage — the pooled-engine reset path.
  void reset(const std::vector<NodeId>& neighbours);

  /// Records an advert from `peer`. Unknown peers are ignored (overlay
  /// churn can race with adverts).
  void update(NodeId peer, double demand);

  /// Demand of `peer` as last advertised; nullopt if `peer` is not a
  /// neighbour.
  std::optional<double> demand_of(NodeId peer) const;

  /// Whether partner choice may pick `peer`: not derived `down` by
  /// `health`. A nullptr or disabled tracker excludes nobody.
  static bool eligible(NodeId peer, SimTime now,
                       const PeerHealthTracker* health) {
    return health == nullptr || !health->enabled() ||
           health->state(peer, now) != PeerHealth::down;
  }

  /// Writes into `ranked` the eligible neighbours sorted by decreasing
  /// demand, ties broken by ascending id so the order is total and
  /// deterministic. With an enabled `health` the sort key is demand *
  /// health demand_factor, so suspect peers' demand *decays* in selection
  /// order instead of vanishing outright. `ranked`'s previous contents are
  /// discarded and its capacity reused: a caller that keeps the buffer
  /// ranks without allocating.
  void by_demand_desc(SimTime now, const PeerHealthTracker* health,
                      std::vector<RankedPeer>& ranked) const;

  /// The same order, as a fresh vector of ids.
  std::vector<NodeId> by_demand_desc(
      SimTime now, const PeerHealthTracker* health = nullptr) const;

  /// Eligible neighbours in registration order.
  std::vector<NodeId> alive(SimTime now,
                            const PeerHealthTracker* health = nullptr) const;

  /// All entries in neighbour registration order.
  const std::vector<DemandEntry>& entries() const noexcept { return entries_; }

  /// Adds a neighbour discovered after construction (island bridges).
  /// No-op if already present.
  void add_neighbour(NodeId peer);

 private:
  const DemandEntry* find(NodeId peer) const;
  DemandEntry* find(NodeId peer);

  std::vector<DemandEntry> entries_;
  // (peer, index into entries_), sorted by peer. find/update run on every
  // advert the engine handles; typical degrees are tiny, so a binary search
  // over one contiguous array beats both a hash table and a scan of the
  // full entry structs.
  std::vector<std::pair<NodeId, std::uint32_t>> index_;
};

}  // namespace fastcons

#endif  // FASTCONS_DEMAND_DEMAND_TABLE_HPP
