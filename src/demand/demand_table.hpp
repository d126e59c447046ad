// The per-replica neighbour demand table of paper §4: "Each replica
// maintains a table with its neighbours' data. The table holds at least an
// identifying name and its demand. Before any replication process is
// carried out, this table must be updated... as an added advantage, tells us
// if this replica is available."
//
// Entries are refreshed by DemandAdvert messages; an entry older than the
// liveness window marks the neighbour unreachable and partner policies skip
// it.
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
  SimTime last_heard = 0.0;    ///< when we last received anything from it
  SimTime last_probed = 0.0;  ///< last revival probe sent while presumed dead
};

/// A neighbour as DemandTable::by_demand_desc ranks it.
struct RankedPeer {
  double demand = 0.0;  ///< the sort key (health-decayed when tracked)
  NodeId peer = kInvalidNode;
};

/// Neighbour demand table with staleness-based liveness.
class DemandTable {
 public:
  /// `liveness_window`: a neighbour not heard from for longer than this is
  /// reported unreachable; <= 0 disables liveness tracking (every neighbour
  /// always considered alive), which matches the static model of §2.
  explicit DemandTable(std::vector<NodeId> neighbours,
                       SimTime liveness_window = 0.0);

  /// Reinitialises as if freshly constructed with these arguments, but
  /// reusing the entry and index storage — the pooled-engine reset path.
  void reset(const std::vector<NodeId>& neighbours, SimTime liveness_window);

  /// Records an advert (or any message doubling as one) from `peer`.
  /// Unknown peers are ignored (overlay churn can race with adverts).
  void update(NodeId peer, double demand, SimTime now);

  /// Refreshes liveness only (any received message proves the link and the
  /// server are up, even if it carries no demand figure).
  void touch(NodeId peer, SimTime now);

  /// Demand of `peer` as last advertised; nullopt if `peer` is not a
  /// neighbour.
  std::optional<double> demand_of(NodeId peer) const;

  bool is_alive(NodeId peer, SimTime now) const;

  /// Same check without the index lookup, for callers already holding the
  /// entry (the advert broadcast iterates entries() directly).
  bool is_alive(const DemandEntry& entry, SimTime now) const noexcept {
    return liveness_window_ <= 0.0 ||
           now - entry.last_heard <= liveness_window_;
  }

  /// Picks the dead neighbour least recently probed, stamps it probed at
  /// `now`, and returns it; kInvalidNode when every neighbour is alive.
  /// Liveness is only ever refreshed by *receiving* traffic, so without a
  /// periodic probe two mutually-expired peers would stay dark forever.
  NodeId next_dead_probe(SimTime now);

  /// Whether partner choice may pick `entry`: alive, and not derived
  /// `down` by `health` (nullptr or a disabled tracker excludes nothing).
  bool eligible(const DemandEntry& entry, SimTime now,
                const PeerHealthTracker* health) const {
    return is_alive(entry, now) &&
           (health == nullptr || !health->enabled() ||
            health->state(entry.peer, now) != PeerHealth::down);
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
  void add_neighbour(NodeId peer, SimTime now);

 private:
  const DemandEntry* find(NodeId peer) const;
  DemandEntry* find(NodeId peer);

  std::vector<DemandEntry> entries_;
  // (peer, index into entries_), sorted by peer. find/update/touch run on
  // every message the engine handles; typical degrees are tiny, so a binary
  // search over one contiguous array beats both a hash table and a scan of
  // the full entry structs.
  std::vector<std::pair<NodeId, std::uint32_t>> index_;
  SimTime liveness_window_;
};

}  // namespace fastcons

#endif  // FASTCONS_DEMAND_DEMAND_TABLE_HPP
