// The per-replica neighbour demand table of paper §4: "Each replica
// maintains a table with its neighbours' data. The table holds at least an
// identifying name and its demand. Before any replication process is
// carried out, this table must be updated... as an added advantage, tells us
// if this replica is available."
//
// It is the engine's one per-peer record. Every peer the engine knows gets a
// dense slot: each neighbour when the table is built, and any other peer on
// its first contact or its promotion (seat, then add_neighbour). A slot's
// row holds the demand and the health evidence; the engine keeps what it
// learns about each peer in its own array indexed by the same slot.
// slot_of/seat are the only peer-keyed search: a caller resolves a peer once
// and then reads and writes rows by slot.
//
// Demand rows are refreshed by DemandAdvert messages. Availability is
// src/health's derivation over each row's HealthStamps: eligible() asks it
// whether a neighbour is `down`.
#ifndef FASTCONS_DEMAND_DEMAND_TABLE_HPP
#define FASTCONS_DEMAND_DEMAND_TABLE_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "health/peer_health.hpp"

namespace fastcons {

/// A peer's index into the table's rows, stable until the next reset.
using PeerSlot = std::uint32_t;
/// slot_of's answer for a peer that has no slot.
inline constexpr PeerSlot kNoSlot = std::numeric_limits<PeerSlot>::max();

/// One peer's row.
struct DemandEntry {
  NodeId peer = kInvalidNode;  ///< the paper's "identifying name"
  /// False for a stranger: seated on first contact so the engine can key
  /// what it learns about the peer, but its adverts and contacts are ignored
  /// and it is never a partner or push target until add_neighbour.
  bool neighbour = false;
  double demand = 0.0;  ///< last advertised demand
  HealthStamps health;  ///< contact evidence src/health derives from
};

/// A neighbour as DemandTable::by_demand_desc ranks it.
struct RankedPeer {
  double demand = 0.0;  ///< the sort key (health-decayed when tracked)
  NodeId peer = kInvalidNode;
  PeerSlot slot = kNoSlot;
};

/// Neighbour demand table.
class DemandTable {
 public:
  /// Seats `neighbours` in slots 0.. in this order (duplicates dropped),
  /// each with demand 0 and health stamps at time 0.
  explicit DemandTable(const std::vector<NodeId>& neighbours);

  /// Reinitialises as if freshly constructed with these neighbours, but
  /// reusing the row and index storage — the pooled-engine reset path.
  void reset(const std::vector<NodeId>& neighbours);

  /// `peer`'s slot; kNoSlot if it has none.
  PeerSlot slot_of(NodeId peer) const;

  /// `peer`'s slot, seating it as a stranger if it has none.
  PeerSlot seat(NodeId peer);

  /// Number of seated peers, neighbours and strangers: slots are 0..slots()-1.
  std::size_t slots() const noexcept { return rows_.size(); }

  const DemandEntry& row(PeerSlot slot) const { return rows_[slot]; }

  /// Neighbour slots in registration order. Adverts, the random partner
  /// draw and snapshots walk this order; a promoted stranger comes last
  /// whatever its slot.
  const std::vector<PeerSlot>& neighbours() const noexcept {
    return neighbours_;
  }

  /// Makes `slot`'s peer a neighbour (island bridges), its health stamps
  /// starting at `now`. A stranger keeps its slot; an existing neighbour is
  /// left as it is.
  void add_neighbour(PeerSlot slot, SimTime now = 0.0);

  /// Records an advert from `slot`'s peer: the table's one demand write. A
  /// stranger's advert is ignored (overlay churn can race with adverts).
  void set_demand(PeerSlot slot, double demand);

  /// Demand of `peer` as last advertised; nullopt if `peer` is not a
  /// neighbour. A peer-keyed read for checks and tools; the message path
  /// reads row(slot).demand.
  std::optional<double> demand_of(NodeId peer) const;

  /// A message arrived from `slot`'s peer (see
  /// PeerHealthTracker::record_contact). A stranger's contact is ignored
  /// and reads `up`.
  PeerHealth record_contact(PeerSlot slot, SimTime now,
                            const PeerHealthTracker& health);

  /// Live path: a connect attempt to `slot`'s peer failed. Ignored for a
  /// stranger.
  void record_failure(PeerSlot slot, SimTime now);

  /// Whether partner choice may pick `row`'s peer: not derived `down` by
  /// `health`. A nullptr or disabled tracker excludes nobody.
  static bool eligible(const DemandEntry& row, SimTime now,
                       const PeerHealthTracker* health) {
    return health == nullptr ||
           health->derive(row.health, now) != PeerHealth::down;
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

 private:
  /// Index of the first by_peer_ entry whose peer is not below `peer`.
  std::size_t position(NodeId peer) const;

  std::vector<DemandEntry> rows_;     // by slot
  std::vector<PeerSlot> neighbours_;  // registration order
  // (peer, slot), sorted by peer: the one peer -> slot index. Typical
  // degrees are tiny, so a binary search over one contiguous array beats
  // both a hash table and a scan of the rows.
  std::vector<std::pair<NodeId, PeerSlot>> by_peer_;
};

}  // namespace fastcons

#endif  // FASTCONS_DEMAND_DEMAND_TABLE_HPP
