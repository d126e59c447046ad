// Summary vectors for anti-entropy (paper §1: "In an update session two
// servers mutually exchange summary vectors").
//
// Golding's TSAE summary is a per-origin high watermark, which assumes
// updates from an origin arrive contiguously. Fast pushes break that
// assumption: a push can deliver (origin, 7) before (origin, 6) has arrived
// through a session. We therefore extend the summary to {watermark +
// explicit out-of-order extras}; contiguous extras are absorbed into the
// watermark on every mutation, so in the no-push case this degenerates to
// exactly Golding's vector.
//
// The structure is a join-semilattice: merge() is the join, covers() the
// partial order. Tests verify commutativity/associativity/idempotence.
//
// Representation: two sorted flat vectors — (origin, watermark) pairs and
// out-of-order UpdateIds — instead of std::map/std::set. Summaries ride in
// every SessionSummary/SessionPush, so they are copied, merged and diffed on
// the simulation hot path; flat storage makes a copy two memcpys and turns
// merge/covers/missing_from into linear scans over contiguous memory.
// Canonical-form invariants (maintained by every mutator):
//   - watermarks_ sorted by origin, all marks > 0;
//   - extras_ sorted by (origin, seq), unique, each seq > watermark(origin)+1
//     (a seq == watermark+1 would have been absorbed into the watermark).
// Equal coverage therefore implies structural equality (operator==).
#ifndef FASTCONS_REPLICATION_SUMMARY_VECTOR_HPP
#define FASTCONS_REPLICATION_SUMMARY_VECTOR_HPP

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "replication/update.hpp"

namespace fastcons {

/// Compact description of "which updates a replica has seen".
class SummaryVector {
 public:
  /// (origin, watermark) pairs sorted by origin; watermarks are > 0.
  using Watermarks = std::vector<std::pair<NodeId, SeqNo>>;
  /// Out-of-order ids sorted by (origin, seq), all above the watermarks.
  using Extras = std::vector<UpdateId>;

  SummaryVector() = default;

  /// True when (origin, seq) is covered.
  bool contains(UpdateId id) const;

  /// Records an update as seen. Idempotent.
  void add(UpdateId id);

  /// True when no update is covered.
  bool empty() const noexcept {
    return watermarks_.empty() && extras_.empty();
  }

  /// Forgets everything, retaining the buffers (pooled engines reset
  /// their summaries once per trial).
  void clear() noexcept {
    watermarks_.clear();
    extras_.clear();
  }

  /// Watermark for one origin (largest w such that all of 1..w are seen).
  SeqNo watermark(NodeId origin) const;

  /// Joins with `other`: afterwards contains(x) holds iff it held in either
  /// input.
  void merge(const SummaryVector& other);

  /// True when every update covered by `other` is covered by *this.
  bool covers(const SummaryVector& other) const;

  /// Ids covered by *this but not by `other`. Order: watermark-range ids
  /// (ascending origin, ascending seq) first, then extras (same order) —
  /// the order payloads have always been shipped in.
  std::vector<UpdateId> missing_from(const SummaryVector& other) const;

  /// Total number of updates covered.
  std::uint64_t total() const;

  /// Origins with at least one update covered (watermarked origins in
  /// ascending order, then extras-only origins in ascending order).
  std::vector<NodeId> origins() const;

  /// Out-of-order ids beyond the watermarks (exposed for wire encoding;
  /// grouped runs share an origin because the vector is (origin, seq)
  /// sorted).
  const Extras& extras() const { return extras_; }
  const Watermarks& watermarks() const { return watermarks_; }

  /// Number of distinct origins in extras() — the per-origin group count
  /// the wire encoding writes, shared by the codec and its size estimator
  /// so the two cannot drift.
  std::size_t distinct_extra_origins() const;

  /// Rebuilds from wire parts; normalises (absorbs contiguous extras).
  static SummaryVector from_parts(std::map<NodeId, SeqNo> watermarks,
                                  std::map<NodeId, std::set<SeqNo>> extras);

  /// Greatest lower bound: the result covers an id iff both inputs cover
  /// it. Together with merge() (the join) this makes SummaryVector a full
  /// lattice; the meet over a node's neighbour summaries is its log
  /// truncation frontier (every neighbour provably holds everything below
  /// it).
  static SummaryVector meet(const SummaryVector& a, const SummaryVector& b);

  friend bool operator==(const SummaryVector&, const SummaryVector&) = default;

 private:
  /// Rebuilds *this from sorted-by-origin watermarks (zero marks allowed)
  /// and sorted-unique extras: drops covered extras, absorbs contiguous
  /// runs, drops zero watermarks.
  void canonicalise(Watermarks&& watermarks, Extras&& extras);

  Watermarks::const_iterator find_watermark(NodeId origin) const;

  Watermarks watermarks_;
  Extras extras_;
};

}  // namespace fastcons

#endif  // FASTCONS_REPLICATION_SUMMARY_VECTOR_HPP
