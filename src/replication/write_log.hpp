// The replica write log: stores update payloads and answers "which of my
// updates does this summary not cover" (anti-entropy step 7/10) and "give me
// these ids" (fast-update step 17).
//
// Bayou-style log truncation (discussed as related work in paper §7) is
// supported as an extension: updates below a stability watermark can be
// discarded once every peer is known to have them; a session with a partner
// whose summary predates the truncation point falls back to a full-state
// transfer of the key-value store.
#ifndef FASTCONS_REPLICATION_WRITE_LOG_HPP
#define FASTCONS_REPLICATION_WRITE_LOG_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "replication/summary_vector.hpp"
#include "replication/update.hpp"

namespace fastcons {

/// Append-only (modulo truncation) store of updates plus the materialised
/// key-value state they produce.
class WriteLog {
 public:
  /// Inserts an update. Returns true when the update was new. Applying is
  /// idempotent; re-inserting a known id is a no-op.
  bool apply(const Update& update);

  /// Move-in variant for the dispatch hot path: the payload strings are
  /// moved, not copied. Returns the stored update, or nullptr when the id
  /// was already known (in which case `update` is left untouched). The
  /// pointer is invalidated by the next apply/truncate.
  const Update* apply_moved(Update&& update);

  bool contains(UpdateId id) const;

  /// Payload lookup; nullopt when unknown or truncated away.
  std::optional<Update> get(UpdateId id) const;

  /// Borrowed payload lookup; nullptr when unknown or truncated away. The
  /// pointer is invalidated by the next apply/truncate.
  const Update* find(UpdateId id) const;

  /// The summary of everything ever applied (truncation does not shrink it).
  const SummaryVector& summary() const noexcept { return summary_; }

  /// Updates covered by us but not by `their_summary`, ordered by
  /// (origin, seq). Ids that were truncated away are reported through
  /// `missing_truncated` (callers then fall back to full-state transfer).
  std::vector<Update> updates_for(const SummaryVector& their_summary,
                                  std::vector<UpdateId>* missing_truncated =
                                      nullptr) const;

  /// Materialised value of `key`: the value written by the update with the
  /// highest (created_at, origin, seq) among writes to that key
  /// (last-writer-wins with a total tie-break).
  std::optional<std::string> read(const std::string& key) const;

  /// All keys with a value.
  std::vector<std::string> keys() const;

  /// Number of retained (non-truncated) updates.
  std::size_t size() const noexcept { return updates_.size(); }

  /// Total updates ever applied (== summary().total()).
  std::uint64_t applied_total() const noexcept { return summary_.total(); }

  /// Discards payloads covered by `stable`: every peer is known to hold
  /// them, so no session will ever need them again (unless a partner's
  /// summary regresses — see updates_for's fallback). Returns the number of
  /// payloads discarded.
  std::size_t truncate_below(const SummaryVector& stable);

  /// Updates currently retained, in (origin, seq) order.
  std::vector<Update> all_retained() const;

  /// Bulk-load for recovery: applies `updates` idempotently (a WAL suffix
  /// may overlap the checkpoint image) and then merges `cover` into the
  /// summary, so updates that were truncated before the checkpoint stay
  /// covered even though their payloads are gone.
  void restore(std::vector<Update> updates, const SummaryVector& cover);

  /// Order-independent FNV-1a digest of the materialised key-value state
  /// (keys iterated in sorted order). Two replicas that have applied the
  /// same update set — by any route, including crash recovery — produce the
  /// same digest.
  std::uint64_t kv_digest() const noexcept;

  /// Forgets every update, value and summary entry, retaining the vectors'
  /// capacity — the pooled-engine reset path (ReplicaEngine::reset).
  void clear() noexcept {
    updates_.clear();
    kv_.clear();
    summary_.clear();
  }

 private:
  struct KeyState {
    // Ordering key for last-writer-wins.
    SimTime written_at = -1.0;
    UpdateId by;
    std::string value;
  };

  // Updates in flat sorted storage: a replica log is mutated once per
  // applied update but consulted on every session, ids mostly arrive in
  // order (so inserts append), and sorted-by-id updates make
  // all_retained() a plain copy.
  std::vector<Update> updates_;  // sorted by id
  SummaryVector summary_;
  // The key-value state is a tree: keys arrive in no particular order, so
  // a sorted vector would move the whole map for every new key (0.1–1 ms
  // at 16k keys). The tree inserts in O(log n) and iterates in key order,
  // which kv_digest() and keys() rely on.
  std::map<std::string, KeyState> kv_;
};

}  // namespace fastcons

#endif  // FASTCONS_REPLICATION_WRITE_LOG_HPP
