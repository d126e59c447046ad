// DurableStore: one replica's on-disk state — a checkpoint file plus the WAL
// suffix of updates applied since that checkpoint.
//
// Invariant: checkpoint ∪ WAL covers every update the replica ever
// acknowledged. Appends go to the WAL first; the checkpoint is rewritten
// periodically (atomic rename) and ONLY THEN is the WAL reset, so a crash
// between the two leaves the WAL overlapping the checkpoint — replay is
// idempotent (updates dedupe by id), never lossy.
//
// Note on determinism: this layer is scanned by the fastcons_lint
// determinism rule — no clocks, no unordered containers, no ambient
// randomness. Recovery timing is measured by the caller (src/net), which is
// outside the digest-bearing set.
#ifndef FASTCONS_DURABILITY_STORE_HPP
#define FASTCONS_DURABILITY_STORE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "durability/wal.hpp"

namespace fastcons {

/// When WAL appends reach the disk platter.
enum class FsyncPolicy : std::uint8_t {
  none,    ///< OS page cache decides; a *power* failure may lose the tail
  always,  ///< fdatasync after every append batch
};

struct DurabilityConfig {
  /// Directory holding this replica's `wal.log` and `checkpoint.bin`.
  /// Empty string disables durability entirely.
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::none;
  /// Rewrite the checkpoint (and reset the WAL) after this many records
  /// accumulate in the log. 0 disables periodic checkpoints (WAL grows
  /// until an explicit checkpoint).
  std::uint64_t checkpoint_every = 4096;

  bool enabled() const noexcept { return !dir.empty(); }
};

/// What recovery found on disk.
struct RecoveryStats {
  bool had_checkpoint = false;
  bool wal_torn_tail = false;         ///< trailing bytes discarded on replay
  std::uint64_t checkpoint_updates = 0;  ///< payloads in the checkpoint image
  std::uint64_t wal_records = 0;      ///< valid WAL records replayed
  std::uint64_t wal_bytes = 0;        ///< valid WAL prefix length

  bool recovered_anything() const noexcept {
    return had_checkpoint || wal_records > 0;
  }
};

class DurableStore {
 public:
  /// Creates `config.dir` if needed and opens the WAL for appending.
  /// Requires config.enabled().
  explicit DurableStore(DurabilityConfig config);

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Reads checkpoint + WAL into one snapshot for `self` (WAL updates are
  /// folded into snapshot.updates; ReplicaEngine::restore dedupes and
  /// re-derives the write counter). A torn WAL tail is truncated away on
  /// disk so subsequent appends extend the valid prefix. A checkpoint
  /// recorded by a different node id is treated as corrupt (ignored).
  EngineSnapshot recover(NodeId self, RecoveryStats& stats);

  /// Appends updates to the WAL (one framed record each), honouring the
  /// fsync policy. Safe to call with an empty batch (no-op).
  void append(const std::vector<Update>& updates);

  /// True when the log has grown past checkpoint_every records.
  bool checkpoint_due() const noexcept {
    return config_.checkpoint_every > 0 &&
           records_since_checkpoint_ >= config_.checkpoint_every;
  }

  /// Writes `snapshot` atomically, then resets the WAL. Ordering matters:
  /// the WAL shrinks only after the checkpoint rename is durable.
  void write_checkpoint(const EngineSnapshot& snapshot);

  std::uint64_t wal_bytes() const noexcept { return wal_->size(); }
  std::uint64_t records_since_checkpoint() const noexcept {
    return records_since_checkpoint_;
  }
  const DurabilityConfig& config() const noexcept { return config_; }

 private:
  std::string wal_path() const { return config_.dir + "/wal.log"; }
  std::string checkpoint_path() const { return config_.dir + "/checkpoint.bin"; }

  DurabilityConfig config_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t records_since_checkpoint_ = 0;
  std::vector<std::uint8_t> scratch_;  ///< reused append encode buffer
};

}  // namespace fastcons

#endif  // FASTCONS_DURABILITY_STORE_HPP
