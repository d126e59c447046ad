// Unit tests for the durability layer: WAL framing/replay, checkpoint
// encode/decode/atomicity, DurableStore recovery (including the
// checkpoint/WAL overlap a crash between checkpoint-rename and WAL-reset
// leaves behind), and the ReplicaEngine snapshot/restore contract the
// whole layer is built on. Disk tests write under a scratch directory in
// the build tree and clean it per test.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "durability/checkpoint.hpp"
#include "durability/crc32.hpp"
#include "durability/store.hpp"
#include "durability/wal.hpp"

namespace fastcons {
namespace {

namespace fs = std::filesystem;

Update make_update(NodeId origin, SeqNo seq, const std::string& key,
                   const std::string& value) {
  Update u;
  u.id = {origin, seq};
  u.created_at = 0.125 * static_cast<double>(seq);
  u.key = key;
  u.value = value;
  return u;
}

std::vector<std::uint8_t> encode_all(const std::vector<Update>& updates) {
  std::vector<std::uint8_t> image;
  for (const Update& u : updates) encode_wal_record(image, u);
  return image;
}

/// Scratch directory under the test's working directory (the build tree),
/// wiped on construction and destruction so reruns never see stale state.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path("durability-test-scratch") / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void dump(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------ WAL ----

TEST(WalTest, EncodeScanRoundTripPreservesOrderAndPayloads) {
  const std::vector<Update> updates = {
      make_update(1, 1, "a", "1"),
      make_update(2, 7, "", std::string(300, 'x')),  // empty key, long value
      make_update(1, 2, "a", "overwrite"),
  };
  const std::vector<std::uint8_t> image = encode_all(updates);
  const WalScanResult scan = scan_wal(image);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.records, updates.size());
  ASSERT_EQ(scan.updates.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(scan.updates[i].id, updates[i].id) << i;
    EXPECT_EQ(scan.updates[i].key, updates[i].key) << i;
    EXPECT_EQ(scan.updates[i].value, updates[i].value) << i;
    EXPECT_EQ(scan.updates[i].created_at, updates[i].created_at) << i;
  }
}

TEST(WalTest, EmptyAndGarbageImagesScanCleanly) {
  EXPECT_EQ(scan_wal({}).records, 0u);
  EXPECT_FALSE(scan_wal({}).torn_tail);

  std::vector<std::uint8_t> garbage(64, 0xAB);
  const WalScanResult scan = scan_wal(garbage);
  EXPECT_EQ(scan.records, 0u);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_TRUE(scan.torn_tail);
}

TEST(WalTest, TornTailKeepsTheValidPrefix) {
  const std::vector<Update> updates = {make_update(1, 1, "k1", "v1"),
                                       make_update(1, 2, "k2", "v2")};
  std::vector<std::uint8_t> image = encode_all(updates);
  const std::size_t full = image.size();
  // Cut the second record anywhere — mid-header or mid-payload — and the
  // first must still replay with the tail flagged torn.
  for (const std::size_t keep :
       {full - 1, full - 5, full / 2 + 9, full / 2 + 3}) {
    std::vector<std::uint8_t> torn(image.begin(),
                                   image.begin() + static_cast<long>(keep));
    const WalScanResult scan = scan_wal(torn);
    EXPECT_TRUE(scan.torn_tail) << keep;
    ASSERT_GE(scan.updates.size(), 1u) << keep;
    EXPECT_EQ(scan.updates[0].id, updates[0].id) << keep;
    EXPECT_LE(scan.valid_bytes, keep) << keep;
  }
}

TEST(WalTest, BitFlipStopsReplayAtTheCorruptRecord) {
  const std::vector<Update> updates = {make_update(1, 1, "k1", "v1"),
                                       make_update(1, 2, "k2", "v2"),
                                       make_update(1, 3, "k3", "v3")};
  std::vector<std::uint8_t> image = encode_all(updates);
  // Flip one payload byte inside the middle record: records after the
  // corruption are unreachable (no resync marker), records before survive.
  const std::size_t first_len = encode_all({updates[0]}).size();
  image[first_len + kWalHeaderBytes + 2] ^= 0x40;
  const WalScanResult scan = scan_wal(image);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.records, 1u);
  EXPECT_EQ(scan.valid_bytes, first_len);
  ASSERT_EQ(scan.updates.size(), 1u);
  EXPECT_EQ(scan.updates[0].id, updates[0].id);
}

TEST(WalTest, ImplausibleLengthsAreCorruptionNotRecords) {
  for (const std::uint32_t bad_len : {0u, kWalMaxPayload + 1, 0xFFFFFFFFu}) {
    std::vector<std::uint8_t> image = encode_all({make_update(3, 1, "k", "v")});
    for (int i = 0; i < 4; ++i) {
      image.push_back(static_cast<std::uint8_t>(bad_len >> (8 * i)));
    }
    image.resize(image.size() + 4 + 16, 0x00);  // crc + some "payload"
    const WalScanResult scan = scan_wal(image);
    EXPECT_EQ(scan.records, 1u) << bad_len;
    EXPECT_TRUE(scan.torn_tail) << bad_len;
  }
}

TEST(WalTest, UnknownRecordTypesAreSkippedNotFatal) {
  // A CRC-valid record of a future type: replay must skip it and keep
  // decoding what follows (older binaries reading newer logs).
  std::vector<std::uint8_t> image;
  {
    std::vector<std::uint8_t> payload = {0x7F, 0x01, 0x02, 0x03};
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = crc32(payload);
    for (int i = 0; i < 4; ++i)
      image.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
    for (int i = 0; i < 4; ++i)
      image.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    image.insert(image.end(), payload.begin(), payload.end());
  }
  encode_wal_record(image, make_update(2, 9, "after", "unknown"));
  const WalScanResult scan = scan_wal(image);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records, 2u);
  ASSERT_EQ(scan.updates.size(), 1u);
  EXPECT_EQ(scan.updates[0].key, "after");
}

// ----------------------------------------------------------- checkpoint ----

EngineSnapshot sample_snapshot(NodeId self) {
  EngineSnapshot s;
  s.self = self;
  s.write_seq = 17;
  s.next_session = 5;
  s.next_offer = 3;
  s.own_demand = 42.5;
  s.updates = {make_update(self, 16, "mine", "x"),
               make_update(self, 17, "mine2", "y"),
               make_update(9, 4, "theirs", "z")};
  for (const Update& u : s.updates) s.summary.add(u.id);
  s.neighbour_demand = {{1, 80.0}, {3, 10.0}};
  return s;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  const EngineSnapshot snapshot = sample_snapshot(2);
  const std::vector<std::uint8_t> bytes = encode_checkpoint(snapshot);
  const std::optional<EngineSnapshot> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->self, snapshot.self);
  EXPECT_EQ(back->write_seq, snapshot.write_seq);
  EXPECT_EQ(back->next_session, snapshot.next_session);
  EXPECT_EQ(back->next_offer, snapshot.next_offer);
  EXPECT_EQ(back->own_demand, snapshot.own_demand);
  EXPECT_EQ(back->summary, snapshot.summary);
  ASSERT_EQ(back->updates.size(), snapshot.updates.size());
  for (std::size_t i = 0; i < snapshot.updates.size(); ++i) {
    EXPECT_EQ(back->updates[i].id, snapshot.updates[i].id) << i;
    EXPECT_EQ(back->updates[i].value, snapshot.updates[i].value) << i;
  }
  EXPECT_EQ(back->neighbour_demand, snapshot.neighbour_demand);
}

TEST(CheckpointTest, EveryByteFlipIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_snapshot(2));
  // Exhaustive single-bit-of-damage sweep: whatever byte rots — magic,
  // version, a length, a payload, the CRC itself — decode must refuse.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[i] ^= 0x01;
    EXPECT_FALSE(decode_checkpoint(damaged).has_value()) << "byte " << i;
  }
}

TEST(CheckpointTest, ShortAndTruncatedImagesAreRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_snapshot(2));
  EXPECT_FALSE(decode_checkpoint({}).has_value());
  for (const std::size_t keep : {std::size_t{1}, std::size_t{3},
                                 bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(
        bytes.begin(), bytes.begin() + static_cast<long>(keep));
    EXPECT_FALSE(decode_checkpoint(cut).has_value()) << keep;
  }
}

TEST(CheckpointTest, AtomicWriteRoundTripsAndLeavesNoTmp) {
  const ScratchDir dir("checkpoint-atomic");
  const std::string path = (dir.path() / "checkpoint.bin").string();
  write_checkpoint_atomic(path, sample_snapshot(4));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::optional<EngineSnapshot> loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->self, 4u);
  // Overwrite with a newer snapshot: the rename must replace, not append.
  EngineSnapshot next = sample_snapshot(4);
  next.write_seq = 99;
  write_checkpoint_atomic(path, next);
  loaded = load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->write_seq, 99u);
}

TEST(CheckpointTest, MissingAndCorruptFilesLoadAsNothing) {
  const ScratchDir dir("checkpoint-corrupt");
  EXPECT_FALSE(load_checkpoint((dir.path() / "nope.bin").string()));
  std::vector<std::uint8_t> bytes = encode_checkpoint(sample_snapshot(4));
  bytes[bytes.size() / 2] ^= 0xFF;
  const fs::path path = dir.path() / "checkpoint.bin";
  dump(path, bytes);
  EXPECT_FALSE(load_checkpoint(path.string()).has_value());
}

// --------------------------------------------------------- DurableStore ----

DurabilityConfig store_config(const ScratchDir& dir,
                              std::uint64_t checkpoint_every = 0) {
  DurabilityConfig cfg;
  cfg.dir = dir.str();
  cfg.checkpoint_every = checkpoint_every;
  return cfg;
}

TEST(DurableStoreTest, AppendThenRecoverReturnsEveryUpdate) {
  const ScratchDir dir("store-roundtrip");
  {
    DurableStore store(store_config(dir));
    store.append({make_update(1, 1, "a", "1"), make_update(1, 2, "b", "2")});
    store.append({make_update(5, 1, "c", "3")});
    EXPECT_EQ(store.records_since_checkpoint(), 3u);
  }
  DurableStore reopened(store_config(dir));
  RecoveryStats stats;
  const EngineSnapshot snapshot = reopened.recover(1, stats);
  EXPECT_FALSE(stats.had_checkpoint);
  EXPECT_FALSE(stats.wal_torn_tail);
  EXPECT_EQ(stats.wal_records, 3u);
  ASSERT_EQ(snapshot.updates.size(), 3u);
  EXPECT_EQ(snapshot.updates[2].id, (UpdateId{5, 1}));
  EXPECT_EQ(reopened.records_since_checkpoint(), 3u);
}

TEST(DurableStoreTest, TornTailIsTruncatedOnDiskDuringRecovery) {
  const ScratchDir dir("store-torn");
  {
    DurableStore store(store_config(dir));
    store.append({make_update(1, 1, "a", "1"), make_update(1, 2, "b", "2")});
  }
  // Simulate a crash mid-append: chop bytes off the log's tail.
  const fs::path wal = dir.path() / "wal.log";
  std::vector<std::uint8_t> image = slurp(wal);
  const std::size_t valid = scan_wal(encode_all({make_update(1, 1, "a", "1")}))
                                .valid_bytes;
  image.resize(image.size() - 3);
  dump(wal, image);

  DurableStore reopened(store_config(dir));
  RecoveryStats stats;
  const EngineSnapshot snapshot = reopened.recover(1, stats);
  EXPECT_TRUE(stats.wal_torn_tail);
  EXPECT_EQ(stats.wal_records, 1u);
  ASSERT_EQ(snapshot.updates.size(), 1u);
  // The corrupt tail is gone from disk: the file is back to the valid
  // prefix, so the next append extends replayable state.
  EXPECT_EQ(fs::file_size(wal), valid);
  reopened.append({make_update(1, 3, "after", "torn")});
  DurableStore third(store_config(dir));
  const EngineSnapshot again = third.recover(1, stats);
  EXPECT_FALSE(stats.wal_torn_tail);
  ASSERT_EQ(again.updates.size(), 2u);
  EXPECT_EQ(again.updates[1].key, "after");
}

TEST(DurableStoreTest, CheckpointResetsWalAndRecoverCombinesBoth) {
  const ScratchDir dir("store-checkpoint");
  DurableStore store(store_config(dir, 2));
  store.append({make_update(2, 1, "a", "1")});
  EXPECT_FALSE(store.checkpoint_due());
  store.append({make_update(2, 2, "b", "2")});
  EXPECT_TRUE(store.checkpoint_due());
  EngineSnapshot cp = sample_snapshot(2);
  store.write_checkpoint(cp);
  EXPECT_EQ(store.wal_bytes(), 0u);
  EXPECT_EQ(store.records_since_checkpoint(), 0u);
  EXPECT_FALSE(store.checkpoint_due());
  store.append({make_update(2, 18, "post", "cp")});

  DurableStore reopened(store_config(dir, 2));
  RecoveryStats stats;
  const EngineSnapshot snapshot = reopened.recover(2, stats);
  EXPECT_TRUE(stats.had_checkpoint);
  EXPECT_EQ(stats.checkpoint_updates, cp.updates.size());
  EXPECT_EQ(stats.wal_records, 1u);
  EXPECT_EQ(snapshot.write_seq, cp.write_seq);
  // Checkpoint payloads come first, WAL suffix after.
  ASSERT_EQ(snapshot.updates.size(), cp.updates.size() + 1);
  EXPECT_EQ(snapshot.updates.back().key, "post");
}

TEST(DurableStoreTest, CheckpointWalOverlapIsIdempotentThroughRestore) {
  // A crash between write_checkpoint_atomic's rename and the WAL reset
  // leaves every checkpointed update ALSO in the WAL. Recovery must not
  // double-apply: ReplicaEngine::restore dedupes by id.
  const ScratchDir dir("store-overlap");
  const std::vector<Update> updates = {make_update(1, 1, "k1", "v1"),
                                       make_update(4, 2, "k2", "v2")};
  {
    DurableStore store(store_config(dir));
    store.append(updates);
    EngineSnapshot cp;
    cp.self = 1;
    cp.write_seq = 1;
    cp.updates = updates;
    for (const Update& u : updates) cp.summary.add(u.id);
    // Crash before the WAL reset: write the checkpoint file directly,
    // leaving the log untouched.
    write_checkpoint_atomic((dir.path() / "checkpoint.bin").string(), cp);
  }
  DurableStore reopened(store_config(dir));
  RecoveryStats stats;
  const EngineSnapshot snapshot = reopened.recover(1, stats);
  EXPECT_TRUE(stats.had_checkpoint);
  EXPECT_EQ(stats.wal_records, 2u);
  EXPECT_EQ(snapshot.updates.size(), 4u);  // overlap present pre-restore

  ReplicaEngine engine(1, {4}, ProtocolConfig::fast(), 7);
  engine.restore(snapshot);
  EXPECT_EQ(engine.summary().total(), 2u);
  EXPECT_EQ(engine.log().all_retained().size(), 2u);
  EXPECT_EQ(engine.read("k1"), "v1");
  EXPECT_EQ(engine.read("k2"), "v2");
}

TEST(DurableStoreTest, ForeignCheckpointIsIgnored) {
  // A checkpoint recorded by another node id (copied data dir, fat-fingered
  // --data-dir) must not impersonate: recovery treats it as absent.
  const ScratchDir dir("store-foreign");
  write_checkpoint_atomic((dir.path() / "checkpoint.bin").string(),
                          sample_snapshot(8));
  DurableStore store(store_config(dir));
  RecoveryStats stats;
  const EngineSnapshot snapshot = store.recover(2, stats);
  EXPECT_FALSE(stats.had_checkpoint);
  EXPECT_EQ(snapshot.self, 2u);
  EXPECT_TRUE(snapshot.updates.empty());
}

// ------------------------------------------------- engine snapshot hooks ----

TEST(EngineSnapshotTest, SnapshotRestoreReproducesStateAndResumesWriteSeq) {
  ReplicaEngine original(0, {1, 2}, ProtocolConfig::fast(), 11);
  original.set_own_demand(33.0);
  original.prime_neighbour_demand(1, 80.0, 0.0);
  original.prime_neighbour_demand(2, 5.0, 0.0);
  original.local_write("x", "1", 0.1);
  original.local_write("y", "2", 0.2);
  // A remote update so the snapshot covers more than self-origin state.
  Update remote = make_update(2, 1, "z", "3");
  SessionPush push;
  push.session_id = 1;
  push.updates = {remote};
  original.handle(2, Message{push}, 0.3);

  const EngineSnapshot snapshot = original.snapshot();
  EXPECT_EQ(snapshot.write_seq, 2u);
  ASSERT_EQ(snapshot.neighbour_demand.size(), 2u);

  ReplicaEngine restored(0, {1, 2}, ProtocolConfig::fast(), 999);
  restored.restore(snapshot);
  EXPECT_EQ(restored.summary(), original.summary());
  EXPECT_EQ(restored.log().kv_digest(), original.log().kv_digest());
  EXPECT_EQ(restored.read("x"), "1");
  EXPECT_EQ(restored.read("z"), "3");
  // The origin counter resumes: the next write must not reuse seq 1 or 2.
  EXPECT_EQ(restored.write_seq(), 2u);
  restored.local_write("w", "4", 1.1);
  EXPECT_TRUE(restored.log().contains({0, 3}));
  // Restored neighbour demand orders catch-up hot-first.
  const std::vector<NodeId> order = restored.demand_table().by_demand_desc(1.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
}

TEST(EngineSnapshotTest, RestoreDoesNotFireDeliveryHooks) {
  ReplicaEngine original(0, {1}, ProtocolConfig::fast(), 3);
  original.local_write("k", "v", 0.0);
  std::size_t deliveries = 0;
  ReplicaEngine restored(0, {1}, ProtocolConfig::fast(), 3);
  EngineHooks hooks;
  hooks.on_delivery = [&deliveries](const Update&, DeliveryPath, SimTime) {
    ++deliveries;
  };
  restored.set_hooks(std::move(hooks));
  restored.restore(original.snapshot());
  // Restored updates were delivered before the crash; replaying the hook
  // would double-count them in any observer (including the WAL appender,
  // which would then re-log every recovered update).
  EXPECT_EQ(deliveries, 0u);
  EXPECT_EQ(restored.read("k"), "v");
}

}  // namespace
}  // namespace fastcons
