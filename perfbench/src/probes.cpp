// Standalone layer probes: the wire codec and the durable store driven with
// the live workloads' update shape, outside any cluster, so their cost per
// frame or per append is measured without loop or lock interference.
#include <filesystem>
#include <string>
#include <vector>

#include "durability/crc32.hpp"
#include "durability/store.hpp"
#include "net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using fastcons::Message;
using fastcons::SummaryVector;
using fastcons::Update;
using fastcons::UpdateId;

Update make_update(const UpdateShape& shape, std::uint64_t seq) {
  Update u;
  u.id = UpdateId{0, seq};
  u.created_at = static_cast<double>(seq) * 0.1;
  u.key = std::string(shape.key_bytes, 'k');
  u.value = std::string(shape.value_bytes, 'v');
  return u;
}

SummaryVector summary_through(std::uint64_t seq) {
  SummaryVector s;
  for (std::uint64_t i = 1; i <= seq; ++i) s.add(UpdateId{0, i});
  return s;
}

/// The frames one fast-pushed write produces on a hop (offer, ack, data),
/// plus one anti-entropy session's frames and a demand advert.
std::vector<Message> workload_frames(const UpdateShape& shape) {
  const std::uint64_t seq = 4096;
  const SummaryVector summary = summary_through(seq);
  std::vector<Message> msgs;
  msgs.emplace_back(fastcons::FastOffer{7, {fastcons::OfferedId{UpdateId{0, seq}, 1.5}}});
  msgs.emplace_back(fastcons::FastAck{7, true, {}});
  msgs.emplace_back(fastcons::FastData{7, {make_update(shape, seq)}});
  msgs.emplace_back(fastcons::SessionRequest{9});
  msgs.emplace_back(fastcons::SessionSummary{9, summary});
  msgs.emplace_back(fastcons::SessionPush{9, summary, {}});
  msgs.emplace_back(fastcons::SessionReply{9, {}});
  msgs.emplace_back(fastcons::DemandAdvert{50.0});
  return msgs;
}

}  // namespace

void probe_wire(const UpdateShape& shape, double seconds, Result& result) {
  const std::vector<Message> msgs = workload_frames(shape);

  std::uint64_t encoded = 0;
  std::size_t sink = 0;
  double start = now_s();
  while (now_s() - start < seconds) {
    for (const Message& m : msgs) sink += fastcons::encode_frame(1, m).size();
    encoded += msgs.size();
  }
  const double encode_s = now_s() - start;

  std::vector<std::uint8_t> stream;
  for (const Message& m : msgs) {
    const std::vector<std::uint8_t> f = fastcons::encode_frame(1, m);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  std::uint64_t decoded = 0;
  fastcons::FrameReader reader;
  start = now_s();
  while (now_s() - start < seconds) {
    reader.feed(stream);
    while (auto frame = reader.next()) {
      sink += frame->sender;
      ++decoded;
    }
  }
  const double decode_s = now_s() - start;
  if (sink == 0 || decoded == 0) result.fail("wire probe: nothing decoded");
  result.metric("wire.encode_ns_per_frame",
                encode_s * 1e9 / static_cast<double>(encoded), "ns");
  result.metric("wire.decode_ns_per_frame",
                decode_s * 1e9 / static_cast<double>(decoded), "ns");
}

void probe_durability(const UpdateShape& shape, const std::string& dir,
                      std::uint64_t checkpoint_every, std::size_t appends,
                      Result& result) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fastcons::DurabilityConfig cfg;
  cfg.dir = dir;
  cfg.fsync = fastcons::FsyncPolicy::always;
  cfg.checkpoint_every = 0;  // checkpoints are timed separately below

  std::vector<double> append_s;
  std::vector<double> checkpoint_s;
  {
    fastcons::DurableStore store(cfg);
    fastcons::RecoveryStats stats;
    store.recover(2, stats);
    // One update per batch: at the durable probe's rate each loop turn's
    // group commit carries about one update.
    std::vector<Update> batch(1);
    for (std::size_t i = 0; i < appends; ++i) {
      batch[0] = make_update(shape, i + 1);
      const double t0 = now_s();
      store.append(batch);
      append_s.push_back(now_s() - t0);
    }
    // Checkpoints of the state a node holds after checkpoint_every writes.
    fastcons::EngineSnapshot snap;
    snap.self = 2;
    snap.summary = summary_through(checkpoint_every);
    for (std::uint64_t s = 1; s <= checkpoint_every; ++s) {
      snap.updates.push_back(make_update(shape, s));
    }
    for (int i = 0; i < 5; ++i) {
      const double t0 = now_s();
      store.write_checkpoint(snap);
      checkpoint_s.push_back(now_s() - t0);
    }
    // A one-record WAL suffix for recovery to replay on top.
    batch[0] = make_update(shape, checkpoint_every + 1);
    store.append(batch);
  }
  std::vector<double> recover_s;
  for (int i = 0; i < 5; ++i) {
    fastcons::DurableStore store(cfg);
    fastcons::RecoveryStats stats;
    const double t0 = now_s();
    const fastcons::EngineSnapshot snap = store.recover(2, stats);
    recover_s.push_back(now_s() - t0);
    if (snap.updates.size() != checkpoint_every + 1) {
      result.fail("durability probe: recovered " +
                  std::to_string(snap.updates.size()) + " updates, expected " +
                  std::to_string(checkpoint_every + 1));
    }
  }
  fs::remove_all(dir);

  std::vector<std::uint8_t> buf(1 << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131u);
  }
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;
  const double start = now_s();
  while (now_s() - start < 0.1) {
    crc = fastcons::crc32(buf, crc);
    bytes += buf.size();
  }
  const double crc_s = now_s() - start;
  if (crc == 0) result.fail("durability probe: degenerate crc");

  const Summary append = summarize(append_s);
  result.metric("durability.append_us_p50", append.p50 * 1e6, "us");
  result.metric("durability.append_us_p99", append.p99 * 1e6, "us");
  result.metric("durability.checkpoint_ms", median(checkpoint_s) * 1e3, "ms");
  result.metric("durability.recover_ms", median(recover_s) * 1e3, "ms");
  result.metric("durability.crc_ns_per_byte",
                crc_s * 1e9 / static_cast<double>(bytes), "ns");
}

}  // namespace perfbench
