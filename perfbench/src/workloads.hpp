// The benchmark's workloads. Each runs in its own process (main.cpp picks
// one per invocation), so process-wide readings such as peak RSS and CPU
// time belong to that workload alone.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <array>
#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "stats/counters.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  /// Length of the timed window.
  double seconds = 12.0;
  /// Traced run: record spans and report the per-layer metrics.
  bool trace = false;
  /// Seconds-long smoke run: tiny windows, no sample-size requirement.
  bool quick = false;
  /// Directory for durable replica state and probe files; removed and
  /// recreated by the runner around each invocation.
  std::string scratch;
  /// Where a traced run writes its spans as CSV ("" keeps them in memory
  /// only).
  std::string trace_out;
  /// Expected sim-ba1k result digest for the default seed (required there).
  std::string pinned_digest;
};

/// The protocol's traffic classes, named as the benchmark's metrics name
/// them.
struct TrafficClassName {
  fastcons::TrafficClass cls;
  const char* name;
};
inline constexpr std::array<TrafficClassName, 5> kTrafficClasses = {{
    {fastcons::TrafficClass::session_control, "session_control"},
    {fastcons::TrafficClass::session_payload, "session_payload"},
    {fastcons::TrafficClass::fast_control, "fast_control"},
    {fastcons::TrafficClass::fast_payload, "fast_payload"},
    {fastcons::TrafficClass::demand_advert, "demand_advert"},
}};

/// The seed whose sim-ba1k result digest is pinned.
inline constexpr std::uint64_t kDigestSeed = 42;

/// Registered `large-scale` scenario, ba-1024 weak and fast points only.
void run_sim_ba1k(const Options& options, Result& result);

/// In-memory 3-node line, demand rising away from the writer, closed loop.
/// Its traced run adds the durability probes: a durable 3-node line (fsync
/// always) written at 500 writes/s with kill/recover cycles of the far
/// node, and probe_durability below.
void run_live_saturate(const Options& options, Result& result);

// Standalone layer probes (probes.cpp), run in traced mode only.

/// Shape of the updates a workload writes.
struct UpdateShape {
  std::size_t key_bytes = 8;
  std::size_t value_bytes = 16;
};

/// wire.encode_ns_per_frame and wire.decode_ns_per_frame over the frame mix
/// a fast-push write produces (offer, ack, data) plus session and advert
/// traffic between three replicas.
void probe_wire(const UpdateShape& shape, double seconds, Result& result);

/// durability.append_us_p50|p99, checkpoint_ms, recover_ms and
/// crc_ns_per_byte from a standalone DurableStore in `dir` with fsync
/// always, one update per append batch, and `checkpoint_every` records per
/// checkpoint.
void probe_durability(const UpdateShape& shape, const std::string& dir,
                      std::uint64_t checkpoint_every, std::size_t appends,
                      Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
