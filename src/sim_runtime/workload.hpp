// Client read/write workload simulation on top of SimNetwork.
//
// The propagation harness measures the paper's session-count metric; this
// one measures what clients actually experience: reads arrive at each
// replica as a Poisson process with rate equal to its demand (the paper's
// definition — "the demand of a server is measured as the number of service
// requests by their clients per time unit"), writes arrive on a configurable
// schedule, and every read is classified as fresh or stale depending on
// whether the serving replica already holds the globally newest write of
// the requested key.
#ifndef FASTCONS_SIM_RUNTIME_WORKLOAD_HPP
#define FASTCONS_SIM_RUNTIME_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "demand/demand_model.hpp"
#include "sim_runtime/sim_network.hpp"
#include "stats/online_stats.hpp"

namespace fastcons {

struct WorkloadConfig {
  /// Keys written round-robin by the write schedule and read uniformly by
  /// clients.
  std::size_t keys = 4;

  /// Mean time between writes (Poisson); each write originates at a
  /// uniformly random replica.
  SimTime write_interval = 2.0;

  /// Total simulated duration.
  SimTime duration = 40.0;

  /// Warm-up prefix excluded from the statistics.
  SimTime warmup = 5.0;

  std::uint64_t seed = 1;
};

struct WorkloadResult {
  std::uint64_t reads = 0;
  std::uint64_t fresh_reads = 0;
  std::uint64_t writes = 0;

  /// Staleness of stale reads: age (in session periods) of the missing
  /// newest write at the serving replica when the read happened.
  OnlineStats stale_age;

  double fresh_fraction() const {
    return reads == 0 ? 1.0
                      : static_cast<double>(fresh_reads) /
                            static_cast<double>(reads);
  }
};

/// Runs the workload on the network acquired from `pool` (built by the
/// first run on a pool, reset after; results are bit-identical either way).
/// Reads are evaluated analytically against the global write history (no
/// read messages are simulated — a read is served locally by the replica's
/// materialised state, exactly as in the paper's model).
WorkloadResult run_workload(Graph topology,
                            std::shared_ptr<const DemandModel> demand,
                            const SimConfig& sim_config,
                            const WorkloadConfig& workload,
                            SimNetworkPool& pool);

}  // namespace fastcons

#endif  // FASTCONS_SIM_RUNTIME_WORKLOAD_HPP
