// CDN flash-crowd scenario: the dynamic-demand algorithm of paper §3-4.
//
// A 6x5 grid of edge caches replicates content from an origin. A flash
// crowd forms around one region, then abruptly migrates to the opposite
// corner (think: a story breaking in another timezone). Demand adverts keep
// neighbour tables fresh, so fast-consistency keeps routing new versions of
// the object toward whichever region is currently hot.
//
// The example compares weak consistency with fast consistency on the
// demand-weighted freshness delay each crowd experiences.
//
//   $ ./examples/cdn_flash_crowd
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "demand/demand_model.hpp"
#include "sim_runtime/sim_network.hpp"
#include "stats/service_metrics.hpp"
#include "topology/generators.hpp"
#include "topology/metrics.hpp"

namespace {

using namespace fastcons;

struct RunResult {
  double early_delay;  // weighted freshness delay of the first version
  double late_delay;   // ... of the version published after the migration
};

RunResult run(const ProtocolConfig& protocol, std::uint64_t seed) {
  Rng rng(seed);
  Graph grid = make_grid(6, 5, {0.01, 0.03}, rng);
  const NodeId origin = 14;        // centre-ish node publishes content
  const NodeId crowd_a = 0;        // top-left region is hot first
  const NodeId crowd_b = 29;       // bottom-right region afterwards
  const SimTime migration = 6.0;

  auto demand = std::make_shared<MigratingHotspotDemand>(
      bfs_hops(grid, crowd_a), bfs_hops(grid, crowd_b), migration,
      /*peak=*/120.0, /*base=*/2.0);

  SimConfig config;
  config.protocol = protocol;
  config.protocol.advert_period = 0.25;  // the §4 "routing-style" refresh
  config.seed = seed;
  SimNetwork net(std::move(grid), demand, config);

  const UpdateId early = net.schedule_write(origin, "object", "v1", 1.0);
  const UpdateId late = net.schedule_write(origin, "object", "v2",
                                           migration + 1.0);
  net.run_until(migration + 30.0);

  const auto weighted_delay = [&](UpdateId id, SimTime written_at,
                                  SimTime snapshot) {
    std::vector<std::optional<SimTime>> delivery(net.size());
    for (NodeId n = 0; n < net.size(); ++n) {
      const auto at = net.first_delivery(n, id);
      if (at.has_value()) delivery[n] = *at - written_at;
    }
    return demand_weighted_mean_delay(delivery,
                                      demand_snapshot(*demand, snapshot),
                                      20.0);
  };
  return RunResult{weighted_delay(early, 1.0, 1.0),
                   weighted_delay(late, migration + 1.0, migration + 1.0)};
}

}  // namespace

int main() {
  using namespace fastcons;

  std::puts("CDN flash crowd: 6x5 edge grid, hotspot migrates at t=6");
  std::puts("metric: demand-weighted freshness delay (sessions), lower is"
            " better\n");
  std::printf("%-18s %18s %18s\n", "algorithm", "v1 (crowd at A)",
              "v2 (crowd at B)");

  double weak_late = 0.0, fast_late = 0.0;
  const int kRuns = 20;
  for (const char* name : {"weak", "fast"}) {
    double early_sum = 0.0, late_sum = 0.0;
    for (int i = 0; i < kRuns; ++i) {
      const ProtocolConfig protocol = std::string(name) == "weak"
                                          ? ProtocolConfig::weak()
                                          : ProtocolConfig::fast();
      const RunResult r = run(protocol, 1000 + i);
      early_sum += r.early_delay;
      late_sum += r.late_delay;
    }
    std::printf("%-18s %18.3f %18.3f\n", name, early_sum / kRuns,
                late_sum / kRuns);
    (std::string(name) == "weak" ? weak_late : fast_late) = late_sum / kRuns;
  }

  std::printf("\nfast serves the migrated crowd %.1fx fresher than weak\n",
              weak_late / fast_late);
  std::puts("(the dynamic demand tables redirect pushes to region B after"
            " the migration)");
  return 0;
}
