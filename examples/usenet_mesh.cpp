// Usenet-style news mesh — the workload the paper's introduction motivates
// ("This is the case of Usenet news"): many servers, articles posted at
// different servers over time, weakly-consistent flooding between peers.
//
// Forty servers on an Internet-like topology exchange articles; reader
// demand is Zipf-distributed (a few very popular servers). We post a stream
// of articles from random servers and measure how quickly readers — weighted
// by demand — can see them, under all three algorithms. Also demonstrates
// Bayou-style write-log truncation once articles are everywhere.
//
//   $ ./examples/usenet_mesh
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "demand/demand_model.hpp"
#include "sim_runtime/sim_network.hpp"
#include "stats/online_stats.hpp"
#include "stats/service_metrics.hpp"
#include "topology/generators.hpp"

int main() {
  using namespace fastcons;

  const std::size_t n = 40;
  const std::size_t articles = 25;
  std::printf("usenet mesh: %zu servers, %zu articles, Zipf reader demand\n\n",
              n, articles);

  std::printf("%-14s %22s %22s %14s\n", "algorithm",
              "weighted delay (sess.)", "mean delay (sessions)",
              "consistent?");
  for (const char* name : {"weak", "demand-order", "fast"}) {
    const ProtocolConfig protocol = *protocol_preset(name);

    Rng rng(99);
    Graph topology = make_barabasi_albert(n, 2, {0.01, 0.05}, rng);
    auto demand = std::make_shared<StaticDemand>(
        make_zipf_demand(n, /*s=*/1.0, /*scale=*/100.0, rng));
    SimConfig config;
    config.protocol = protocol;
    config.seed = 7;
    SimNetwork net(std::move(topology), demand, config);

    // Post articles from random servers, one every half session period.
    std::vector<std::pair<UpdateId, SimTime>> posts;
    Rng post_rng(5);
    for (std::size_t a = 0; a < articles; ++a) {
      const auto at = 0.5 + 0.5 * static_cast<double>(a);
      const auto server = static_cast<NodeId>(post_rng.index(n));
      posts.emplace_back(net.schedule_write(
                             server, "article/" + std::to_string(a),
                             "posted-by-" + std::to_string(server), at),
                         at);
    }
    net.run_until(0.5 * static_cast<double>(articles) + 25.0);

    OnlineStats weighted, unweighted;
    const auto demands = net.demand_now();
    for (const auto& [id, posted_at] : posts) {
      std::vector<std::optional<SimTime>> delivery(net.size());
      for (NodeId node = 0; node < net.size(); ++node) {
        const auto at = net.first_delivery(node, id);
        if (at.has_value()) delivery[node] = *at - posted_at;
      }
      weighted.add(demand_weighted_mean_delay(delivery, demands, 25.0));
      double sum = 0.0;
      for (const auto& d : delivery) sum += d.value_or(25.0);
      unweighted.add(sum / static_cast<double>(net.size()));
    }
    std::printf("%-14s %22.3f %22.3f %14s\n", name, weighted.mean(),
                unweighted.mean(), net.all_consistent() ? "yes" : "NO");
  }

  // Log truncation: once every server holds every article, payloads below
  // the stability frontier can be discarded (paper §7 discusses Bayou's
  // truncation policies; this library implements the safe variant).
  {
    Rng rng(123);
    Graph topology = make_ring(6, {0.01, 0.02}, rng);
    auto demand = std::make_shared<StaticDemand>(std::vector<double>(6, 1.0));
    SimConfig config;
    config.protocol = ProtocolConfig::fast();
    config.seed = 3;
    SimNetwork net(std::move(topology), demand, config);
    const UpdateId id = net.schedule_write(0, "old-news", "stale", 0.5);
    net.run_until_update_everywhere(id, 30.0);
    // Everyone has it: the global summary is the stability frontier.
    // (A deployment would gossip summaries; here we read them directly.)
    // Truncate on node 3 and show a later session still works.
    auto& engine = net.engine(3);
    const std::size_t discarded = engine.truncate_log_below(engine.summary());
    std::printf("\ntruncation demo: node 3 discarded %zu payload(s); summary"
                " still covers the id: %s\n",
                discarded,
                engine.summary().contains(id) ? "yes" : "NO");
  }
  return 0;
}
