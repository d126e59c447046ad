// fastcons-sim — run a propagation experiment from the command line, no C++
// required. Prints the same summary block the figure benches produce.
//
// Usage:
//   fastcons-sim [--topology ba|er|waxman|line|ring|grid|star|tree|complete]
//                [--nodes N] [--algorithm fast|demand-order|weak]
//                [--reps R] [--seed S] [--demand uniform|zipf]
//                [--fanout K] [--loss P] [--high-fraction F] [--cdf]
//
// Examples:
//   fastcons-sim --topology ba --nodes 50 --algorithm fast --reps 10000
//   fastcons-sim --topology grid --nodes 49 --algorithm weak --cdf
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/types.hpp"
#include "harness/runner.hpp"
#include "harness/scenarios.hpp"
#include "stats/table.hpp"
#include "topology/metrics.hpp"

namespace {

using namespace fastcons;
using namespace fastcons::harness;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topology ba|er|waxman|line|ring|grid|star|tree|"
               "complete] [--nodes N] [--algorithm fast|demand-order|weak] "
               "[--reps R] [--seed S] [--demand uniform|zipf] [--fanout K] "
               "[--loss P] [--high-fraction F] [--cdf]\n",
               argv0);
  std::exit(2);
}

/// A malformed or out-of-range flag value: exit 2 naming the flag.
[[noreturn]] void bad_value(const std::string& flag, const std::string& text) {
  std::fprintf(stderr, "fastcons-sim: bad %s value: %s\n", flag.c_str(),
               text.c_str());
  std::exit(2);
}

/// The metric called `name` in one of a PointResult's name/value lists.
template <typename T>
const T& metric(const std::vector<std::pair<std::string, T>>& entries,
                const std::string& name) {
  for (const auto& [key, value] : entries) {
    if (key == name) return value;
  }
  throw Error("missing result metric " + name);
}

}  // namespace

int main(int argc, char** argv) {
  std::string topology = "ba";
  std::string algorithm = "fast";
  std::string demand_kind = "uniform";
  std::size_t nodes = 50;
  std::size_t reps = 1000;
  std::uint64_t seed = 42;
  std::size_t fanout = 1;
  double loss = 0.0;
  double high_fraction = 0.10;
  bool print_cdf = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto count = [&](std::uint64_t min, std::uint64_t max) {
      const std::string text = value();
      const auto n = parse_u64(text, max);
      if (!n || *n < min) bad_value(arg, text);
      return *n;
    };
    const auto real = [&](double lo = -HUGE_VAL, double hi = HUGE_VAL) {
      const std::string text = value();
      const auto x = parse_double(text);
      if (!x || !(*x >= lo && *x < hi)) bad_value(arg, text);
      return *x;
    };
    if (arg == "--topology") topology = value();
    else if (arg == "--nodes") nodes = count(1, kInvalidNode);
    else if (arg == "--algorithm") algorithm = value();
    else if (arg == "--reps") reps = count(1, UINT64_MAX);
    else if (arg == "--seed") seed = count(0, UINT64_MAX);
    else if (arg == "--demand") demand_kind = value();
    else if (arg == "--fanout") fanout = count(1, kInvalidNode);
    else if (arg == "--loss") loss = real(0.0, 1.0);
    else if (arg == "--high-fraction") high_fraction = real();
    else if (arg == "--cdf") print_cdf = true;
    else usage(argv[0]);
  }

  try {
    DemandFactory demand;
    if (demand_kind == "uniform") {
      demand = uniform_demand();
    } else if (demand_kind == "zipf") {
      demand = [](const Graph& g, Rng& rng) {
        return std::make_shared<StaticDemand>(
            make_zipf_demand(g.size(), 1.0, 100.0, rng));
      };
    } else {
      throw ConfigError("unknown demand kind: " + demand_kind);
    }
    ProtocolConfig protocol = algorithm_config(algorithm);
    protocol.fast_fanout = fanout;

    // One sweep point through the runner every scenario uses: trial seeds
    // come from derive_trial_seed and trials fan out over every core, with
    // numbers identical for any core count.
    SweepPoint point;
    point.tags = {{"topo", topology}};
    point.params = {{"n", static_cast<double>(nodes)},
                    {"high_demand_fraction", high_fraction}};
    if (topology == "grid") {
      const double side = std::floor(std::sqrt(static_cast<double>(nodes)));
      point.params.insert(point.params.end(), {{"w", side}, {"h", side}});
    }
    if (loss > 0.0) point.params.emplace_back("fault_loss", loss);
    ScenarioSpec spec;
    spec.name = "fastcons-sim";
    spec.sweep = {point};
    spec.trials = reps;
    spec.run = [protocol, demand](const SweepPoint& p, std::uint64_t s,
                                  TrialContext& ctx) {
      return propagation_trial(p, s, protocol, demand, ctx);
    };
    RunOptions options;
    options.jobs = 0;
    options.base_seed = seed;

    // Structural context from one sample topology.
    Rng probe(seed);
    const Graph sample = topology_from_point(point)(probe);
    std::printf("fastcons-sim: %s, %zu nodes (diameter %zu), %s demand, "
                "algorithm %s, %zu reps, loss %.2f\n",
                topology.c_str(), sample.size(), diameter(sample),
                demand_kind.c_str(), algorithm.c_str(), reps, loss);

    const PointResult result = run_scenario(spec, options).points.at(0);
    const EmpiricalCdf& all = metric(result.samples, "sessions_all");
    const EmpiricalCdf& high = metric(result.samples, "sessions_high_demand");
    const std::uint64_t trials = result.trials;
    Table summary({"metric", "value"});
    summary.add_row({"mean sessions (per replica)", Table::num(all.mean())});
    summary.add_row({"mean sessions (high-demand subset)",
                     Table::num(high.mean())});
    summary.add_row({"mean sessions to ALL replicas",
                     Table::num(metric(result.values, "time_to_full").mean())});
    summary.add_row({"median / p90 / p99",
                     Table::num(all.quantile(0.5), 2) + " / " +
                         Table::num(all.quantile(0.9), 2) + " / " +
                         Table::num(all.quantile(0.99), 2)});
    summary.add_row({"repetitions converged",
                     Table::num(metric(result.counters, "trials_converged")) +
                         "/" + Table::num(trials)});
    summary.add_row({"messages / repetition",
                     Table::num(metric(result.counters, "messages_total") /
                                trials)});
    summary.add_row({"wire bytes / repetition",
                     Table::num(metric(result.counters, "bytes_total") /
                                trials)});
    summary.print(std::cout);

    if (print_cdf) {
      Table cdf({"sessions", "P(delivered)"});
      for (double x = 0.0; x <= 12.0 + 1e-9; x += 0.5) {
        cdf.add_row({Table::num(x, 1), Table::num(all.at(x))});
      }
      std::cout << '\n';
      cdf.print(std::cout);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fastcons-sim: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
