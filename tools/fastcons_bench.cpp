// fastcons_bench — the unified experiment harness CLI.
//
// The one entry point to every experiment: each scenario lives in the
// harness registry (src/harness), trials fan out across a thread pool with
// per-trial derived seeds, and results land in versioned JSON files whose
// bytes are identical for any --jobs value. A `*matches_paper` counter
// below its trial count prints MISMATCH and exits 1.
//
//   fastcons_bench --list
//   fastcons_bench --scenario fig5 --jobs 8
//   fastcons_bench --all --smoke --out bench_results
//   fastcons_bench --scenario diameter-ba --sweep ba-100 --trials 50
//
// See docs/experiments.md for the methodology and the JSON schema.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "harness/registry.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace {

using namespace fastcons;
using namespace fastcons::harness;

int usage(std::FILE* out) {
  std::fputs(
      "usage: fastcons_bench [options]\n"
      "\n"
      "  --list            list registered scenarios and exit\n"
      "  --scenario NAME   run one scenario (repeatable); \"live\" runs the\n"
      "                    real-socket family (wall-clock results, excluded\n"
      "                    from DIGESTS.txt)\n"
      "  --all             run every deterministic scenario (not live)\n"
      "  --sweep SUBSTR    only sweep points whose label contains SUBSTR\n"
      "  --trials N        override trials per sweep point\n"
      "  --jobs N          worker threads (default 1; 0 = all cores);\n"
      "                    results are bit-identical for any value\n"
      "  --seed N          base seed (default 42)\n"
      "  --smoke           tiny-scale run of the same sweep (CI / quick checks)\n"
      "  --out DIR         results directory (default bench_results;\n"
      "                    empty string disables writing)\n"
      "  --quiet           no summary tables, just the digest line\n"
      "  --help            this text\n",
      out);
  return out == stdout ? 0 : 2;
}

void list_scenarios(const ScenarioRegistry& registry,
                    const ScenarioRegistry& live) {
  std::size_t width = 0;
  for (const ScenarioSpec& spec : registry.all()) {
    width = std::max(width, spec.name.size());
  }
  for (const ScenarioSpec& spec : live.all()) {
    width = std::max(width, spec.name.size());
  }
  for (const ScenarioSpec& spec : registry.all()) {
    std::printf("%-*s  %3zu points x %5zu trials  [%s] %s\n",
                static_cast<int>(width), spec.name.c_str(), spec.sweep.size(),
                spec.trials, spec.paper_ref.c_str(), spec.title.c_str());
  }
  for (const ScenarioSpec& spec : live.all()) {
    std::printf("%-*s  %3zu points x %5zu trials  [%s] %s (live sockets)\n",
                static_cast<int>(width), spec.name.c_str(), spec.sweep.size(),
                spec.trials, spec.paper_ref.c_str(), spec.title.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  bool all = false;
  bool list = false;
  bool quiet = false;
  std::string out_dir = "bench_results";
  RunOptions options;

  const auto next_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return usage(stdout);
    } else if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--all") == 0) {
      all = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      names.emplace_back(next_value(i, arg));
    } else if (std::strcmp(arg, "--sweep") == 0) {
      options.sweep_filter = next_value(i, arg);
    } else if (std::strcmp(arg, "--trials") == 0) {
      options.trials = static_cast<std::size_t>(
          std::strtoull(next_value(i, arg), nullptr, 10));
    } else if (std::strcmp(arg, "--jobs") == 0) {
      options.jobs = static_cast<std::size_t>(
          std::strtoull(next_value(i, arg), nullptr, 10));
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.base_seed = std::strtoull(next_value(i, arg), nullptr, 10);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      options.smoke = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_dir = next_value(i, arg);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n\n", arg);
      return usage(stderr);
    }
  }

  try {
    const ScenarioRegistry registry = builtin_registry();
    const ScenarioRegistry live = live_registry();
    if (list) {
      list_scenarios(registry, live);
      return 0;
    }
    if (all) {
      names = registry.names();
    }
    if (names.empty()) {
      std::fprintf(stderr, "error: nothing to run; pass --scenario NAME, "
                           "--all or --list\n\n");
      return usage(stderr);
    }

    // Deterministic results feed the digest roll-up; live (real-socket)
    // results are wall-clock measurements and are written as standalone
    // scenario files so they can never perturb DIGESTS.txt.
    std::vector<ScenarioResult> results;
    std::vector<ScenarioResult> live_results;
    for (const std::string& name : names) {
      const ScenarioSpec* spec = registry.find(name);
      const bool is_live = spec == nullptr && live.find(name) != nullptr;
      if (spec == nullptr) spec = &live.get(name);
      if (!quiet) {
        std::printf("running %s (%zu sweep points)...\n", spec->name.c_str(),
                    spec->sweep.size());
        std::fflush(stdout);
      }
      (is_live ? live_results : results)
          .push_back(run_scenario(*spec, options));
      auto& latest = is_live ? live_results.back() : results.back();
      if (!quiet) {
        print_scenario(latest, std::cout);
        std::cout << "\n";
      }
    }

    if (!out_dir.empty()) {
      if (!results.empty()) {
        const std::string digest = write_results(results, out_dir);
        std::printf("wrote %zu scenario file(s) + BENCH_RESULTS.json + "
                    "DIGESTS.txt to %s/ (digest %s)\n",
                    results.size(), out_dir.c_str(), digest.c_str());
      }
      for (const ScenarioResult& result : live_results) {
        write_scenario_file(result, out_dir);
        std::printf("wrote %s/%s.json (live: wall-clock results, no digest)\n",
                    out_dir.c_str(), result.name.c_str());
      }
    } else {
      if (!results.empty()) {
        std::printf("digest %s\n",
                    digest_hex(rollup_to_json(results).dump()).c_str());
      }
      if (!live_results.empty()) {
        std::printf("live scenarios ran without --out; results not saved\n");
      }
    }

    // A failed paper check fails the run, after the results are written so
    // the evidence is on disk.
    const std::vector<std::string> mismatches = paper_mismatches(results);
    for (const std::string& mismatch : mismatches) {
      std::fprintf(stderr, "MISMATCH: %s\n", mismatch.c_str());
    }
    return mismatches.empty() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
