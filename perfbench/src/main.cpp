// perfbench: runs one benchmark workload in this process and prints one
// result object (JSON) as the last line of standard output. Progress and
// sample counts go to standard error. perfbench/run.py builds this binary,
// runs it and turns its output into the benchmark's result line.
//
//   perfbench --workload sim-ba1k|live-saturate --seed N
//             --seconds S [--trace] [--quick] [--scratch DIR]
//             [--trace-out FILE] [--pinned-digest HEX]
//
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S [--trace] [--quick] [--scratch DIR] "
               "[--trace-out FILE] [--pinned-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.scratch = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      options.workload = argv[++i];
    } else if (arg == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--scratch") {
      options.scratch = argv[++i];
    } else if (arg == "--trace-out") {
      options.trace_out = argv[++i];
    } else if (arg == "--pinned-digest") {
      options.pinned_digest = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.workload == "sim-ba1k" && options.pinned_digest.empty()) {
    return usage("sim-ba1k needs --pinned-digest");
  }

  perfbench::Result result;
  try {
    if (options.workload == "sim-ba1k") {
      perfbench::run_sim_ba1k(options, result);
    } else if (options.workload == "live-saturate") {
      perfbench::run_live_saturate(options, result);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  result.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  for (const std::string& e : result.errors()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.correct() ? 0 : 1;
}
