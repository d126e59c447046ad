// sim-ba1k: the registered `large-scale` scenario limited to its ba-1024
// weak and fast points, run through harness::run_scenario with one job.
// Every trial is one client write propagated to all 1024 simulated replicas.
// The benchmark wraps the scenario's trial function to time each trial and
// read the simulator's and the construction accounting's thread counters
// around it; nothing inside the harness changes.
//
// The end-to-end timings are the trial thread's CPU time, not wall time: the
// simulator is single-threaded and never waits, so its CPU time is its cost,
// and it does not count the time other processes hold the core. Throughput
// and the median trial time are those of the run's best decile (see
// BucketedLatency): other tenants of a shared machine also slow down the
// instructions themselves, which CPU time does count.
#include <array>
#include <cstdio>

#include "common/construction_cost.hpp"
#include "harness/registry.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/simulator.hpp"
#include "stats/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fh = fastcons::harness;

constexpr const char* kFilter = "ba-1024/";
/// Trials per point in one run_scenario call of the timed window.
constexpr std::size_t kChunkTrials = 4;
/// The timed window runs on past --seconds until it holds this many trials,
/// so the p99 trial time has ten samples beyond it.
constexpr std::size_t kMinTrials = 1000;
/// Trials per point in the pinned-digest run.
constexpr std::size_t kDigestTrials = 2;

std::uint64_t counter_or_zero(const fh::TrialResult& r, const std::string& name) {
  for (const auto& [key, value] : r.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// What the wrapped trial function observed over the timed window.
struct TrialLog {
  std::vector<double> trial_cpu_ms;
  /// Trial CPU times in buckets of one CPU second.
  BucketedLatency buckets{0.0, 1.0};
  double cpu_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t construction_ns = 0;
  double trial_s_total = 0.0;
  std::uint64_t converged = 0;
  std::array<std::uint64_t, kTrafficClasses.size()> messages{};
  std::uint64_t bytes = 0;
};

/// The scenario's trial function with a span and counter readings around
/// each call. `parent` is the span of the enclosing run_scenario call.
fh::TrialFn measured(fh::TrialFn inner, TrialLog& log, Tracer& tracer,
                     const std::uint32_t& parent) {
  return [inner = std::move(inner), &log, &tracer, &parent](
             const fh::SweepPoint& point, std::uint64_t seed,
             fh::TrialContext& ctx) {
    const std::uint64_t ev0 = fastcons::Simulator::thread_events_executed();
    const std::uint64_t c0 = fastcons::ConstructionCost::thread_ns();
    const double cpu0 = thread_cpu_seconds();
    const double t0 = now_s();
    fh::TrialResult r = inner(point, seed, ctx);
    const double t1 = now_s();
    const double cpu = thread_cpu_seconds() - cpu0;
    log.cpu_s += cpu;
    log.buckets.add(log.cpu_s, cpu * 1e3);
    log.trial_cpu_ms.push_back(cpu * 1e3);
    tracer.add(log.trial_cpu_ms.size(), parent, "harness.trial", t0, t1);
    log.trial_s_total += t1 - t0;
    log.events += fastcons::Simulator::thread_events_executed() - ev0;
    log.construction_ns += fastcons::ConstructionCost::thread_ns() - c0;
    log.converged += counter_or_zero(r, "trials_converged");
    for (std::size_t i = 0; i < kTrafficClasses.size(); ++i) {
      log.messages[i] += counter_or_zero(
          r, "messages_" +
                 std::string(fastcons::traffic_class_name(kTrafficClasses[i].cls)));
    }
    log.bytes += counter_or_zero(r, "bytes_total");
    return r;
  };
}

fh::RunOptions run_options(std::uint64_t base_seed, std::size_t trials) {
  fh::RunOptions o;
  o.jobs = 1;
  o.base_seed = base_seed;
  o.trials = trials;
  o.sweep_filter = kFilter;
  return o;
}

bool all_converged(const fh::ScenarioResult& r) {
  for (const fh::PointResult& p : r.points) {
    std::uint64_t converged = 0;
    for (const auto& [name, value] : p.counters) {
      if (name == "trials_converged") converged = value;
    }
    if (converged != p.trials) return false;
  }
  return !r.points.empty();
}

}  // namespace

void run_sim_ba1k(const Options& options, Result& result) {
  // Set-up: build the registry and run one warm-up trial per point. Done
  // several times; the median is the reported set-up time. The warm-up
  // trials' seeds do not depend on --seed, so every run sets up the same
  // trials and set-up time does not vary with the seed's trial lengths.
  const int setup_reps = options.quick ? 2 : 9;
  std::vector<double> setup_s;
  fh::ScenarioSpec spec;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const double t0 = now_s();
    const fh::ScenarioRegistry registry = fh::builtin_registry();
    spec = registry.get("large-scale");
    const fh::ScenarioResult warm = fh::run_scenario(
        spec, run_options(splitmix64(0xa11ull + rep), 1));
    setup_s.push_back(now_s() - t0);
    if (!all_converged(warm)) result.fail("sim-ba1k: warm-up trial did not converge");
  }

  Tracer tracer(options.trace);
  TrialLog log;
  std::uint32_t chunk_span = 0;
  fh::ScenarioSpec timed = spec;
  timed.run = measured(spec.run, log, tracer, chunk_span);

  const double window = options.quick ? 0.5 : options.seconds;
  const double cpu0 = cpu_seconds();
  const double start = now_s();
  // Events per CPU second of each run_scenario call; their best decile is
  // the reported throughput.
  std::vector<double> chunk_rates;
  std::uint64_t chunk = 0;
  while (now_s() - start < window ||
         (!options.quick && log.trial_cpu_ms.size() < kMinTrials)) {
    const std::uint64_t events0 = log.events;
    const double chunk_cpu0 = thread_cpu_seconds();
    // Trace ids of run_scenario spans sit above any trial's id.
    chunk_span =
        tracer.open((1ull << 40) + chunk, 0, "harness.run_scenario", now_s());
    fh::run_scenario(timed, run_options(splitmix64(options.seed + chunk),
                                        kChunkTrials));
    tracer.close(chunk_span, now_s());
    chunk_rates.push_back(static_cast<double>(log.events - events0) /
                          (thread_cpu_seconds() - chunk_cpu0));
    ++chunk;
  }
  const double elapsed = now_s() - start;
  const double cpu = cpu_seconds() - cpu0;

  // Correctness: the pinned digest of the default seed, then convergence.
  const fh::ScenarioResult pinned =
      fh::run_scenario(spec, run_options(kDigestSeed, kDigestTrials));
  const std::string digest =
      fastcons::digest_hex(fh::scenario_to_json(pinned).dump());
  std::fprintf(stderr, "sim-ba1k: digest(seed %llu, %zu trials/point) = %s\n",
               static_cast<unsigned long long>(kDigestSeed), kDigestTrials,
               digest.c_str());
  if (digest != options.pinned_digest) {
    result.fail("sim-ba1k: digest " + digest + " != pinned " +
                options.pinned_digest);
  }
  if (!all_converged(pinned)) result.fail("sim-ba1k: pinned run did not converge");

  const auto trials = static_cast<std::uint64_t>(log.trial_cpu_ms.size());
  result.attempted(trials);
  result.failed(trials - log.converged);
  if (log.converged != trials) result.fail("sim-ba1k: a timed trial did not converge");

  log.buckets.finish(log.cpu_s);
  const Summary trial = summarize(log.trial_cpu_ms);
  const double n = trials > 0 ? static_cast<double>(trials) : 1.0;
  std::fprintf(stderr,
               "sim-ba1k: %llu trials in %.3f s, trial CPU ms p50 %.3f p99 "
               "%.3f (n=%zu)\n",
               static_cast<unsigned long long>(trials), elapsed, trial.p50,
               trial.p99, trial.n);

  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", quantile(chunk_rates, 0.9), "1/s");
  result.metric("visibility_p50_ms", log.buckets.best_p50(), "ms");
  result.metric("visibility_p99_ms", trial.p99, "ms");
  result.metric("write_ok_frac", static_cast<double>(log.converged) / n, "frac");
  result.metric("run.samples", static_cast<double>(trial.n), "count");

  const Summary span = summarize(tracer.durations("harness.trial"));
  result.metric("harness.trial_ms_p50", span.p50 * 1e3, "ms");
  result.metric("harness.trial_ms_p99", span.p99 * 1e3, "ms");
  result.metric("harness.runner_self_ms",
                median(tracer.self_times("harness.run_scenario")) * 1e3, "ms");
  result.metric("sim_runtime.construction_ms_per_trial",
                static_cast<double>(log.construction_ns) / 1e6 / n, "ms");
  const double event_s =
      log.trial_s_total - static_cast<double>(log.construction_ns) * 1e-9;
  result.metric("sim.ns_per_event",
                log.events > 0 ? event_s * 1e9 / static_cast<double>(log.events)
                               : 0.0,
                "ns");
  result.metric("sim.events_per_trial", static_cast<double>(log.events) / n,
                "count");
  for (std::size_t i = 0; i < kTrafficClasses.size(); ++i) {
    result.metric(std::string("core.sim_msgs_per_trial.") + kTrafficClasses[i].name,
                  static_cast<double>(log.messages[i]) / n, "count");
  }
  result.metric("core.sim_bytes_per_trial", static_cast<double>(log.bytes) / n,
                "B");
  result.metric("experiment.converged_frac",
                static_cast<double>(log.converged) / n, "frac");
  result.metric("proc.cpu_util", cpu / elapsed, "cores");
  result.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  if (tracer.enabled() && !options.trace_out.empty() &&
      !tracer.write_csv(options.trace_out)) {
    result.fail("sim-ba1k: could not write the span dump");
  }
}

}  // namespace perfbench
