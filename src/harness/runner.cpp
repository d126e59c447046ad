#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "common/construction_cost.hpp"
#include "common/error.hpp"
#include "sim/simulator.hpp"

namespace fastcons::harness {
namespace {

/// One schedulable unit: a (sweep point, trial) pair.
struct Task {
  std::size_t point_index = 0;  // into the executed-points vector
  std::size_t seed_index = 0;   // seed_group or spec.sweep index (feeds the seed)
  std::size_t trial = 0;
};

/// Everything one task writes: the trial's result plus the measurements
/// taken around it. One cache-line-aligned record per task, so concurrent
/// workers finishing adjacent tasks never store into the same line — the
/// previous four parallel arrays (results / errors / wall / events)
/// interleaved adjacent 8-byte writes from different workers.
///
/// Ownership is lock-free by design, so there is deliberately no mutex
/// (and no GUARDED_BY) here: exactly one worker claims task i via the
/// fetch_add on `next` and becomes the sole writer of slots[i]; the main
/// thread reads the slots only after join() of every worker, which
/// synchronizes-with all their writes. The CI tsan job runs the harness
/// at --jobs 4 to keep this claim honest.
struct alignas(64) TaskSlot {
  TrialResult result;
  std::exception_ptr error;
  double wall_ms = 0.0;
  double construction_ms = 0.0;
  std::uint64_t events = 0;
};

std::size_t effective_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Appends `name`->`value` into the named-accumulator vector, preserving
/// first-appearance order. Linear scan: metric counts are small (< 30).
template <typename Accumulator, typename Value, typename Fold>
void fold_named(std::vector<std::pair<std::string, Accumulator>>& into,
                const std::string& name, const Value& value, Fold fold) {
  for (auto& [existing, acc] : into) {
    if (existing == name) {
      fold(acc, value);
      return;
    }
  }
  into.emplace_back(name, Accumulator{});
  fold(into.back().second, value);
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options) {
  ScenarioResult result;
  result.name = spec.name;
  result.title = spec.title;
  result.paper_ref = spec.paper_ref;
  result.description = spec.description;
  result.smoke = options.smoke;
  result.base_seed = options.base_seed;

  // Materialise the executed points: derived references, smoke overrides,
  // sweep filter, trial counts. Indices into spec.sweep are kept so seeds
  // (and therefore numbers) do not depend on which subset of the sweep runs.
  const std::size_t base_trials =
      options.trials.value_or(options.smoke ? spec.smoke_trials : spec.trials);
  if (base_trials == 0) throw ConfigError("trial count must be > 0");

  std::vector<Task> tasks;
  for (std::size_t i = 0; i < spec.sweep.size(); ++i) {
    const SweepPoint& spec_point = spec.sweep[i];
    if (!options.sweep_filter.empty() &&
        spec_point.label.find(options.sweep_filter) == std::string::npos) {
      continue;
    }
    PointResult point_result;
    point_result.point = spec_point;
    point_result.index = i;
    if (spec.derive_reference) {
      for (auto& entry : spec.derive_reference(spec_point)) {
        point_result.point.reference.push_back(std::move(entry));
      }
    }
    if (options.smoke) {
      for (const auto& [key, value] : spec.smoke_overrides) {
        set_param(point_result.point.params, key, value);
      }
    }
    const std::size_t divisor = std::max<std::size_t>(1, spec_point.trials_divisor);
    point_result.trials = std::max<std::size_t>(1, base_trials / divisor);
    const std::size_t seed_index = spec_point.seed_group.value_or(i);
    for (std::size_t trial = 0; trial < point_result.trials; ++trial) {
      tasks.push_back(Task{result.points.size(), seed_index, trial});
    }
    result.points.push_back(std::move(point_result));
  }
  if (result.points.empty()) {
    throw ConfigError("scenario '" + spec.name + "': no sweep point matches '" +
                      options.sweep_filter + "'");
  }

  // Fan the trials out. Workers only write their own TaskSlot, so no
  // locking is needed; aggregation below runs single-threaded in task
  // order, which is what makes the output independent of scheduling.
  // Each worker owns one TrialContext for its lifetime: pooled networks
  // and scratch buffers survive across every trial the worker executes,
  // which is where the per-trial construction tax goes to die. Contexts
  // never affect results (reset-equivalence is tested per scenario), so
  // the output stays bit-identical for any --jobs value.
  std::vector<TaskSlot> slots(tasks.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    TrialContext context;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      const Task& task = tasks[i];
      TaskSlot& slot = slots[i];
      const std::uint64_t seed = derive_trial_seed(
          options.base_seed, spec.name, task.seed_index, task.trial);
      const std::uint64_t events_before = Simulator::thread_events_executed();
      const std::uint64_t construction_before = ConstructionCost::thread_ns();
      const auto started = std::chrono::steady_clock::now();
      try {
        slot.result =
            spec.run(result.points[task.point_index].point, seed, context);
      } catch (...) {
        slot.error = std::current_exception();
      }
      const auto finished = std::chrono::steady_clock::now();
      slot.wall_ms =
          std::chrono::duration<double, std::milli>(finished - started).count();
      slot.construction_ms =
          static_cast<double>(ConstructionCost::thread_ns() -
                              construction_before) /
          1e6;
      slot.events = Simulator::thread_events_executed() - events_before;
    }
  };

  const std::size_t jobs = std::min(effective_jobs(options.jobs), tasks.size());
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  for (const TaskSlot& slot : slots) {
    if (slot.error) std::rethrow_exception(slot.error);
  }

  // Deterministic aggregation: tasks are ordered by (point, trial).
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    PointResult& into = result.points[tasks[i].point_index];
    const TrialResult& trial = slots[i].result;
    into.wall_ms += slots[i].wall_ms;
    into.construction_ms += slots[i].construction_ms;
    into.events_executed += slots[i].events;
    for (const auto& [name, value] : trial.values) {
      fold_named(into.values, name, value,
                 [](OnlineStats& acc, double v) { acc.add(v); });
    }
    for (const auto& [name, samples] : trial.samples) {
      fold_named(into.samples, name, samples,
                 [](EmpiricalCdf& acc, const std::vector<double>& v) {
                   acc.add_all(v);
                 });
    }
    for (const auto& [name, value] : trial.counters) {
      fold_named(into.counters, name, value,
                 [](std::uint64_t& acc, std::uint64_t v) { acc += v; });
    }
  }
  return result;
}

}  // namespace fastcons::harness
