/// @file
/// Result serialisation: versioned JSON files, digests, and the
/// human-readable summary tables the CLI prints.
#ifndef FASTCONS_HARNESS_REPORT_HPP
#define FASTCONS_HARNESS_REPORT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "stats/json.hpp"

namespace fastcons::harness {

/// Version stamped into every results file; bump when the layout of the
/// JSON changes incompatibly. docs/experiments.md documents the schema.
inline constexpr int kResultsSchemaVersion = 1;

/// Serialises one scenario result. By default a pure function of the
/// experiment outcome: no timestamps, host names, thread counts or wall
/// times, so equal runs serialise to equal documents (the property the
/// determinism tests and digests pin down). With `include_timing` each
/// point additionally carries {"timing": {wall_ms, construction_ms,
/// event_ms, events_executed, events_per_sec}} — measurements of this
/// particular run, for the perf trajectory; digests are always taken over
/// the pure form.
JsonValue scenario_to_json(const ScenarioResult& result,
                           bool include_timing = false);

/// Serialises a whole run: {"schema_version", "mode",
/// "scenarios": [scenario_to_json...]} — the BENCH_RESULTS.json roll-up.
/// `include_timing` as in scenario_to_json.
JsonValue rollup_to_json(const std::vector<ScenarioResult>& results,
                         bool include_timing = false);

/// Writes `<dir>/<scenario>.json` (pretty, with timing); creates `dir` if
/// needed. Returns the digest (digest_hex of the compact serialisation
/// WITHOUT timing). Throws Error when the file cannot be written.
std::string write_scenario_file(const ScenarioResult& result,
                                const std::string& dir);

/// Writes `<dir>/<scenario>.json` for each scenario plus the roll-up
/// `<dir>/BENCH_RESULTS.json` (both with timing) and `<dir>/DIGESTS.txt` —
/// one "<scenario> <digest>" line per scenario plus a "rollup" line, all
/// digests over the timing-free serialisation so the file is byte-equal
/// across machines, thread counts and code that only changes speed (CI
/// pins it against a golden copy). Creates `dir` if needed. Returns the
/// roll-up digest. Throws Error when a file cannot be written.
std::string write_results(const std::vector<ScenarioResult>& results,
                          const std::string& dir);

/// Prints the per-point summary tables for one scenario.
void print_scenario(const ScenarioResult& result, std::ostream& out);

/// The paper checks that failed: every `*matches_paper` counter (fig4's
/// session orders, sec2's partner cycle) below its point's trial count, as
/// one "<scenario>/<point> <counter> = <value>/<trials>" line each. Empty
/// when every check held.
std::vector<std::string> paper_mismatches(
    const std::vector<ScenarioResult>& results);

}  // namespace fastcons::harness

#endif  // FASTCONS_HARNESS_REPORT_HPP
