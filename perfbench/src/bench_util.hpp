// Helpers shared by the benchmark workloads: nearest-rank percentiles, an
// in-memory span recorder with self-time derivation, the open-loop write
// schedule, process resource readings and the metric sink that prints the
// result object.
#ifndef PERFBENCH_BENCH_UTIL_HPP
#define PERFBENCH_BENCH_UTIL_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Mixes a seed into a well-spread 64-bit value (SplitMix64 finaliser), for
/// deriving the per-run and per-chunk seeds from --seed.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- percentiles ---------------------------------------------------------

/// Samples strictly above the nearest-rank p-th percentile's rank (the rank
/// fastcons::EmpiricalCdf::quantile uses).
std::size_t samples_beyond(std::size_t n, double p);

/// True when the p-th percentile of n samples has at least ten samples
/// beyond it — the smallest sample a reported p99 needs is 1000.
bool percentile_supported(std::size_t n, double p);

/// Nearest-rank median and p99 of a sample set, with its size; zeros when
/// the set is empty.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};
Summary summarize(const std::vector<double>& samples);

/// Nearest-rank q-quantile (0 <= q <= 1) of a sample set; 0 when empty.
double quantile(const std::vector<double>& samples, double q);

/// Nearest-rank median of a sample set; 0 when empty.
inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

/// Per-bucket summaries of a stream of timed samples (e.g. one bucket per
/// second of a run): each whole bucket yields its rate, and its p50 and p99
/// when it holds enough samples.
/// Only the open bucket's samples are kept, so memory does not grow with the
/// run.
///
/// The reported figures are those of the run's best decile of buckets: the
/// 90th percentile of the rates and the 10th percentile of the p50s and
/// p99s. On a shared machine other tenants slow the code down for seconds
/// to minutes at a time; they can only ever make it slower, so the fastest
/// tenth of a run is the steadiest estimate of what the code costs. A
/// change that makes a tenth of every run slow is not seen here.
class BucketedLatency {
 public:
  BucketedLatency(double start_s, double bucket_s)
      : start_s_(start_s), bucket_s_(bucket_s) {}

  /// Adds `value`, observed at `t_s` (not earlier than the previous one).
  void add(double t_s, double value);
  /// Closes every bucket that ends by `end_s`; later samples are dropped.
  void finish(double end_s);

  /// Samples in closed buckets.
  std::size_t samples() const noexcept { return samples_; }
  /// Best-decile samples per second over closed buckets.
  double best_rate() const { return quantile(rates_, 0.9); }
  /// Best-decile p50 over closed non-empty buckets.
  double best_p50() const { return quantile(p50s_, 0.1); }
  /// Best-decile p99 over closed buckets with ten samples beyond their p99;
  /// 0 when no bucket has that many.
  double best_p99() const { return quantile(p99s_, 0.1); }
  /// Closed buckets that contributed a p99.
  std::size_t p99_buckets() const noexcept { return p99s_.size(); }

 private:
  void close_bucket();

  double start_s_;
  double bucket_s_;
  std::size_t closed_ = 0;
  std::size_t samples_ = 0;
  std::vector<double> open_;
  std::vector<double> rates_, p50s_, p99s_;
};

// --- spans ---------------------------------------------------------------

/// One timed interval. `trace` groups the spans of one trial or one write;
/// `parent` is the id of the enclosing span (0 for a root).
struct Span {
  std::uint64_t trace = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

/// In-memory span store. Disabled recorders accept calls and keep nothing,
/// so workload code can call it unconditionally.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (0 when disabled).
  std::uint32_t open(std::uint64_t trace, std::uint32_t parent,
                     const char* name, double start_s);
  /// Closes span `id` at `end_s`. No-op for id 0.
  void close(std::uint32_t id, double end_s);
  /// Records an already-finished span; returns its id.
  std::uint32_t add(std::uint64_t trace, std::uint32_t parent,
                    const char* name, double start_s, double end_s) {
    const std::uint32_t id = open(trace, parent, name, start_s);
    close(id, end_s);
    return id;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations in seconds of every span named `name`.
  std::vector<double> durations(std::string_view name) const;
  /// Self times in seconds of every span named `name`.
  std::vector<double> self_times(std::string_view name) const;

  /// Writes every span as CSV (trace, id, parent, name, start, end, self;
  /// times in microseconds). Returns false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;  // span id == index + 1
};

/// Self time of each span: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once, children
/// are clipped to the parent). Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

// --- open-loop schedule ----------------------------------------------------

/// Fixed-rate write schedule: write i is due at start + i / rate, whatever
/// happened to earlier writes. The driver takes due writes in bounded
/// batches so a stall never starves its confirm pass; every taken write
/// records how late the generator was (its lag).
class OpenLoop {
 public:
  OpenLoop(double start_s, double rate_per_s);

  double due(std::uint64_t i) const noexcept {
    return start_s_ + static_cast<double>(i) / rate_;
  }
  /// Index of the next write to issue.
  std::uint64_t next() const noexcept { return next_; }
  /// Takes up to `max_batch` writes due at `now`, records their lag and
  /// returns how many were taken (indices next()-count .. next()-1).
  std::uint64_t take_due(double now_s, std::uint64_t max_batch);
  /// Lag in seconds of every taken write, in issue order.
  const std::vector<double>& lags_s() const noexcept { return lags_s_; }

 private:
  double start_s_;
  double rate_;
  std::uint64_t next_ = 0;
  std::vector<double> lags_s_;
};

// --- process and clock -----------------------------------------------------

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// CPU seconds this process has used (every thread, ended ones included).
double cpu_seconds();

/// CPU seconds the calling thread has used. Unlike wall time, this does not
/// count the time other processes on the machine hold the core.
double thread_cpu_seconds();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// --- results ----------------------------------------------------------------

/// Collects named metrics and correctness findings, and prints the result
/// object the benchmark's runner reads.
class Result {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Records a failed correctness check (the run is then incorrect).
  void fail(std::string message);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  bool correct() const noexcept { return errors_.empty(); }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

  /// {"correct":..,"attempted":..,"failed":..,"errors":[..],"metrics":{..}}
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_HPP
