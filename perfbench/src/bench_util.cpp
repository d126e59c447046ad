#include "bench_util.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "stats/cdf.hpp"
#include "stats/json.hpp"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

bool percentile_supported(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  fastcons::EmpiricalCdf cdf;
  cdf.add_all(samples);
  s.p50 = cdf.quantile(0.50);
  s.p99 = cdf.quantile(0.99);
  return s;
}

double quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  fastcons::EmpiricalCdf cdf;
  cdf.add_all(samples);
  return cdf.quantile(q);
}

void BucketedLatency::add(double t_s, double value) {
  while (t_s >= start_s_ + static_cast<double>(closed_ + 1) * bucket_s_) {
    close_bucket();
  }
  open_.push_back(value);
}

void BucketedLatency::finish(double end_s) {
  while (start_s_ + static_cast<double>(closed_ + 1) * bucket_s_ <= end_s) {
    close_bucket();
  }
  open_.clear();
}

void BucketedLatency::close_bucket() {
  rates_.push_back(static_cast<double>(open_.size()) / bucket_s_);
  if (!open_.empty()) {
    const Summary s = summarize(open_);
    p50s_.push_back(s.p50);
    if (percentile_supported(s.n, 99.0)) p99s_.push_back(s.p99);
  }
  samples_ += open_.size();
  open_.clear();
  ++closed_;
}

std::uint32_t Tracer::open(std::uint64_t trace, std::uint32_t parent,
                           const char* name, double start_s) {
  if (!enabled_) return 0;
  spans_.push_back(Span{trace, parent, name, start_s, start_s});
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::close(std::uint32_t id, double end_s) {
  if (id == 0) return;
  spans_[id - 1].end_s = end_s;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

std::vector<double> Tracer::self_times(std::string_view name) const {
  const std::vector<double> self = perfbench::self_times(spans_);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(self[i]);
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = perfbench::self_times(spans_);
  std::fprintf(f, "trace,id,parent,name,start_us,end_us,self_us\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%llu,%zu,%u,%s,%.3f,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.trace), i + 1, s.parent,
                 s.name, s.start_s * 1e6, s.end_s * 1e6, self[i] * 1e6);
  }
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children grouped by parent index, in recording order.
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= spans.size()) children[parent - 1].push_back(i);
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    cover.clear();
    for (const std::size_t c : children[i]) {
      const double a = std::max(lo, spans[c].start_s);
      const double b = std::min(hi, spans[c].end_s);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = lo;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

OpenLoop::OpenLoop(double start_s, double rate_per_s)
    : start_s_(start_s), rate_(rate_per_s) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("rate must be > 0");
}

std::uint64_t OpenLoop::take_due(double now_s, std::uint64_t max_batch) {
  std::uint64_t taken = 0;
  while (taken < max_batch && due(next_) <= now_s) {
    lags_s_.push_back(now_s - due(next_));
    ++next_;
    ++taken;
  }
  return taken;
}

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::metric(std::string name, double value, std::string unit) {
  metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::fail(std::string message) { errors_.push_back(std::move(message)); }

std::string Result::json() const {
  fastcons::JsonValue errors = fastcons::JsonValue::array();
  for (const std::string& e : errors_) errors.push_back(e);
  fastcons::JsonValue metrics = fastcons::JsonValue::object();
  for (const Metric& m : metrics_) {
    fastcons::JsonValue entry = fastcons::JsonValue::object();
    entry.add("value", m.value);
    entry.add("unit", m.unit);
    metrics.add(m.name, std::move(entry));
  }
  fastcons::JsonValue out = fastcons::JsonValue::object();
  out.add("correct", correct());
  out.add("attempted", attempted_);
  out.add("failed", failed_);
  out.add("errors", std::move(errors));
  out.add("metrics", std::move(metrics));
  return out.dump();
}

}  // namespace perfbench
