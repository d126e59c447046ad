// live-saturate: a 3-node LocalCluster on the line 0-1-2 over loopback TCP,
// with demand rising away from the writer (node 0), so a write crosses both
// hops by fast push. One driver thread issues every write at node 0, keeps a
// fixed window of unconfirmed writes open (closed loop) and probes read() on
// every replica until the write is visible everywhere.
//
// The protocol runs with ProtocolConfig::fast() as deployed, so each node's
// write log keeps every update and memory grows with the writes a cluster
// has taken. The timed window therefore runs a fresh cluster for every
// kEpochWrites writes: peak RSS then shows what one cluster's worth of
// writes costs, however many writes a faster build completes.
//
// The traced run adds the durability probe: the same line with durability
// on (fsync always), written at a fixed rate (open loop, each write timed
// from when it was due, not from when write() returned), with node 2 killed
// and recovered several times.
#include <sys/prctl.h>
#include <sys/stat.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "net/cluster.hpp"
#include "topology/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using fastcons::ClusterConfig;
using fastcons::LocalCluster;
using fastcons::NodeId;
using fastcons::ReplicaServer;

constexpr std::size_t kNodes = 3;
constexpr NodeId kWriter = 0;
constexpr NodeId kVictim = 2;
/// Demand rises away from the writer: every write is fast-pushed 0->1->2.
const std::vector<double> kDemands = {10.0, 50.0, 90.0};
constexpr double kSecondsPerUnit = 0.02;
constexpr std::size_t kValueBytes = 16;
/// Writes cycle over this many keys, so after the first pass every write
/// overwrites a key and per-write cost stops growing with the run.
constexpr std::uint64_t kKeySpace = 1 << 14;
/// Unconfirmed writes the closed loop keeps open.
constexpr std::size_t kWindow = 16;
/// Writes one live-saturate cluster takes before the next replaces it.
constexpr std::uint64_t kEpochWrites = 200000;
/// The durable probe's run length, offered load and checkpoint interval.
constexpr double kDurableSeconds = 18.0;
constexpr double kDurableRate = 500.0;
constexpr std::uint64_t kCheckpointEvery = 2500;
constexpr int kKillCycles = 3;
/// Due writes the open loop issues before it runs a confirm pass again.
constexpr std::uint64_t kIssueBatch = 8;
/// Durable probe: how long node 2 stays down per cycle, and how long after
/// its recovery writes start counting toward the percentiles again.
constexpr double kDownSeconds = 3.0;
constexpr double kSettleSeconds = 1.0;
constexpr double kProbeGapS = 10e-6;
/// Traced runs record the spans of one write in this many.
constexpr std::uint64_t kTraceEverySaturate = 64;

std::string key_of(std::uint64_t i) { return "k/" + std::to_string(i % kKeySpace); }

/// Counters the servers export, summed over nodes; the benchmark reports
/// their deltas over the timed window.
struct Counters {
  std::uint64_t frames_sent = 0, bytes_sent = 0, frames_received = 0;
  std::uint64_t frames_dropped = 0, frames_shed = 0, codec_errors = 0;
  std::uint64_t connect_failures = 0, disconnects = 0;
  std::uint64_t duplicates = 0, applied = 0, offers_received = 0,
                offers_accepted = 0, sessions_initiated = 0;
  std::array<std::uint64_t, kTrafficClasses.size()> messages{};

  void add(const Counters& o, bool subtract = false) {
    const auto f = [subtract](std::uint64_t& a, std::uint64_t b) {
      a = subtract ? a - b : a + b;
    };
    f(frames_sent, o.frames_sent);
    f(bytes_sent, o.bytes_sent);
    f(frames_received, o.frames_received);
    f(frames_dropped, o.frames_dropped);
    f(frames_shed, o.frames_shed);
    f(codec_errors, o.codec_errors);
    f(connect_failures, o.connect_failures);
    f(disconnects, o.disconnects);
    f(duplicates, o.duplicates);
    f(applied, o.applied);
    f(offers_received, o.offers_received);
    f(offers_accepted, o.offers_accepted);
    f(sessions_initiated, o.sessions_initiated);
    for (std::size_t i = 0; i < messages.size(); ++i) f(messages[i], o.messages[i]);
  }
};

Counters read_counters(const ReplicaServer& s) {
  Counters c;
  const fastcons::NetStats net = s.net_stats();
  c.frames_sent = net.frames_sent;
  c.bytes_sent = net.bytes_sent;
  c.frames_received = net.frames_received;
  c.frames_dropped = net.frames_dropped;
  c.codec_errors = net.codec_errors;
  c.connect_failures = net.connect_failures;
  c.disconnects = net.disconnects;
  for (const fastcons::PeerNetStats& p : net.peers) c.frames_shed += p.frames_shed;
  const fastcons::EngineStats e = s.stats();
  c.duplicates = e.duplicate_updates;
  c.applied = e.updates_applied;
  c.offers_received = e.offers_received;
  c.offers_accepted = e.offers_accepted;
  c.sessions_initiated = e.sessions_initiated;
  const fastcons::TrafficCounters t = s.traffic();
  for (std::size_t i = 0; i < kTrafficClasses.size(); ++i) {
    c.messages[i] = t.messages(kTrafficClasses[i].cls);
  }
  return c;
}

Counters read_counters(LocalCluster& cluster) {
  Counters c;
  for (NodeId n = 0; n < cluster.size(); ++n) c.add(read_counters(cluster.server(n)));
  return c;
}

/// One write the driver has issued and not yet seen on every replica.
struct Pending {
  std::uint64_t index = 0;
  std::string key;
  std::string value;
  double due_s = 0.0;
  std::size_t next_node = 0;  ///< replicas [0, next_node) hold the write
  bool sample = false;        ///< counts toward the visibility percentiles
  std::uint32_t span = 0;     ///< root span (traced writes only)
};

/// Issues writes and probes their visibility; shared by both live loops.
class Driver {
 public:
  Driver(LocalCluster& cluster, Tracer& tracer, std::uint64_t trace_every,
         std::uint64_t seed, std::uint64_t first_seq)
      : tracer_(tracer), trace_every_(trace_every) {
    fastcons::Rng rng(splitmix64(seed ^ 0x7a1eull));
    for (std::string& v : suffixes_) {
      v.resize(kValueBytes - 8);
      for (char& ch : v) ch = static_cast<char>('a' + rng.uniform_u64(0, 25));
    }
    attach(cluster, first_seq);
  }

  /// Writes from now on go to `cluster`, whose writer has issued origin
  /// sequence numbers below `first_seq`.
  void attach(LocalCluster& cluster, std::uint64_t first_seq) {
    cluster_ = &cluster;
    next_seq_ = first_seq;
    attached_at_ = issued_;
  }

  /// The value write `index` stores: its index in hex, then seeded bytes.
  std::string value_of(std::uint64_t index) const {
    char hex[9];
    std::snprintf(hex, sizeof hex, "%08llx",
                  static_cast<unsigned long long>(index & 0xffffffffull));
    return hex + suffixes_[index % suffixes_.size()];
  }

  /// Issues write `index` due at `due_s`. Returns it for the caller to queue.
  Pending issue(std::uint64_t index, double due_s, bool sample) {
    Pending w{index, key_of(index), value_of(index), due_s, 0, sample, 0};
    const bool traced = tracer_.enabled() && index % trace_every_ == 0;
    if (traced) w.span = tracer_.open(index + 1, 0, "driver.write", due_s);
    const double t0 = traced ? now_s() : 0.0;
    cluster_->server(kWriter).write(w.key, w.value);
    if (traced) tracer_.add(index + 1, w.span, "net.write", t0, now_s());
    user_bytes_ += w.key.size() + kValueBytes;
    ++issued_;
    last_seq_ = next_seq_++;
    return w;
  }

  /// Advances `w` through the replicas; true once every replica has it.
  bool probe(Pending& w) {
    while (w.next_node < kNodes) {
      const bool traced = w.span != 0;
      const double t0 = traced ? now_s() : 0.0;
      const std::optional<std::string> seen =
          cluster_->server(static_cast<NodeId>(w.next_node)).read(w.key);
      const bool hit = seen.has_value() && *seen == w.value;
      if (traced) tracer_.add(w.index + 1, w.span, "net.read", t0, now_s());
      ++reads_;
      if (!hit) return false;
      ++hits_;
      ++w.next_node;
    }
    return true;
  }

  /// Probes the queue front to back and stops at the first write not yet
  /// everywhere (writes from one origin arrive in order). Each confirmed
  /// sample write is passed to `on_visible(t, ms)`: when it was seen
  /// everywhere, and how long after it was due.
  template <typename OnVisible>
  void confirm_pass(std::vector<Pending>& pending, OnVisible&& on_visible) {
    std::size_t done = 0;
    while (done < pending.size() && probe(pending[done])) {
      Pending& w = pending[done];
      const double t = now_s();
      if (w.sample) on_visible(t, (t - w.due_s) * 1e3);
      tracer_.close(w.span, t);
      ++confirmed_;
      ++done;
    }
    pending.erase(pending.begin(), pending.begin() + static_cast<long>(done));
  }

  /// Writes issued before this call are confirmed by other means (recovery
  /// of a killed replica); they count as visible everywhere.
  void confirm_without_probe(std::uint64_t n) { confirmed_ += n; }

  std::uint64_t issued() const { return issued_; }
  /// Writes issued before the current cluster was attached.
  std::uint64_t attached_at() const { return attached_at_; }
  std::uint64_t confirmed() const { return confirmed_; }
  /// Origin sequence number of the latest write at the writer.
  std::uint64_t last_seq() const { return last_seq_; }
  std::uint64_t user_bytes() const { return user_bytes_; }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t hits() const { return hits_; }

 private:
  LocalCluster* cluster_ = nullptr;
  Tracer& tracer_;
  std::uint64_t trace_every_;
  std::array<std::string, 64> suffixes_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t attached_at_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t confirmed_ = 0;
  std::uint64_t user_bytes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t hits_ = 0;
};

/// CPU seconds of every thread but the calling (driver) thread: the
/// servers' loop threads. The driver's own time is the cost of probing,
/// which says nothing about the servers.
double server_cpu_seconds() { return cpu_seconds() - thread_cpu_seconds(); }

/// Pause between probe passes that found nothing new: sleep for kProbeGapS,
/// so the driver leaves the core to the servers' loop threads. A spinning
/// driver is fine while the machine has a free core, but when other tenants
/// take one of the four, it starves a loop thread: with one core taken by a
/// busy loop, a spinning driver cut throughput fourfold and raised p99
/// visibility from 0.5 to 11 ms. run_live_saturate sets the driver
/// thread's timer slack to 1 ns, so the sleep lasts microseconds, not the
/// default 50.
void probe_gap() {
  std::this_thread::sleep_for(std::chrono::duration<double>(kProbeGapS));
}

bool mesh_connected(LocalCluster& cluster) {
  for (NodeId n = 0; n < cluster.size(); ++n) {
    for (const fastcons::PeerNetStats& p : cluster.server(n).net_stats().peers) {
      if (!p.connected) return false;
    }
  }
  return true;
}

std::unique_ptr<LocalCluster> make_cluster(std::uint64_t seed,
                                           const std::string& durable_dir) {
  fastcons::Rng rng(seed);
  const fastcons::Graph line =
      fastcons::make_line(kNodes, fastcons::LatencyRange{}, rng);
  ClusterConfig cfg;
  cfg.protocol = fastcons::ProtocolConfig::fast();
  cfg.seconds_per_unit = kSecondsPerUnit;
  cfg.seed = rng.next_u64();
  cfg.demands = kDemands;
  if (!durable_dir.empty()) {
    cfg.durability_dir = durable_dir;
    cfg.fsync = fastcons::FsyncPolicy::always;
    cfg.checkpoint_every = kCheckpointEvery;
  }
  return std::make_unique<LocalCluster>(line, std::move(cfg));
}

/// Builds and starts an in-memory cluster, waits until the mesh is
/// connected and one warm-up write is visible on every replica.
std::unique_ptr<LocalCluster> start_cluster(std::uint64_t seed, Result& result) {
  const double t0 = now_s();
  std::unique_ptr<LocalCluster> cluster = make_cluster(seed, "");
  cluster->start();
  // The first adverts open the mesh; the warm-up write goes out once it is
  // up, so it takes the fast-push path rather than waiting for a session
  // timer.
  bool ready = false;
  while (!(ready = mesh_connected(*cluster)) && now_s() - t0 < 10.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  cluster->server(kWriter).write("warmup", "v");
  while (ready && now_s() - t0 < 10.0) {
    bool visible = true;
    for (NodeId n = 0; n < kNodes && visible; ++n) {
      visible = cluster->server(n).read("warmup").has_value();
    }
    if (visible) break;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  if (!ready || now_s() - t0 >= 10.0) {
    result.fail("live set-up: mesh or warm-up write not ready within 10 s");
  }
  return cluster;
}

/// Starts a cluster `reps` times. Returns the last one (the earlier ones are
/// stopped) and the median set-up time in `setup_s`.
std::unique_ptr<LocalCluster> set_up(const Options& options, int reps,
                                     double& setup_s, Result& result) {
  std::vector<double> times;
  std::unique_ptr<LocalCluster> cluster;
  for (int rep = 0; rep < reps; ++rep) {
    if (cluster) cluster->stop();
    cluster.reset();
    const double t0 = now_s();
    cluster = start_cluster(
        splitmix64(options.seed + static_cast<std::uint64_t>(rep)), result);
    times.push_back(now_s() - t0);
  }
  setup_s = median(times);
  return cluster;
}

/// After the run: all replicas agree and every key holds its latest write
/// on every replica (writes issued to the cluster the driver is attached
/// to).
void check_final_state(LocalCluster& cluster, const Driver& driver,
                       Result& result) {
  if (!cluster.wait_for_convergence(30.0, driver.last_seq())) {
    result.fail("live: replicas did not converge after the run");
  }
  const std::uint64_t digest = cluster.server(0).kv_digest();
  for (NodeId n = 1; n < kNodes; ++n) {
    if (cluster.server(n).kv_digest() != digest) {
      result.fail("live: kv_digest differs between replicas");
    }
  }
  std::uint64_t missing = 0;
  const std::uint64_t issued = driver.issued();
  const std::uint64_t from =
      std::max(driver.attached_at(), issued > kKeySpace ? issued - kKeySpace : 0);
  for (std::uint64_t i = from; i < issued; ++i) {
    const std::string key = key_of(i);
    const std::string value = driver.value_of(i);
    for (NodeId n = 0; n < kNodes; ++n) {
      if (cluster.server(n).read(key) != value) ++missing;
    }
  }
  if (missing > 0) {
    result.fail("live: " + std::to_string(missing) +
                " confirmed writes are not readable on every replica");
  }
}

/// Reports the end-to-end metrics and the per-layer metrics common to both
/// live workloads.
void report_live(const Options& options, const Driver& driver,
                 const Tracer& tracer, const Counters& delta,
                 const BucketedLatency& visible, double elapsed, double cpu,
                 double setup_s, Result& result) {
  const std::uint64_t issued = driver.issued();
  const std::uint64_t ok = std::min(driver.confirmed(), issued);
  result.attempted(issued);
  result.failed(issued - ok);
  if (!options.quick && visible.p99_buckets() == 0) {
    result.fail("live-saturate: no second with 1000 visible writes");
  }
  std::fprintf(stderr,
               "live-saturate: %llu writes issued, %llu visible, %.3f s "
               "window; best-decile seconds: %.0f writes/s, visibility p50 "
               "%.3f ms, p99 %.3f ms (%zu samples, %zu buckets with a p99)\n",
               static_cast<unsigned long long>(issued),
               static_cast<unsigned long long>(ok), elapsed,
               visible.best_rate(), visible.best_p50(), visible.best_p99(),
               visible.samples(), visible.p99_buckets());
  const double writes = issued > 0 ? static_cast<double>(issued) : 1.0;
  result.metric("setup_s", setup_s, "s");
  result.metric("throughput_per_s", visible.best_rate(), "1/s");
  result.metric("visibility_p50_ms", visible.best_p50(), "ms");
  result.metric("visibility_p99_ms", visible.best_p99(), "ms");
  result.metric("write_ok_frac", static_cast<double>(ok) / writes, "frac");
  result.metric("run.samples", static_cast<double>(visible.samples()), "count");

  const Summary wc = summarize(tracer.durations("net.write"));
  const Summary rc = summarize(tracer.durations("net.read"));
  result.metric("net.write_call_us_p50", wc.p50 * 1e6, "us");
  result.metric("net.write_call_us_p99", wc.p99 * 1e6, "us");
  result.metric("net.read_call_us_p50", rc.p50 * 1e6, "us");
  result.metric("net.read_call_us_p99", rc.p99 * 1e6, "us");
  result.metric("driver.write_self_ms_p50",
                median(tracer.self_times("driver.write")) * 1e3, "ms");
  result.metric("net.probe_hit_ratio",
                driver.reads() > 0 ? static_cast<double>(driver.hits()) /
                                         static_cast<double>(driver.reads())
                                   : 0.0,
                "frac");
  result.metric("net.frames_per_write",
                static_cast<double>(delta.frames_sent) / writes, "count");
  result.metric("net.bytes_per_write",
                static_cast<double>(delta.bytes_sent) / writes, "B");
  result.metric("net.frames_received_per_write",
                static_cast<double>(delta.frames_received) / writes, "count");
  result.metric("net.frames_dropped", static_cast<double>(delta.frames_dropped),
                "count");
  result.metric("net.frames_shed", static_cast<double>(delta.frames_shed), "count");
  result.metric("net.codec_errors", static_cast<double>(delta.codec_errors), "count");
  result.metric("net.connect_failures",
                static_cast<double>(delta.connect_failures), "count");
  result.metric("net.disconnects", static_cast<double>(delta.disconnects), "count");
  for (std::size_t i = 0; i < kTrafficClasses.size(); ++i) {
    result.metric(std::string("core.msgs_per_write.") + kTrafficClasses[i].name,
                  static_cast<double>(delta.messages[i]) / writes, "count");
  }
  const std::uint64_t received = delta.duplicates + delta.applied;
  result.metric("core.dup_ratio",
                received > 0 ? static_cast<double>(delta.duplicates) /
                                   static_cast<double>(received)
                             : 0.0,
                "frac");
  result.metric("core.offer_accept_ratio",
                delta.offers_received > 0
                    ? static_cast<double>(delta.offers_accepted) /
                          static_cast<double>(delta.offers_received)
                    : 0.0,
                "frac");
  result.metric("core.sessions_per_s",
                static_cast<double>(delta.sessions_initiated) / elapsed, "1/s");
  result.metric("proc.cpu_util", cpu / elapsed, "cores");
  result.metric("proc.cpu_us_per_write", cpu * 1e6 / writes, "us");
  result.metric("trace.spans", static_cast<double>(tracer.spans().size()),
                "count");
  if (tracer.enabled() && !options.trace_out.empty() &&
      !tracer.write_csv(options.trace_out)) {
    result.fail("live-saturate: could not write the span dump");
  }
  if (tracer.enabled()) {
    probe_wire(UpdateShape{key_of(issued / 2).size(), kValueBytes},
               options.quick ? 0.05 : 0.3, result);
  }
}

/// The durable cluster of the traced run: the same line with durability on
/// (fsync always, a checkpoint every kCheckpointEvery records), an open
/// loop at kDurableRate writes/s, and node 2 killed kKillCycles times, each
/// time down for kDownSeconds (a backlog of 1500 writes) and restarted with
/// RestartMode::recover. Reports the durability.* metrics and the open-loop
/// generator's lag; its checks (recovery from disk, convergence) count
/// toward the run's correctness.
void probe_live_durable(const Options& options, Result& result) {
  const std::string dir = options.scratch + "/durable";
  std::filesystem::remove_all(dir);
  std::unique_ptr<LocalCluster> cluster =
      make_cluster(splitmix64(options.seed ^ 0xd15cull), dir);
  cluster->start();
  Tracer no_spans(false);
  Driver driver(*cluster, no_spans, 1, options.seed, 1);
  std::vector<Pending> pending;
  std::vector<double> visibility_ms;
  const auto on_visible = [&visibility_ms](double, double ms) {
    visibility_ms.push_back(ms);
  };
  /// Writes whose visibility the recovery of node 2 confirms: issued while
  /// it was down, or still unconfirmed when it was killed.
  std::uint64_t backlog = 0;

  const double window = options.quick ? 1.5 : kDurableSeconds;
  // Each cycle: all up for a quarter period, node 2 down for kDownSeconds,
  // then recover, catch up and settle before writes count again.
  const double period = window / kKillCycles;
  const double down_for = options.quick ? 0.2 : kDownSeconds;
  const double settle_for = options.quick ? 0.05 : kSettleSeconds;
  double sample_from = 0.0;

  enum class State { up, down, recovering };
  State state = State::up;
  int cycle = 0;
  double restart_at = 0.0;
  double restart_began = 0.0;
  double restart_span_s = 0.0;
  std::uint64_t target_seq = 0;
  std::uint64_t held_before_kill = 0;
  std::vector<double> restart_ms, replay_ms, replay_records, replay_bytes,
      catchup_ms, recovery_ms;

  const double start = now_s();
  OpenLoop gen(start, kDurableRate);
  // The first writes also connect the mesh: they do not count.
  sample_from = start + settle_for;
  double now = start;
  while (now - start < window || state != State::up) {
    if (now - start > window + 30.0) {
      result.fail("durable probe: node 2 did not recover within 30 s");
      break;
    }
    if (state == State::up && cycle < kKillCycles &&
        now >= start + cycle * period + period / 4.0) {
      held_before_kill = cluster->server(kVictim).summary().total();
      cluster->kill(kVictim);
      backlog += pending.size();
      pending.clear();
      restart_at = now + down_for;
      state = State::down;
    } else if (state == State::down && now >= restart_at) {
      target_seq = driver.last_seq();
      restart_began = now_s();
      cluster->restart(kVictim, fastcons::RestartMode::recover);
      restart_span_s = now_s() - restart_began;
      const fastcons::RecoveryInfo rec = cluster->server(kVictim).recovery_info();
      if (!rec.recovered_from_disk || rec.restored_updates < held_before_kill) {
        result.fail("durable probe: restart " + std::to_string(cycle) +
                    " restored " + std::to_string(rec.restored_updates) +
                    " updates from disk, held " +
                    std::to_string(held_before_kill) + " before the kill");
      }
      restart_ms.push_back(restart_span_s * 1e3);
      replay_ms.push_back(rec.load_ms);
      replay_records.push_back(static_cast<double>(rec.wal_records));
      replay_bytes.push_back(static_cast<double>(rec.wal_bytes));
      state = State::recovering;
    } else if (state == State::recovering &&
               cluster->server(kVictim).summary().watermark(kWriter) >= target_seq) {
      const double took = now_s() - restart_began;
      recovery_ms.push_back(took * 1e3);
      catchup_ms.push_back((took - restart_span_s) * 1e3);
      driver.confirm_without_probe(backlog);
      backlog = 0;
      sample_from = now_s() + settle_for;
      state = State::up;
      ++cycle;
    }

    // Issue what is due, in bounded batches so the confirm pass below runs
    // between batches however late the generator is.
    const std::uint64_t first = gen.next();
    const std::uint64_t n = now - start < window ? gen.take_due(now, kIssueBatch) : 0;
    for (std::uint64_t i = first; i < first + n; ++i) {
      Pending w = driver.issue(i, gen.due(i),
                               state == State::up && now >= sample_from);
      if (state == State::down) {
        ++backlog;
      } else {
        pending.push_back(std::move(w));
      }
    }
    if (state != State::down) driver.confirm_pass(pending, on_visible);
    now = now_s();
    if (n < kIssueBatch) {
      probe_gap();
      now = now_s();
    }
  }

  const double drain_from = now_s();
  for (Pending& w : pending) w.sample = false;
  while (!pending.empty() && now_s() - drain_from < 10.0) {
    driver.confirm_pass(pending, on_visible);
  }
  if (!pending.empty()) result.fail("durable probe: writes not visible 10 s after the window");
  if (cycle < kKillCycles && !options.quick) {
    result.fail("durable probe: fewer kill/recover cycles than planned");
  }

  // Disk footprint before the final checkpoint that stop() writes.
  std::uint64_t disk_bytes = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    for (const char* file : {"/wal.log", "/checkpoint.bin"}) {
      struct stat st {};
      const std::string path = dir + "/node-" + std::to_string(n) + file;
      if (::stat(path.c_str(), &st) == 0) disk_bytes += static_cast<std::uint64_t>(st.st_size);
    }
  }
  check_final_state(*cluster, driver, result);
  cluster->stop();
  cluster.reset();
  std::filesystem::remove_all(dir);

  const Summary vis = summarize(visibility_ms);
  std::fprintf(stderr,
               "durable probe: %llu writes at %.0f/s, %d kill/recover cycles, "
               "visibility p50 %.3f ms p99 %.3f ms (n=%zu)\n",
               static_cast<unsigned long long>(driver.issued()), kDurableRate,
               cycle, vis.p50, vis.p99, vis.n);
  std::vector<double> lags_ms;
  for (const double lag : gen.lags_s()) lags_ms.push_back(lag * 1e3);
  result.metric("durability.visibility_p50_ms", vis.p50, "ms");
  result.metric("durability.visibility_p99_ms", vis.p99, "ms");
  result.metric("driver.lag_ms_p99", summarize(lags_ms).p99, "ms");
  result.metric("durability.recovery_ms", median(recovery_ms), "ms");
  result.metric("durability.restart_ms", median(restart_ms), "ms");
  result.metric("durability.replay_ms", median(replay_ms), "ms");
  result.metric("durability.replay_records", median(replay_records), "count");
  result.metric("durability.replay_bytes", median(replay_bytes), "B");
  result.metric("durability.catchup_ms", median(catchup_ms), "ms");
  result.metric("durability.disk_bytes_per_user_byte",
                static_cast<double>(disk_bytes) /
                    (static_cast<double>(driver.user_bytes()) * kNodes),
                "frac");
  probe_durability(UpdateShape{key_of(driver.issued() / 2).size(), kValueBytes},
                   options.scratch + "/store", kCheckpointEvery,
                   options.quick ? 50 : 1000, result);
}

}  // namespace

void run_live_saturate(const Options& options, Result& result) {
  // probe_gap's sleeps: microseconds, not the default 50 us of slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  double setup_s = 0.0;
  std::unique_ptr<LocalCluster> cluster =
      set_up(options, options.quick ? 2 : 9, setup_s, result);
  Tracer tracer(options.trace);
  // The warm-up write holds origin sequence number 1.
  Driver driver(*cluster, tracer, kTraceEverySaturate, options.seed, 2);
  std::vector<Pending> pending;
  pending.reserve(kWindow);
  const std::uint64_t epoch_writes = options.quick ? 5000 : kEpochWrites;

  // The timed window counts only the time clusters take writes; replacing a
  // cluster between epochs (drain, checks, stop, start) is left out, and
  // visibility is bucketed on the window's own clock.
  const double window = options.quick ? 0.5 : options.seconds;
  double active = 0.0;
  double epoch_start = now_s();
  BucketedLatency visible(0.0, options.quick ? 0.1 : 1.0);
  const auto on_visible = [&](double t, double ms) {
    visible.add(active + (t - epoch_start), ms);
  };
  Counters delta;
  double cpu = 0.0;
  for (std::uint64_t epoch = 1;; ++epoch) {
    const Counters before = read_counters(*cluster);
    const double cpu0 = server_cpu_seconds();
    const std::uint64_t epoch_end = driver.issued() + epoch_writes;
    double now = now_s();
    while (active + (now - epoch_start) < window) {
      while (pending.size() < kWindow && driver.issued() < epoch_end) {
        pending.push_back(driver.issue(driver.issued(), now_s(), true));
      }
      if (pending.empty()) break;
      const std::uint64_t before_pass = driver.confirmed();
      driver.confirm_pass(pending, on_visible);
      // Nothing new was visible: pause before probing again.
      if (driver.confirmed() == before_pass) probe_gap();
      now = now_s();
    }
    active += now - epoch_start;
    cpu += server_cpu_seconds() - cpu0;
    Counters epoch_delta = read_counters(*cluster);
    epoch_delta.add(before, /*subtract=*/true);
    delta.add(epoch_delta);

    // Drain: the last window of writes must still become visible; they count
    // as issued but not toward the timed throughput or the percentiles.
    const double drain_from = now_s();
    for (Pending& w : pending) w.sample = false;
    while (!pending.empty() && now_s() - drain_from < 10.0) {
      driver.confirm_pass(pending, on_visible);
    }
    if (!pending.empty()) {
      result.fail("live-saturate: writes not visible 10 s after the window");
      pending.clear();
    }
    check_final_state(*cluster, driver, result);
    cluster->stop();
    cluster.reset();
    if (active >= window || !result.correct()) break;
    cluster = start_cluster(splitmix64(options.seed ^ (0xe90cull + epoch)), result);
    driver.attach(*cluster, 2);
    epoch_start = now_s();
  }
  visible.finish(active);
  report_live(options, driver, tracer, delta, visible, active, cpu, setup_s,
              result);
  if (tracer.enabled()) probe_live_durable(options, result);
}

}  // namespace perfbench
