#include "net/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <thread>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "net/pacer.hpp"

namespace fastcons {

LocalCluster::LocalCluster(const Graph& topology, ClusterConfig config)
    : seconds_per_unit_(config.seconds_per_unit) {
  if (!config.demands.empty() && config.demands.size() != topology.size()) {
    throw ConfigError("cluster demand vector size mismatch");
  }
  // Peers dial the address the listeners are actually reachable on: the
  // bind address itself, except for the wildcard (not dialable — binding
  // 0.0.0.0 admits non-local clients while the mesh dials loopback).
  const std::string connect_host =
      config.bind_address == "0.0.0.0" ? "127.0.0.1" : config.bind_address;
  // Phase 1: construct all servers so every listener knows its port.
  Rng rng(config.seed);
  for (NodeId n = 0; n < topology.size(); ++n) {
    ServerConfig sc;
    sc.self = n;
    sc.protocol = config.protocol;
    sc.seconds_per_unit = config.seconds_per_unit;
    sc.bind_address = config.bind_address;
    sc.demand = config.demands.empty() ? 0.0 : config.demands[n];
    sc.seed = rng.next_u64();
    if (!config.durability_dir.empty()) {
      sc.durability.dir =
          config.durability_dir + "/node-" + std::to_string(n);
      sc.durability.fsync = config.fsync;
      sc.durability.checkpoint_every = config.checkpoint_every;
    }
    if (config.outbound_fault) {
      sc.outbound_fault = [fault = config.outbound_fault, n](NodeId to) {
        return fault(n, to);
      };
    }
    configs_.push_back(sc);
    servers_.push_back(std::make_unique<ReplicaServer>(std::move(sc)));
    // Pin the learned ephemeral port so restart(n) rebinds the same one.
    configs_.back().listen_port = servers_.back()->port();
  }
  // Phase 2: wire peer addresses along topology edges.
  for (NodeId n = 0; n < topology.size(); ++n) {
    std::vector<PeerAddress> peers;
    for (const Edge& e : topology.neighbours(n)) {
      peers.push_back(PeerAddress{e.peer, connect_host,
                                  servers_[e.peer]->port()});
    }
    peer_tables_.push_back(peers);
    servers_[n]->set_peers(std::move(peers));
  }
  killed_write_seq_.assign(topology.size(), 0);
}

LocalCluster::~LocalCluster() { stop(); }

ReplicaServer& LocalCluster::server(NodeId n) {
  FASTCONS_EXPECTS(n < servers_.size());
  FASTCONS_EXPECTS(servers_[n] != nullptr);
  return *servers_[n];
}

void LocalCluster::start() {
  for (auto& server : servers_) {
    if (server != nullptr) server->start();
  }
  started_ = true;
}

void LocalCluster::stop() {
  for (auto& server : servers_) {
    if (server != nullptr) server->stop();
  }
  started_ = false;
}

bool LocalCluster::alive(NodeId n) const {
  return n < servers_.size() && servers_[n] != nullptr;
}

void LocalCluster::kill(NodeId n) {
  FASTCONS_EXPECTS(n < servers_.size() && servers_[n] != nullptr);
  // Crash semantics: no final checkpoint, so a durable restart exercises
  // real WAL replay instead of the graceful-stop fast path.
  servers_[n]->crash_stop();
  killed_write_seq_[n] = servers_[n]->write_seq();
  servers_[n].reset();
}

void LocalCluster::restart(NodeId n, RestartMode mode) {
  FASTCONS_EXPECTS(n < servers_.size() && servers_[n] == nullptr);
  const std::string& dir = configs_[n].durability.dir;
  if (mode == RestartMode::wipe && !dir.empty()) {
    // A wipe restart models losing the disk along with the process: the
    // reborn node must not find its old checkpoint or WAL.
    ::remove((dir + "/wal.log").c_str());
    ::remove((dir + "/checkpoint.bin").c_str());
    ::remove((dir + "/checkpoint.bin.tmp").c_str());
  }
  servers_[n] = std::make_unique<ReplicaServer>(configs_[n]);
  servers_[n]->set_peers(peer_tables_[n]);
  servers_[n]->resume_write_seq(killed_write_seq_[n]);
  if (started_) servers_[n]->start();
}

bool LocalCluster::converged(std::uint64_t min_updates) const {
  // Killed servers are skipped: convergence is a statement about the
  // replicas that exist. An all-killed cluster has no summaries to compare.
  const ReplicaServer* first = nullptr;
  for (const auto& server : servers_) {
    if (server != nullptr) {
      first = server.get();
      break;
    }
  }
  if (first == nullptr) return min_updates == 0;
  const SummaryVector reference = first->summary();
  if (reference.total() < min_updates) return false;
  for (const auto& server : servers_) {
    if (server == nullptr || server.get() == first) continue;
    if (!(server->summary() == reference)) return false;
  }
  return true;
}

bool LocalCluster::poll_until(double timeout_seconds,
                              const std::function<bool()>& done) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  // A twentieth of a session period, clamped to sane wall-clock bounds:
  // responsive for test-speed clusters (ms periods) without busy-spinning,
  // and not comatose for daemon-speed ones (second periods).
  const double poll_seconds =
      std::clamp(seconds_per_unit_ / 20.0, 0.0005, 0.05);
  const auto poll_interval = std::chrono::duration<double>(poll_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(poll_interval);
  }
  return done();
}

bool LocalCluster::wait_for_convergence(double timeout_seconds,
                                        std::uint64_t min_updates) {
  return poll_until(timeout_seconds, [&] { return converged(min_updates); });
}

bool LocalCluster::all_peers_up() const {
  for (std::size_t n = 0; n < servers_.size(); ++n) {
    if (servers_[n] == nullptr) continue;
    const NetStats net = servers_[n]->net_stats();
    for (const PeerNetStats& peer : net.peers) {
      if (!alive(peer.peer)) continue;  // down is the right answer here
      if (peer.health != PeerHealth::up) return false;
    }
  }
  return true;
}

bool LocalCluster::wait_for_peer_health(double timeout_seconds) {
  return poll_until(timeout_seconds, [&] { return all_peers_up(); });
}

LoadReport LocalCluster::run_load(NodeId writer, double writes_per_sec,
                                  double seconds,
                                  double drain_timeout_seconds) {
  FASTCONS_EXPECTS(alive(writer));
  if (writes_per_sec <= 0.0 || seconds <= 0.0) {
    throw ConfigError("run_load needs a positive rate and duration");
  }
  using Clock = std::chrono::steady_clock;
  struct Outstanding {
    std::string key;
    Clock::time_point issued;
    std::size_t next_node = 0;  // replicas [0, next_node) confirmed
  };

  LoadReport report;
  std::deque<Outstanding> pending;
  const std::string prefix = "load/" + std::to_string(writer) + "/";

  // Writes confirm roughly in issue order (summaries grow monotonically),
  // so each pass only probes a bounded front window of the queue; entries
  // behind an unconfirmed one are retried on the next pass. Killed servers
  // are skipped, as in converged(): visibility is a statement about the
  // replicas that exist.
  const auto confirm_pass = [&](Clock::time_point now) {
    std::size_t probed = 0;
    while (!pending.empty() && probed < 32) {
      Outstanding& front = pending.front();
      while (front.next_node < servers_.size() &&
             (servers_[front.next_node] == nullptr ||
              servers_[front.next_node]->read(front.key).has_value())) {
        ++front.next_node;
      }
      if (front.next_node < servers_.size()) break;
      report.visibility_latency_ms.add(
          std::chrono::duration<double, std::milli>(now - front.issued)
              .count());
      ++report.writes_confirmed;
      pending.pop_front();
      ++probed;
    }
  };

  const auto start = Clock::now();
  const auto issue_deadline = start + std::chrono::duration<double>(seconds);
  const RatePacer pacer(start, writes_per_sec);
  std::uint64_t i = 0;
  while (Clock::now() < issue_deadline) {
    const auto now = Clock::now();
    if (now >= pacer.due(i)) {
      std::string key = prefix + std::to_string(i);
      servers_[writer]->write(key, "v");
      pending.push_back(Outstanding{std::move(key), now, 0});
      ++report.writes_issued;
      ++i;
      continue;
    }
    confirm_pass(now);
    std::this_thread::sleep_for(pacer.sleep_toward(i, now));
  }
  report.issue_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.achieved_writes_per_sec =
      report.issue_seconds > 0.0
          ? static_cast<double>(report.writes_issued) / report.issue_seconds
          : 0.0;

  const auto drain_start = Clock::now();
  const auto drain_deadline =
      drain_start + std::chrono::duration<double>(drain_timeout_seconds);
  while (!pending.empty() && Clock::now() < drain_deadline) {
    confirm_pass(Clock::now());
    if (pending.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  report.drain_seconds =
      std::chrono::duration<double>(Clock::now() - drain_start).count();
  return report;
}

}  // namespace fastcons
