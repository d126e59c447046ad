// LocalCluster: spins up one ReplicaServer per topology node on ephemeral
// ports — the integration harness for running the protocol over real TCP
// (tests, the live_cluster example, and the harness's live scenario family).
#ifndef FASTCONS_NET_CLUSTER_HPP
#define FASTCONS_NET_CLUSTER_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "stats/cdf.hpp"
#include "topology/graph.hpp"

namespace fastcons {

struct ClusterConfig {
  ProtocolConfig protocol;
  /// Wall-clock seconds per session period; keep small in tests.
  double seconds_per_unit = 0.05;
  std::uint64_t seed = 1;
  /// Per-node demands (size must match the topology; empty = all zero).
  std::vector<double> demands;
  /// Listen address for every server. The loopback default keeps the
  /// cluster on one host; "0.0.0.0" also accepts non-local peers (peers
  /// inside the cluster still connect over loopback).
  std::string bind_address = "127.0.0.1";

  /// Test transport shim applied to every server: return true to drop the
  /// outbound frame `from` -> `to` (the live mirror of FaultPlan link
  /// loss). Runs on server loop threads; must be thread-safe.
  std::function<bool(NodeId from, NodeId to)> outbound_fault;

  /// Durable mode for every node: when non-empty, node n persists under
  /// `<durability_dir>/node-<n>` and restart(n, RestartMode::recover)
  /// reloads checkpoint + WAL instead of starting empty. Empty (default)
  /// keeps the cluster fully in-memory.
  std::string durability_dir;
  FsyncPolicy fsync = FsyncPolicy::none;
  std::uint64_t checkpoint_every = 4096;
};

/// What restart(n) does with the killed node's on-disk state.
enum class RestartMode : std::uint8_t {
  /// Reload checkpoint + WAL (a no-op recovery when the cluster is not
  /// durable — the node comes back empty, as before).
  recover,
  /// Delete the node's durable directory first: the reborn node has
  /// nothing and must full-resync. This is the pre-durability behaviour,
  /// kept for wipe-recovery experiments and as the recover-mode control.
  wipe,
};

/// What one run_load() call observed.
struct LoadReport {
  std::uint64_t writes_issued = 0;
  /// Writes confirmed visible on EVERY replica before the drain timeout.
  std::uint64_t writes_confirmed = 0;
  /// Wall-clock length of the issue window, seconds.
  double issue_seconds = 0.0;
  /// writes_issued / issue_seconds — the rate the cluster actually
  /// absorbed (<= the requested rate when the writer saturates).
  double achieved_writes_per_sec = 0.0;
  /// Wall-clock from the last write to full visibility (or timeout).
  double drain_seconds = 0.0;
  /// Per-write full-visibility latency, milliseconds: wall-clock from
  /// write() to the write being readable at every replica.
  EmpiricalCdf visibility_latency_ms;
};

/// Owns n servers wired according to a topology graph.
// Threading: LocalCluster itself holds no mutex on purpose. Its own state
// (the server vector, port map) is written only during construction and
// start()/stop(), which are single-caller by contract; all concurrency
// lives inside the ReplicaServers, whose annotated mutexes (server.hpp)
// make their public API thread-safe. run_load() spawns its writer thread
// but joins it before returning, so no LocalCluster member is ever touched
// from two threads at once.
class LocalCluster {
 public:
  LocalCluster(const Graph& topology, ClusterConfig config);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  std::size_t size() const noexcept { return servers_.size(); }
  ReplicaServer& server(NodeId n);

  void start();
  void stop();

  /// Fault hook: stops and destroys server `n` — its TCP connections drop,
  /// peers fall into reconnect backoff, and all its in-memory replica state
  /// is gone (a live crash is always a wipe). The slot stays reserved;
  /// server(n) must not be called until restart(n).
  void kill(NodeId n);

  /// Rebuilds server `n` from its original config on its original port
  /// (SO_REUSEADDR makes the rebind immediate) and starts it if the
  /// cluster is running. In a durable cluster the default mode recovers
  /// the node's pre-kill state from its checkpoint + WAL and catches up
  /// the rest via demand-ordered anti-entropy; RestartMode::wipe (or a
  /// non-durable cluster) brings it back empty for peers to repopulate.
  /// The node must currently be killed.
  void restart(NodeId n, RestartMode mode = RestartMode::recover);

  /// True while server `n` exists (not killed).
  bool alive(NodeId n) const;

  /// True when every server's summary equals every other's and at least
  /// `min_updates` updates exist. Pass the number of writes you issued:
  /// with the default of 1, a cluster that has fully spread the first write
  /// counts as converged even if a later write is still in flight inside a
  /// server's command queue. An empty cluster is vacuously converged only
  /// when no updates are required.
  bool converged(std::uint64_t min_updates = 1) const;

  /// Polls converged(min_updates) up to `timeout_seconds`; returns success.
  /// The poll interval scales with the configured seconds_per_unit so a
  /// slow cluster is not hammered and a fast one is not over-waited.
  bool wait_for_convergence(double timeout_seconds,
                            std::uint64_t min_updates = 1);

  /// True when every live server reports PeerHealth::up for every peer
  /// that is itself alive (killed nodes are excluded from the requirement —
  /// a dead peer is *supposed* to be marked down). Vacuously true when the
  /// protocol's health tracking is disabled or fewer than two nodes live.
  bool all_peers_up() const;

  /// Polls all_peers_up() up to `timeout_seconds`, at the same scaled
  /// interval as wait_for_convergence(); returns success. This is the
  /// health-layer replacement for fixed post-restart sleeps: it returns as
  /// soon as every recovered peer has been re-promoted.
  bool wait_for_peer_health(double timeout_seconds);

  /// Drives sustained write traffic: issues `writes_per_sec * seconds`
  /// writes at node `writer` on a steady schedule, tracking when each
  /// write becomes visible on every replica. After the issue window, keeps
  /// polling up to `drain_timeout_seconds` for the stragglers. The cluster
  /// must be start()ed. Keys are "load/<writer>/<i>" — unique per call
  /// only if callers vary the writer or restart the cluster.
  LoadReport run_load(NodeId writer, double writes_per_sec, double seconds,
                      double drain_timeout_seconds = 30.0);

 private:
  /// Polls `done` at the scaled interval until it holds or the timeout
  /// passes; returns its last answer.
  bool poll_until(double timeout_seconds,
                  const std::function<bool()>& done) const;

  std::vector<std::unique_ptr<ReplicaServer>> servers_;
  /// Per-node construction inputs, kept so restart(n) can rebuild a killed
  /// server exactly: the ServerConfig (listen_port pinned to the port the
  /// node originally learned) and its peer table.
  std::vector<ServerConfig> configs_;
  std::vector<std::vector<PeerAddress>> peer_tables_;
  double seconds_per_unit_ = 0.05;
  bool started_ = false;
};

}  // namespace fastcons

#endif  // FASTCONS_NET_CLUSTER_HPP
