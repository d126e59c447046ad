// ReplicaServer: the same ReplicaEngine that powers the simulation, run as a
// real networked process component — a poll-driven event loop over TCP with
// exponential session timers and periodic demand adverts.
//
// Threading model: one background thread owns the engine and all sockets.
// Public methods communicate with it through a mutex-guarded command queue
// plus a wake pipe; read-only queries copy state under the same mutex the
// loop holds while touching the engine.
//
// Lock discipline (machine-checked by Clang -Wthread-safety, see
// common/thread_annotations.hpp): engine_mutex_ guards the engine and its
// timer state and NOTHING else. The loop thread takes it to run protocol
// logic (commands, timers, decoded inbound frames) and collect the resulting
// Outbound messages, then releases it before any socket syscall — every
// I/O-performing method below is annotated EXCLUDES(engine_mutex_), so
// connect/send/recv/flush under the engine lock is a compile error, and
// client read()/stats() latency is bounded by engine compute even when a
// peer is unreachable or a connection is backpressured.
//
// Transport state has one owner, the loop thread: each outbound link's
// PeerLink record and the inbound totals. The loop is their only writer, so
// what net_stats() reports is kept in relaxed single-writer atomics that any
// thread may load; no lock guards them and nothing copies them per turn.
#ifndef FASTCONS_NET_SERVER_HPP
#define FASTCONS_NET_SERVER_HPP

#include <poll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/engine.hpp"
#include "durability/store.hpp"
#include "health/peer_health.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace fastcons {

/// Address of a peer replica.
struct PeerAddress {
  NodeId id = kInvalidNode;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Transport health of one outbound peer link.
struct PeerNetStats {
  NodeId peer = kInvalidNode;
  bool connected = false;   ///< established outbound connection
  bool connecting = false;  ///< non-blocking connect in progress
  std::uint64_t frames_sent = 0;   ///< frames accepted into the outbox
  std::uint64_t bytes_sent = 0;    ///< bytes accepted into the outbox
  std::uint64_t frames_dropped = 0;  ///< frames discarded (unreachable, backoff, full outbox)
  std::uint64_t bytes_abandoned = 0;  ///< outbox bytes discarded on disconnect
  std::uint64_t connect_attempts = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;  ///< established connections lost
  double current_backoff_seconds = 0.0;  ///< wait before the next reconnect
  /// Superseded push frames (session/fast payloads) evicted from the
  /// pending queue to make room on outbox overflow — graceful degradation
  /// prefers shedding stale payloads over fresh summaries.
  std::uint64_t frames_shed = 0;
  /// Engine-derived peer health, read from the engine when net_stats() is
  /// called, so operators and the soak harness see the exact state
  /// selection acts on. Stays `up` with zeroed timestamps when health
  /// tracking is disabled.
  PeerHealth health = PeerHealth::up;
  double health_last_heard_units = 0.0;    ///< when we last heard from it
  double health_suspect_since_units = 0.0; ///< degradation start; 0 while up
};

/// Snapshot of a server's transport-layer counters: per-peer link health
/// plus inbound/codec totals. Weak consistency tolerates dropped frames —
/// the next anti-entropy session repairs them — so drops are telemetry
/// here, not errors. Every counter covers the current lifetime only:
/// start() zeroes the inbound totals and the per-peer counters together
/// and closes the connections of the previous lifetime, so after a
/// stop()/start() no field mixes two lifetimes.
struct NetStats {
  std::uint64_t frames_sent = 0;    ///< sum over peers
  std::uint64_t bytes_sent = 0;     ///< sum over peers
  std::uint64_t frames_dropped = 0;  ///< sum over peers
  std::uint64_t bytes_abandoned = 0;  ///< sum over peers
  std::uint64_t connect_attempts = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t frames_received = 0;  ///< complete frames decoded
  std::uint64_t bytes_received = 0;   ///< raw bytes read off inbound sockets
  std::uint64_t inbound_accepted = 0;  ///< inbound connections accepted
  std::uint64_t inbound_closed = 0;    ///< inbound connections closed/EOF
  std::uint64_t codec_errors = 0;  ///< connections dropped on malformed frames
  std::vector<PeerNetStats> peers;  ///< sorted by peer id
};

struct ServerConfig {
  NodeId self = kInvalidNode;
  ProtocolConfig protocol;
  std::vector<PeerAddress> peers;

  /// Listen port; 0 picks an ephemeral port (query port()).
  std::uint16_t listen_port = 0;

  /// Listen address. The loopback default keeps the mesh on one host;
  /// "0.0.0.0" (or an explicit interface address) accepts peers from other
  /// hosts — what fastconsd --bind sets for a real multi-host mesh.
  std::string bind_address = "127.0.0.1";

  /// Wall-clock seconds per protocol time unit (session period). Tests use
  /// small values so sessions fire quickly.
  double seconds_per_unit = 0.05;

  /// The server's own advertised demand (static in the real runtime unless
  /// set_demand() is called).
  double demand = 0.0;

  /// Reconnect backoff bounds (wall-clock seconds). After a connect
  /// failure or disconnect the link waits the current backoff before the
  /// next attempt. The wait grows by seeded decorrelated jitter —
  /// next = min(max, uniform(min, 3 * previous)) — so peers that lost the
  /// same partition retry on diverging schedules instead of the
  /// synchronized storm deterministic doubling produces; it resets to the
  /// min on success. Peers the health layer marks suspect/down get capped
  /// reconnect effort: their wait pins to the max regardless of history.
  double reconnect_backoff_min = 0.05;
  double reconnect_backoff_max = 2.0;

  /// Test transport shim: when set, every outbound frame to `to` is offered
  /// to this predicate before transmission and silently dropped (counted in
  /// NetStats::frames_dropped) when it returns true — the live-path mirror
  /// of the simulator's FaultPlan link loss. Called from the loop thread
  /// only, with no server lock held; the callable must be thread-safe if it
  /// shares state across servers and must not call back into this server.
  std::function<bool(NodeId to)> outbound_fault;

  std::uint64_t seed = 1;

  /// Durable mode (off by default: durability.dir empty). When enabled the
  /// server opens `durability.dir` at start(), recovers checkpoint + WAL
  /// into the engine before serving, appends every newly applied update to
  /// the WAL (group-committed once per loop turn, fsynced per
  /// durability.fsync), and rewrites the checkpoint every
  /// durability.checkpoint_every records.
  DurabilityConfig durability;
};

/// What a durable server found on disk at start(): DurableStore::recover's
/// RecoveryStats plus what the server made of them. Immutable once start()
/// returns (except catchup_remaining, queried separately).
struct RecoveryInfo : RecoveryStats {
  bool attempted = false;            ///< durable mode was on
  bool recovered_from_disk = false;  ///< checkpoint and/or WAL had state
  std::uint64_t restored_updates = 0;  ///< distinct updates in the engine
  /// Wall-clock ms to read, verify and apply checkpoint + WAL (local
  /// recovery only; network catch-up is measured by the caller).
  double load_ms = 0.0;
  /// Peers queued for demand-ordered catch-up sessions at start. 0 after a
  /// WAL-only recovery (no checkpointed neighbour demands): seeding is then
  /// deferred to the first advert round — see catchup_remaining().
  std::size_t catchup_peers = 0;
};

/// A replica server bound to a TCP port.
class ReplicaServer {
 public:
  /// Binds the listener (learning the ephemeral port) without starting the
  /// loop; peers can be configured afterwards, then start() runs the thread.
  explicit ReplicaServer(ServerConfig config);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  std::uint16_t port() const noexcept { return listener_.port(); }
  NodeId self() const noexcept { return config_.self; }

  /// Replaces the peer table (call before start(), and not while another
  /// thread reads net_stats()).
  void set_peers(std::vector<PeerAddress> peers);

  /// Resets every link's transport state and counters, then runs the loop.
  void start() EXCLUDES(engine_mutex_);
  /// Graceful shutdown: flushes the WAL group-commit tail and writes a
  /// final checkpoint (durable mode), so the next start() recovers from
  /// the checkpoint alone with zero WAL replay.
  void stop();
  /// Fault-injection shutdown (LocalCluster::kill): stops the loop like a
  /// crash would — the WAL tail is flushed (the loop had already promised
  /// those records to disk) but NO final checkpoint is written, so restart
  /// exercises real WAL replay.
  void crash_stop();
  bool running() const noexcept { return running_.load(); }

  /// Thread-safe client write; applied on the server thread.
  void write(std::string key, std::string value) EXCLUDES(command_mutex_);

  /// Thread-safe client read of the materialised state.
  std::optional<std::string> read(const std::string& key) const
      EXCLUDES(engine_mutex_);

  /// Thread-safe demand change (advertised from the next advert on).
  void set_demand(double demand) EXCLUDES(command_mutex_);

  /// Snapshots for convergence checks.
  SummaryVector summary() const EXCLUDES(engine_mutex_);
  EngineStats stats() const EXCLUDES(engine_mutex_);
  TrafficCounters traffic() const EXCLUDES(engine_mutex_);

  /// Transport-layer health snapshot (thread-safe). Built from the loop's
  /// own link records when called; each field is read once, so the
  /// snapshot is not one instant across fields, but the totals always equal
  /// the sum over `peers` and no counter goes down between two calls
  /// within one start().
  NetStats net_stats() const EXCLUDES(engine_mutex_);

  /// What recovery found on disk. Filled during start() before the loop
  /// thread exists, immutable afterwards — safe to read once start()
  /// returned. Default (attempted=false) when durability is off.
  const RecoveryInfo& recovery_info() const noexcept { return recovery_; }

  /// Peers still queued for demand-ordered catch-up sessions (0 once the
  /// recovered node has drained its queue; always 0 for non-durable or
  /// fresh-start servers).
  std::size_t catchup_remaining() const EXCLUDES(engine_mutex_);

  /// Order-independent digest of the materialised key-value state — equal
  /// digests mean equal recovered state (crash-consistency checks).
  std::uint64_t kv_digest() const EXCLUDES(engine_mutex_);

  /// The origin write counter (ReplicaEngine::write_seq) of the running
  /// engine or, after stop(), of the last one.
  SeqNo write_seq() const EXCLUDES(engine_mutex_);
  /// Makes the next start() resume the origin write counter at `seq` or
  /// later: how a server that replaces a killed one keeps its identity
  /// (LocalCluster::restart). start() already keeps the counter across
  /// this server's own stop()/start().
  void resume_write_seq(SeqNo seq) EXCLUDES(engine_mutex_);

 private:
  /// A value the loop thread alone writes and any thread may read. Relaxed
  /// loads and stores suffice: with one writer an increment needs no
  /// read-modify-write, and readers want each field, not a cut across them.
  template <typename T>
  class SingleWriter {
   public:
    SingleWriter& operator=(const SingleWriter& other) noexcept {
      set(other.get());
      return *this;
    }
    T get() const noexcept { return value_.load(std::memory_order_relaxed); }
    void set(T value) noexcept {
      value_.store(value, std::memory_order_relaxed);
    }
    void add(T n) noexcept { set(get() + n); }

   private:
    std::atomic<T> value_{};
  };

  /// What net_stats() reports for one link (PeerNetStats minus health).
  struct LinkStats {
    SingleWriter<bool> connected;
    SingleWriter<bool> connecting;  // non-blocking connect awaiting writability
    SingleWriter<double> backoff_seconds;
    SingleWriter<std::uint64_t> frames_sent;
    SingleWriter<std::uint64_t> bytes_sent;
    SingleWriter<std::uint64_t> frames_dropped;
    SingleWriter<std::uint64_t> frames_shed;
    SingleWriter<std::uint64_t> bytes_abandoned;
    SingleWriter<std::uint64_t> connect_attempts;
    SingleWriter<std::uint64_t> connect_failures;
    SingleWriter<std::uint64_t> disconnects;
  };

  /// Transport state for one outbound link, written by the loop thread
  /// alone. Other threads read only `stats`; the rest is loop-thread only
  /// and deliberately carries no annotation.
  struct PeerLink {
    PeerAddress address;
    TcpConnection connection;  // lazily (re)established outbound channel
    std::chrono::steady_clock::time_point next_attempt{};  // epoch = "now"
    /// Frame-granular staging queue above the connection's byte outbox.
    /// Bytes handed to TcpConnection can no longer be dropped selectively,
    /// so frames wait here (oldest first) while the socket outbox sits at
    /// its feed watermark — overflow then sheds superseded pushes from this
    /// queue instead of refusing fresh summaries.
    struct QueuedFrame {
      std::vector<std::uint8_t> bytes;
      bool sheddable = false;  ///< payload class a later session resends
    };
    std::deque<QueuedFrame> pending;
    std::size_t pending_bytes = 0;
    bool staged = false;  ///< queued a frame this turn; transmit() pumps it
    LinkStats stats;
  };
  /// Inbound/codec totals of NetStats, written by the loop thread alone
  /// (start() zeroes them before the loop thread exists).
  struct InboundTotals {
    SingleWriter<std::uint64_t> frames_received;
    SingleWriter<std::uint64_t> bytes_received;
    SingleWriter<std::uint64_t> inbound_accepted;
    SingleWriter<std::uint64_t> inbound_closed;
    SingleWriter<std::uint64_t> codec_errors;
  };
  struct Inbound {
    TcpConnection connection;
    FrameReader reader;
  };

  /// A client call, run on the loop thread under engine_mutex_.
  using Command =
      std::function<void(ReplicaEngine&, double, std::vector<Outbound>&)>;

  /// Queues `command` for the next engine turn, waking the loop only when
  /// the queue was empty (see run_engine_turn).
  void submit(Command command) EXCLUDES(command_mutex_);
  void loop() EXCLUDES(engine_mutex_, command_mutex_);
  /// Runs queued commands and due timers under engine_mutex_, appending
  /// the engine's outbound messages to `outs`. No I/O. Returns the next
  /// timer deadline in protocol units (for the poll timeout).
  double run_engine_turn(std::vector<Outbound>& outs)
      EXCLUDES(engine_mutex_, command_mutex_);
  double now_units() const;
  /// Encodes and stages all of `outs`, then pumps each link that staged a
  /// frame once. Performs socket I/O, so it must not (and cannot, per the
  /// annotation) be called with engine_mutex_ held.
  void transmit(std::vector<Outbound>& outs) EXCLUDES(engine_mutex_);
  /// Stages one frame on `link` (connecting it if needed, shedding on
  /// overflow) and counts the outcome in link.stats. Sends nothing.
  void enqueue_frame(PeerLink& link, std::vector<std::uint8_t> frame,
                     bool sheddable) EXCLUDES(engine_mutex_);
  /// Moves staged frames into the connection's byte outbox while it sits
  /// below the feed watermark (frames past it stay sheddable in `pending`),
  /// then flushes the outbox once unless the connect is still in flight.
  void pump_outbox(PeerLink& link) EXCLUDES(engine_mutex_);
  /// Starts a non-blocking connect if the link is down and its backoff
  /// window has elapsed. Returns true when the link has a usable
  /// (established or connecting) connection afterwards.
  bool ensure_connection(PeerLink& link) EXCLUDES(engine_mutex_);
  void register_connect_failure(PeerLink& link)
      EXCLUDES(engine_mutex_);
  void drop_connection(PeerLink& link, bool was_established)
      EXCLUDES(engine_mutex_);
  /// Advances `link`'s backoff by seeded decorrelated jitter, pinning it to
  /// the max when the health layer has degraded the peer (capped reconnect
  /// effort), and stamps next_attempt.
  void schedule_reconnect(PeerLink& link) EXCLUDES(engine_mutex_);
  /// Engine-side health of `peer` at the current time; `up` when health
  /// tracking is disabled. Optionally records a connect failure first.
  PeerHealth peer_health_state(NodeId peer, bool note_failure)
      EXCLUDES(engine_mutex_);
  /// Resolves a connecting link whose socket turned writable.
  void finish_connect(PeerLink& link) EXCLUDES(engine_mutex_);
  void poll_once(int timeout_ms) EXCLUDES(engine_mutex_);
  /// Drains buffered WAL appends to disk and rewrites the checkpoint when
  /// due. File I/O — runs on the loop thread with no lock held (the engine
  /// lock is taken only briefly to swap the buffer / copy the snapshot).
  void flush_durability() EXCLUDES(engine_mutex_);

  ServerConfig config_;
  TcpListener listener_;

  // Engine state: protocol logic, timers and the timer RNG all advance
  // together under one lock, never across a socket syscall.
  mutable Mutex engine_mutex_;
  std::unique_ptr<ReplicaEngine> engine_ GUARDED_BY(engine_mutex_);
  Rng timer_rng_ GUARDED_BY(engine_mutex_);
  double next_session_units_ GUARDED_BY(engine_mutex_) = 0.0;
  double next_advert_units_ GUARDED_BY(engine_mutex_) = 0.0;
  /// Demand-ordered peers awaiting a catch-up session after recovery; the
  /// loop starts the next one whenever no initiated session is in flight.
  std::vector<NodeId> catchup_queue_ GUARDED_BY(engine_mutex_);
  /// Set after a WAL-only recovery (no checkpoint, so no remembered
  /// neighbour demands): the queue is seeded on the loop thread once the
  /// first advert round has filled the demand table, or at the deadline
  /// below if some neighbours stay silent (they may be down too).
  bool catchup_pending_ GUARDED_BY(engine_mutex_) = false;
  double catchup_seed_deadline_ GUARDED_BY(engine_mutex_) = 0.0;
  /// Floor for the next engine's origin write counter (see start()).
  SeqNo kept_write_seq_ GUARDED_BY(engine_mutex_) = 0;

  /// Updates applied since the last WAL flush. Filled by the engine's
  /// on_delivery hook, which only ever fires inside engine_->... calls made
  /// under engine_mutex_; kept in an unannotated struct because the hook
  /// lambda body is analyzed outside any lock scope (same deliberate gap as
  /// PeerLink). flush_durability() swaps it out under the lock.
  struct WalBuffer {
    std::vector<Update> pending;
  };
  WalBuffer wal_buffer_;

  // Durable storage: owned by start() (recovery) and then the loop thread
  // alone (appends/checkpoints). recovery_ is written before the loop
  // thread starts and immutable after.
  std::unique_ptr<DurableStore> store_;
  RecoveryInfo recovery_;
  std::vector<Update> wal_batch_;  ///< loop-thread scratch for flushes

  WakePipe wake_;
  Mutex command_mutex_;
  std::vector<Command> commands_ GUARDED_BY(command_mutex_);

  /// Sorted by peer id. Its keys are fixed by the constructor and
  /// set_peers(), before the loop or any net_stats() reader runs; after
  /// that only the records' fields change.
  std::map<NodeId, PeerLink> peer_links_;
  InboundTotals inbound_totals_;
  std::vector<Inbound> inbound_;  // loop thread only; start() clears it first

  // Loop-thread scratch, reused across turns so a turn allocates nothing
  // for its bookkeeping: the commands swapped out of commands_, the engine's
  // outbound messages, poll's descriptor set and the links behind its POLLOUT
  // entries, and the bytes and frames read this turn.
  std::vector<Command> command_batch_;
  std::vector<Outbound> outs_;
  std::vector<pollfd> poll_fds_;
  std::vector<PeerLink*> poll_peers_;  // into peer_links_; nodes never move
  std::vector<std::uint8_t> rx_bytes_;
  std::vector<WireFrame> rx_frames_;
  /// Reconnect-jitter stream, derived from the config seed so retry
  /// schedules are reproducible per server yet diverge between servers.
  /// Loop thread only (seeded in the constructor), like PeerLink.
  Rng reconnect_rng_;

  std::chrono::steady_clock::time_point epoch_;  // immutable after start()

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  /// False during crash_stop(): the loop exit skips the final checkpoint.
  std::atomic<bool> final_checkpoint_on_stop_{true};
};

}  // namespace fastcons

#endif  // FASTCONS_NET_SERVER_HPP
