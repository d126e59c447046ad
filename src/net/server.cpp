#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/log.hpp"

namespace fastcons {
namespace {

/// Salt separating the reconnect-jitter stream from the timer stream (both
/// derive from ServerConfig::seed).
constexpr std::uint64_t kReconnectJitterSalt = 0x7E77BACC0FF5EEDull;

/// Per-peer backlog cap: frames beyond this many buffered bytes (socket
/// outbox plus pending queue) are shed or dropped, and counted in NetStats,
/// instead of growing the buffer while a peer is unreachable or stalled.
constexpr std::size_t kMaxPeerOutboxBytes = 4 * 1024 * 1024;

/// Payload-bearing frames a later anti-entropy session resends anyway —
/// safe to shed on outbox overflow. Control traffic (summaries, requests,
/// acks, adverts) is what keeps the protocol converging and stays.
bool is_sheddable_class(TrafficClass cls) noexcept {
  return cls == TrafficClass::session_payload ||
         cls == TrafficClass::fast_payload;
}

}  // namespace

ReplicaServer::ReplicaServer(ServerConfig config)
    : config_(std::move(config)),
      listener_(TcpListener::bind(config_.bind_address, config_.listen_port)),
      timer_rng_(config_.seed),
      reconnect_rng_(config_.seed ^ kReconnectJitterSalt) {
  if (config_.self == kInvalidNode) throw ConfigError("server needs a NodeId");
  if (config_.seconds_per_unit <= 0.0) {
    throw ConfigError("seconds_per_unit must be positive");
  }
  if (config_.reconnect_backoff_min <= 0.0 ||
      config_.reconnect_backoff_max < config_.reconnect_backoff_min) {
    throw ConfigError("reconnect backoff bounds must satisfy 0 < min <= max");
  }
  set_peers(config_.peers);  // builds peer_links_
}

ReplicaServer::~ReplicaServer() { stop(); }

void ReplicaServer::set_peers(std::vector<PeerAddress> peers) {
  FASTCONS_EXPECTS(!running_.load());
  config_.peers = std::move(peers);
  peer_links_.clear();
  for (const PeerAddress& peer : config_.peers) {
    peer_links_[peer.id].address = peer;
  }
}

void ReplicaServer::start() {
  FASTCONS_EXPECTS(!running_.load());
  std::vector<NodeId> neighbour_ids;
  for (const PeerAddress& peer : config_.peers) {
    neighbour_ids.push_back(peer.id);
  }
  // No loop thread runs, so this thread is the counters' one writer here; a
  // concurrent net_stats() reads only the atomics being reset. Link and
  // inbound counters reset together, and the previous loop closed every
  // connection on exit, so one NetStats covers one lifetime and no earlier
  // lifetime's frame reaches this engine.
  inbound_totals_ = InboundTotals{};
  const auto now = std::chrono::steady_clock::now();
  for (auto& [id, link] : peer_links_) {
    link.pending.clear();
    link.pending_bytes = 0;
    link.staged = false;
    link.next_attempt = now;
    link.stats = LinkStats{};
    link.stats.backoff_seconds.set(config_.reconnect_backoff_min);
  }
  if (config_.durability.enabled() && store_ == nullptr) {
    store_ = std::make_unique<DurableStore>(config_.durability);
  }
  // Disk recovery is open/read/fsync-heavy, so it runs BEFORE engine_mutex_
  // is taken. The loop thread does not exist yet, but the blocking-under-
  // lock discipline holds unconditionally — zero exceptions keeps it
  // checkable (and checked: fastcons_lint's blocking-under-lock rule).
  recovery_ = RecoveryInfo{};
  EngineSnapshot snapshot;
  std::chrono::steady_clock::time_point recover_t0{};
  if (store_ != nullptr) {
    recovery_.attempted = true;
    recover_t0 = std::chrono::steady_clock::now();
    snapshot = store_->recover(config_.self, recovery_);
  }
  {
    const MutexLock lock(engine_mutex_);
    // The origin write counter is identity, not data: it outlives the
    // previous engine (stop()/start()) and a replaced server
    // (resume_write_seq), even when the state itself is lost, or this
    // origin would reissue ids its peers still hold.
    if (engine_ != nullptr) {
      kept_write_seq_ = std::max(kept_write_seq_, engine_->write_seq());
    }
    engine_ = std::make_unique<ReplicaEngine>(config_.self,
                                              std::move(neighbour_ids),
                                              config_.protocol,
                                              timer_rng_.next_u64());
    engine_->set_own_demand(config_.demand);
    catchup_queue_.clear();
    catchup_pending_ = false;
    if (recovery_.attempted) {
      if (recovery_.recovered_anything()) {
        recovery_.recovered_from_disk = true;
        engine_->restore(std::move(snapshot));
        // The configured demand wins over the (stale) checkpointed one.
        engine_->set_own_demand(config_.demand);
        recovery_.restored_updates = engine_->summary().total();
        // Catch up what we missed while down, hottest neighbour first —
        // the paper's demand ordering applied to the recovery path. The
        // queue drains one session at a time (see run_engine_turn).
        catchup_queue_ = engine_->demand_table().by_demand_desc(0.0);
        recovery_.catchup_peers = catchup_queue_.size();
        if (catchup_queue_.empty() && !config_.peers.empty()) {
          // WAL-only recovery: the checkpoint (and with it the remembered
          // neighbour demands) is missing, so a demand order cannot be
          // computed yet. Defer seeding until the first advert round has
          // filled the table (run_engine_turn), bounded by a deadline so a
          // neighbour that is itself down cannot stall catch-up forever.
          catchup_pending_ = true;
          const double period = config_.protocol.advert_period > 0.0
                                    ? config_.protocol.advert_period
                                    : config_.protocol.session_period;
          catchup_seed_deadline_ = 4.0 * period;
        }
      }
      recovery_.load_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - recover_t0)
                              .count();
      // Every update applied from here on is logged before the next loop
      // turn's socket I/O. Restored updates were not re-logged: they are
      // already on disk.
      EngineHooks hooks;
      hooks.on_delivery = [this](const Update& update, DeliveryPath,
                                 SimTime) { wal_buffer_.pending.push_back(update); };
      engine_->set_hooks(std::move(hooks));
    }
    if (engine_->write_seq() < kept_write_seq_) {
      engine_->restore_write_seq(kept_write_seq_);
    }
    epoch_ = std::chrono::steady_clock::now();
    next_session_units_ =
        timer_rng_.exponential(config_.protocol.session_period);
    next_advert_units_ =
        config_.protocol.advert_period > 0.0
            ? timer_rng_.uniform(0.0, config_.protocol.advert_period)
            : -1.0;
  }
  stop_requested_.store(false);
  final_checkpoint_on_stop_.store(true);
  running_.store(true);
  thread_ = std::thread([this] { loop(); });
}

void ReplicaServer::stop() {
  // exchange() makes concurrent stop() calls race-free: exactly one caller
  // observes the true->false transition and joins the loop thread.
  if (!running_.exchange(false)) return;
  stop_requested_.store(true);
  wake_.wake();
  if (thread_.joinable()) thread_.join();
}

void ReplicaServer::crash_stop() {
  final_checkpoint_on_stop_.store(false);
  stop();
}

double ReplicaServer::now_units() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  return seconds / config_.seconds_per_unit;
}

void ReplicaServer::submit(Command command) {
  bool was_empty = false;
  {
    const MutexLock lock(command_mutex_);
    was_empty = commands_.empty();
    commands_.push_back(std::move(command));
  }
  // Only the push that makes the queue non-empty wakes the loop; see the
  // swap in run_engine_turn for why the pushes behind it need no wake.
  if (was_empty) wake_.wake();
}

void ReplicaServer::write(std::string key, std::string value) {
  submit([key = std::move(key), value = std::move(value)](
             ReplicaEngine& engine, double now,
             std::vector<Outbound>& outs) mutable {
    engine.local_write(std::move(key), std::move(value), now, outs);
  });
}

void ReplicaServer::set_demand(double demand) {
  submit([demand](ReplicaEngine& engine, double, std::vector<Outbound>&) {
    engine.set_own_demand(demand);
  });
}

std::optional<std::string> ReplicaServer::read(const std::string& key) const {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return std::nullopt;
  return engine_->read(key);
}

SummaryVector ReplicaServer::summary() const {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return SummaryVector{};
  return engine_->summary();
}

EngineStats ReplicaServer::stats() const {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return EngineStats{};
  return engine_->stats();
}

TrafficCounters ReplicaServer::traffic() const {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return TrafficCounters{};
  return engine_->counters();
}

std::size_t ReplicaServer::catchup_remaining() const {
  const MutexLock lock(engine_mutex_);
  std::size_t remaining = catchup_queue_.size();
  // Before deferred seeding resolves, every configured peer still counts as
  // unqueued catch-up work; and a session still in flight counts too —
  // catch-up is done when the queue is empty AND nothing we initiated is
  // pending.
  if (catchup_pending_) remaining += config_.peers.size();
  if (engine_ != nullptr) remaining += engine_->inflight_sessions();
  return remaining;
}

std::uint64_t ReplicaServer::kv_digest() const {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return 0;
  return engine_->log().kv_digest();
}

SeqNo ReplicaServer::write_seq() const {
  const MutexLock lock(engine_mutex_);
  return engine_ != nullptr ? engine_->write_seq() : kept_write_seq_;
}

void ReplicaServer::resume_write_seq(SeqNo seq) {
  const MutexLock lock(engine_mutex_);
  kept_write_seq_ = std::max(kept_write_seq_, seq);
}

NetStats ReplicaServer::net_stats() const {
  NetStats out;
  out.frames_received = inbound_totals_.frames_received.get();
  out.bytes_received = inbound_totals_.bytes_received.get();
  out.inbound_accepted = inbound_totals_.inbound_accepted.get();
  out.inbound_closed = inbound_totals_.inbound_closed.get();
  out.codec_errors = inbound_totals_.codec_errors.get();
  out.peers.reserve(peer_links_.size());
  for (const auto& [id, link] : peer_links_) {
    const LinkStats& s = link.stats;
    PeerNetStats& peer = out.peers.emplace_back();
    peer.peer = id;
    peer.connected = s.connected.get();
    peer.connecting = s.connecting.get();
    peer.frames_sent = s.frames_sent.get();
    peer.bytes_sent = s.bytes_sent.get();
    peer.frames_dropped = s.frames_dropped.get();
    peer.bytes_abandoned = s.bytes_abandoned.get();
    peer.connect_attempts = s.connect_attempts.get();
    peer.connect_failures = s.connect_failures.get();
    peer.disconnects = s.disconnects.get();
    peer.current_backoff_seconds = s.backoff_seconds.get();
    peer.frames_shed = s.frames_shed.get();
    out.frames_sent += peer.frames_sent;
    out.bytes_sent += peer.bytes_sent;
    out.frames_dropped += peer.frames_dropped;
    out.bytes_abandoned += peer.bytes_abandoned;
    out.connect_attempts += peer.connect_attempts;
    out.connect_failures += peer.connect_failures;
    out.disconnects += peer.disconnects;
  }
  if (!config_.protocol.health.enabled) return out;
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return out;
  const double now = now_units();
  for (PeerNetStats& peer : out.peers) {
    const PeerHealthView view = engine_->health_of(peer.peer, now);
    peer.health = view.state;
    peer.health_last_heard_units = view.last_heard;
    peer.health_suspect_since_units = view.suspect_since;
  }
  return out;
}

double ReplicaServer::run_engine_turn(std::vector<Outbound>& outs) {
  {
    // Wakes are coalesced: submit() writes a wake byte only when its push
    // makes the queue non-empty. No command is stranded by that. Every
    // command queued here was pushed after the previous swap, and the first
    // of those pushes found the queue empty and wrote a byte after pushing.
    // That byte is either still in the pipe, so the next poll returns at
    // once, or a poll_once drained it after the push; either way a swap
    // follows that poll (the loop never polls twice without one) and takes
    // every command pushed before it.
    const MutexLock lock(command_mutex_);
    command_batch_.swap(commands_);
  }
  const ProtocolConfig& proto = config_.protocol;
  const MutexLock lock(engine_mutex_);
  const double command_now = now_units();
  for (Command& command : command_batch_) command(*engine_, command_now, outs);
  command_batch_.clear();

  const double now = now_units();
  if (now >= next_session_units_) {
    engine_->on_session_timer(now, outs);
    next_session_units_ = now + timer_rng_.exponential(proto.session_period);
  }
  if (next_advert_units_ >= 0.0 && now >= next_advert_units_) {
    engine_->on_advert_timer(now, outs);
    next_advert_units_ = now + proto.advert_period;
  }
  engine_->expire_inflight(now);

  // Deferred catch-up seeding (WAL-only recovery, see start()): hold out
  // for an advert from every configured peer so the order reflects their
  // real demands, but never past the deadline.
  if (catchup_pending_) {
    std::vector<NodeId> known = engine_->demand_table().by_demand_desc(now);
    if (known.size() >= config_.peers.size()) {
      catchup_queue_ = std::move(known);
      catchup_pending_ = false;
    } else if (now >= catchup_seed_deadline_) {
      // Deadline: go with what we have — demand-known peers first, the
      // still-silent rest (possibly down themselves) in configured order.
      catchup_queue_ = std::move(known);
      for (const PeerAddress& peer : config_.peers) {
        if (std::find(catchup_queue_.begin(), catchup_queue_.end(),
                      peer.id) == catchup_queue_.end()) {
          catchup_queue_.push_back(peer.id);
        }
      }
      catchup_pending_ = false;
    }
  }

  // Post-recovery catch-up: one demand-ordered session at a time, advancing
  // when the previous one completed or expired. Sequencing (instead of
  // blasting every neighbour at once) keeps the recovered node from
  // self-inflicting a thundering herd, and the demand order means the keys
  // hot-side clients are asking for come back first.
  if (!catchup_queue_.empty() && engine_->inflight_sessions() == 0) {
    const NodeId peer = catchup_queue_.front();
    catchup_queue_.erase(catchup_queue_.begin());
    engine_->start_session_with(peer, now, outs);
  }

  double next_deadline = next_session_units_;
  if (next_advert_units_ >= 0.0) {
    next_deadline = std::min(next_deadline, next_advert_units_);
  }
  return next_deadline;
}

PeerHealth ReplicaServer::peer_health_state(NodeId peer, bool note_failure) {
  const MutexLock lock(engine_mutex_);
  if (engine_ == nullptr) return PeerHealth::up;
  const double now = now_units();
  if (note_failure) engine_->note_peer_failure(peer, now);
  return engine_->health_of(peer, now).state;
}

void ReplicaServer::schedule_reconnect(PeerLink& link) {
  // Decorrelated jitter: next = min(cap, uniform(min, 3 * previous)).
  // Deterministic doubling gives every peer that lost the same partition an
  // identical retry schedule — a synchronized reconnect storm the moment it
  // heals; the seeded jitter decorrelates the schedules while keeping each
  // server reproducible.
  const double lo = config_.reconnect_backoff_min;
  const double hi = std::max(lo, link.stats.backoff_seconds.get() * 3.0);
  double next = std::min(reconnect_rng_.uniform(lo, hi),
                         config_.reconnect_backoff_max);
  // Graceful degradation: a peer the health layer already degraded gets
  // capped reconnect effort — one attempt per max-backoff window — instead
  // of eagerly burning connect attempts on a likely-dead address.
  if (peer_health_state(link.address.id, /*note_failure=*/false) !=
      PeerHealth::up) {
    next = config_.reconnect_backoff_max;
  }
  link.stats.backoff_seconds.set(next);
  link.next_attempt =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(next));
}

void ReplicaServer::register_connect_failure(PeerLink& link) {
  link.stats.connecting.set(false);
  link.stats.connected.set(false);
  link.stats.connect_failures.add(1);
  // The failure feeds the health layer before the backoff is drawn, so the
  // attempt that crosses failure_threshold already reconnects at the cap.
  peer_health_state(link.address.id, /*note_failure=*/true);
  schedule_reconnect(link);
}

void ReplicaServer::drop_connection(PeerLink& link, bool was_established) {
  const std::size_t abandoned =
      link.connection.pending_output_bytes() + link.pending_bytes;
  link.connection.close();
  link.pending.clear();
  link.pending_bytes = 0;
  link.stats.connecting.set(false);
  link.stats.connected.set(false);
  link.stats.bytes_abandoned.add(abandoned);
  if (was_established) link.stats.disconnects.add(1);
  schedule_reconnect(link);
}

bool ReplicaServer::ensure_connection(PeerLink& link) {
  if (link.connection.valid()) return true;
  if (std::chrono::steady_clock::now() < link.next_attempt) return false;
  link.stats.connect_attempts.add(1);
  try {
    link.connection =
        TcpConnection::connect(link.address.host, link.address.port);
  } catch (const TransportError& e) {
    FASTCONS_LOG(debug, "net") << "connect to " << link.address.id
                               << " failed: " << e.what();
    register_connect_failure(link);
    return false;
  }
  link.stats.connecting.set(true);
  return true;
}

void ReplicaServer::finish_connect(PeerLink& link) {
  const int err = link.connection.pending_error();
  if (err != 0) {
    FASTCONS_LOG(debug, "net") << "async connect to " << link.address.id
                               << " failed: " << std::strerror(err);
    link.connection.close();
    register_connect_failure(link);
    return;
  }
  link.stats.connecting.set(false);
  link.stats.connected.set(true);
  link.stats.backoff_seconds.set(config_.reconnect_backoff_min);
  pump_outbox(link);
}

void ReplicaServer::pump_outbox(PeerLink& link) {
  if (!link.connection.valid()) return;
  // Feed the byte outbox only up to a watermark: bytes handed to the
  // connection can no longer be shed selectively, so the bulk of a backlog
  // waits frame-granular in link.pending where overflow can still evict
  // superseded pushes.
  const std::size_t watermark = std::max<std::size_t>(
      64 * 1024, kMaxPeerOutboxBytes / 4);
  while (!link.pending.empty() &&
         link.connection.pending_output_bytes() < watermark) {
    link.connection.queue(link.pending.front().bytes);
    link.pending_bytes -= link.pending.front().bytes.size();
    link.pending.pop_front();
  }
  // Handshake still in flight: the bytes wait until writability resolves
  // it. Otherwise everything staged leaves in one flush, one send(2) unless
  // the kernel takes only part of it.
  if (link.stats.connecting.get() || !link.connection.has_pending_output()) {
    return;
  }
  if (link.connection.flush() == IoStatus::error) {
    drop_connection(link, /*was_established=*/true);
  }
}

void ReplicaServer::enqueue_frame(PeerLink& link,
                                  std::vector<std::uint8_t> frame,
                                  bool sheddable) {
  if (config_.outbound_fault && config_.outbound_fault(link.address.id)) {
    // Injected loss: drop before the link ever sees the frame, so the shim
    // exercises the same recovery path as a genuinely lossy network.
    link.stats.frames_dropped.add(1);
    return;
  }
  if (!ensure_connection(link)) {
    // Weak consistency tolerates message loss: the next session retries.
    link.stats.frames_dropped.add(1);
    return;
  }
  std::size_t buffered =
      link.connection.pending_output_bytes() + link.pending_bytes;
  if (buffered + frame.size() > kMaxPeerOutboxBytes) {
    // Overflow: evict superseded pushes, oldest first — their payloads are
    // re-sent by the next session anyway, while a summary or advert dropped
    // here would stall convergence for a whole session period.
    for (auto qit = link.pending.begin();
         qit != link.pending.end() &&
         buffered + frame.size() > kMaxPeerOutboxBytes;) {
      if (!qit->sheddable) {
        ++qit;
        continue;
      }
      buffered -= qit->bytes.size();
      link.pending_bytes -= qit->bytes.size();
      link.stats.frames_shed.add(1);
      qit = link.pending.erase(qit);
    }
  }
  if (buffered + frame.size() > kMaxPeerOutboxBytes) {
    // Still no room: the backlog is all control traffic (or the new frame
    // is enormous); drop the newcomer as before.
    link.stats.frames_dropped.add(1);
    return;
  }
  link.stats.frames_sent.add(1);
  link.stats.bytes_sent.add(frame.size());
  link.staged = true;
  link.pending_bytes += frame.size();
  link.pending.push_back(PeerLink::QueuedFrame{std::move(frame), sheddable});
}

void ReplicaServer::transmit(std::vector<Outbound>& outs) {
  if (outs.empty()) return;
  // Stage every frame first, so each link below sends its share of the
  // turn in one flush instead of one send(2) per frame.
  for (Outbound& out : outs) {
    const auto it = peer_links_.find(out.to);
    if (it == peer_links_.end()) continue;
    const bool sheddable = is_sheddable_class(traffic_class_of(out.msg));
    enqueue_frame(it->second, encode_frame(config_.self, out.msg), sheddable);
  }
  outs.clear();
  for (auto& [id, link] : peer_links_) {
    if (std::exchange(link.staged, false)) pump_outbox(link);
  }
}

void ReplicaServer::poll_once(int timeout_ms) {
  std::vector<pollfd>& fds = poll_fds_;
  std::vector<PeerLink*>& peer_order = poll_peers_;
  fds.clear();
  peer_order.clear();
  fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
  fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  const std::size_t inbound_base = fds.size();
  for (Inbound& in : inbound_) {
    fds.push_back(pollfd{in.connection.fd(), POLLIN, 0});
  }
  const std::size_t peer_base = fds.size();
  for (auto& [id, link] : peer_links_) {
    if (link.connection.valid() &&
        (link.stats.connecting.get() || link.connection.has_pending_output() ||
         !link.pending.empty())) {
      fds.push_back(pollfd{link.connection.fd(), POLLOUT, 0});
      peer_order.push_back(&link);
    }
  }

  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return;

  if ((fds[0].revents & POLLIN) != 0) wake_.drain();

  if ((fds[1].revents & POLLIN) != 0) {
    while (auto conn = listener_.accept()) {
      inbound_.push_back(Inbound{std::move(*conn), FrameReader{}});
      inbound_totals_.inbound_accepted.add(1);
    }
  }

  // Inbound traffic: read and decode WITHOUT the engine lock. Only walk the
  // connections that were polled: the accept loop above can grow inbound_
  // beyond the fds we registered.
  const std::size_t polled_inbound = peer_base - inbound_base;
  std::vector<WireFrame>& frames = rx_frames_;
  std::vector<std::uint8_t>& bytes = rx_bytes_;
  frames.clear();
  for (std::size_t i = 0; i < polled_inbound; ++i) {
    const short revents = fds[inbound_base + i].revents;
    if ((revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Inbound& in = inbound_[i];
    bytes.clear();
    const IoStatus status = in.connection.read_available(bytes);
    if (!bytes.empty()) {
      inbound_totals_.bytes_received.add(bytes.size());
      in.reader.feed(bytes);
      try {
        while (auto frame = in.reader.next()) {
          frames.push_back(std::move(*frame));
        }
      } catch (const CodecError& e) {
        FASTCONS_LOG(warn, "net") << "dropping connection: " << e.what();
        in.connection.close();
        inbound_totals_.codec_errors.add(1);
      }
    }
    if (status == IoStatus::closed || status == IoStatus::error) {
      in.connection.close();
      inbound_totals_.inbound_closed.add(1);
    }
  }
  std::erase_if(inbound_, [](const Inbound& in) {
    return !in.connection.valid();
  });
  inbound_totals_.frames_received.add(frames.size());

  // Peers waiting for writability: connect completions and flushes.
  for (std::size_t i = 0; i < peer_order.size(); ++i) {
    const short revents = fds[peer_base + i].revents;
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
    PeerLink& link = *peer_order[i];
    if (!link.connection.valid()) continue;
    if (link.stats.connecting.get()) {
      finish_connect(link);
    } else {
      // Writable again: staged frames move down to the watermark and leave
      // with the unsent rest in one flush.
      pump_outbox(link);
    }
  }

  // A frame from a peer proves it is back up: cancel any reconnect backoff
  // on our outbound link to it, so replies are not dropped while a stale
  // backoff window (accumulated during the peer's downtime) runs out.
  // Without this, a recovered node's catch-up requests arrive instantly but
  // every response waits for the responder's backoff to expire.
  for (const WireFrame& frame : frames) {
    const auto it = peer_links_.find(frame.sender);
    if (it == peer_links_.end() || it->second.connection.valid()) continue;
    it->second.stats.backoff_seconds.set(config_.reconnect_backoff_min);
    it->second.next_attempt = std::chrono::steady_clock::now();
  }

  // Decoded frames -> engine, in one lock scope; the replies go out after
  // the lock is released.
  if (!frames.empty()) {
    {
      const MutexLock lock(engine_mutex_);
      const double now = now_units();
      for (WireFrame& frame : frames) {
        engine_->handle(frame.sender, std::move(frame.msg), now, outs_);
      }
    }
    transmit(outs_);
  }
}

void ReplicaServer::flush_durability() {
  if (store_ == nullptr) return;
  wal_batch_.clear();
  {
    const MutexLock lock(engine_mutex_);
    wal_batch_.swap(wal_buffer_.pending);
  }
  // Group commit: everything the last turn applied goes down in one write
  // (and at most one fsync). A crash inside this window loses only updates
  // peers still hold — the catch-up sessions re-fetch them.
  store_->append(wal_batch_);
  if (store_->checkpoint_due()) {
    EngineSnapshot snapshot;
    {
      const MutexLock lock(engine_mutex_);
      snapshot = engine_->snapshot();
    }
    store_->write_checkpoint(snapshot);
  }
}

void ReplicaServer::loop() {
  while (!stop_requested_.load()) {
    // Engine work under the lock (no I/O), then disk and socket I/O
    // unlocked. Updates applied by poll_once's frame dispatch are logged
    // here, at most one turn after their replies went out — a bounded
    // group-commit window whose loss a crash recovery re-fetches from the
    // peers that sent them.
    const double next_deadline = run_engine_turn(outs_);
    flush_durability();
    transmit(outs_);

    const double wait_units = std::max(0.0, next_deadline - now_units());
    const int timeout_ms = static_cast<int>(
        std::ceil(wait_units * config_.seconds_per_unit * 1000.0));
    poll_once(std::min(timeout_ms, 50));
  }
  // Graceful shutdown: persist the tail, then write a final checkpoint so a
  // stop/start cycle (as opposed to a crash) recovers byte-exactly from the
  // checkpoint alone — zero WAL records to replay.
  flush_durability();
  if (store_ != nullptr && final_checkpoint_on_stop_.load()) {
    EngineSnapshot snapshot;
    {
      const MutexLock lock(engine_mutex_);
      snapshot = engine_->snapshot();
    }
    store_->write_checkpoint(snapshot);
  }
  // Peers see the stop at once, not at the next start or the destructor.
  // The listener stays bound, so a restart keeps the port.
  inbound_.clear();
  for (auto& [id, link] : peer_links_) {
    link.connection.close();
    link.stats.connecting.set(false);
    link.stats.connected.set(false);
  }
}

}  // namespace fastcons
