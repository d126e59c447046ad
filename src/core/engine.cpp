#include "core/engine.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace fastcons {
namespace {

/// Binary search in a sorted (id, state) vector; returns end() when absent.
template <typename Vec>
auto find_by_id(Vec& entries, std::uint64_t id) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  if (it != entries.end() && it->first == id) return it;
  return entries.end();
}

}  // namespace

std::string_view delivery_path_name(DeliveryPath p) noexcept {
  switch (p) {
    case DeliveryPath::local_write: return "local-write";
    case DeliveryPath::session: return "session";
    case DeliveryPath::fast_push: return "fast-push";
  }
  return "?";
}

ReplicaEngine::ReplicaEngine(NodeId self, std::vector<NodeId> neighbours,
                             ProtocolConfig config, std::uint64_t seed)
    : self_(self),
      config_(config),
      rng_(seed),
      table_(std::move(neighbours)),
      policy_(make_policy(config.selection)) {
  FASTCONS_EXPECTS(config_.session_period > 0.0);
  FASTCONS_EXPECTS(config_.fast_fanout >= 1);
  health_.reset(config_.health);
  for (const DemandEntry& entry : table_.entries()) {
    health_.add_peer(entry.peer, 0.0);
  }
  seat_peer_knowledge();
}

void ReplicaEngine::reset(NodeId self, const std::vector<NodeId>& neighbours,
                          const ProtocolConfig& config, std::uint64_t seed) {
  FASTCONS_EXPECTS(config.session_period > 0.0);
  FASTCONS_EXPECTS(config.fast_fanout >= 1);
  // The policy object is stateless apart from its cycle bookkeeping, so it
  // is reused (and told to forget the cycle) unless the selection strategy
  // itself changed.
  if (policy_ == nullptr || config.selection != config_.selection) {
    policy_ = make_policy(config.selection);
  } else {
    policy_->reset();
  }
  self_ = self;
  config_ = config;
  rng_ = Rng(seed);
  log_.clear();
  table_.reset(neighbours);
  health_.reset(config_.health);
  for (const DemandEntry& entry : table_.entries()) {
    health_.add_peer(entry.peer, 0.0);
  }
  hooks_ = EngineHooks{};
  stats_ = EngineStats{};
  counters_ = TrafficCounters{};
  own_demand_ = 0.0;
  next_seq_ = 0;
  next_session_ = 0;
  next_offer_ = 0;
  sessions_.clear();
  offers_.clear();
  seat_peer_knowledge();
}

void ReplicaEngine::seat_peer_knowledge() {
  // Resizing keeps the surviving entries' summary buffers; re-keying and
  // clearing them makes the table what a fresh engine would build.
  const std::vector<DemandEntry>& neighbours = table_.entries();
  peer_knowledge_.resize(neighbours.size());
  for (std::size_t i = 0; i < neighbours.size(); ++i) {
    peer_knowledge_[i].first = neighbours[i].peer;
    peer_knowledge_[i].second.clear();
  }
  std::sort(peer_knowledge_.begin(), peer_knowledge_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

void ReplicaEngine::prime_neighbour_demand(NodeId peer, double demand,
                                           SimTime /*now*/) {
  table_.update(peer, demand);
}

void ReplicaEngine::add_overlay_neighbour(NodeId peer, SimTime now) {
  table_.add_neighbour(peer);
  health_.add_peer(peer, now);
  policy_->reset();
  // A former stranger keeps what was learnt about it.
  knowledge_for(peer);
}

void ReplicaEngine::send(std::vector<Outbound>& out, NodeId to, Message msg) {
  counters_.record(traffic_class_of(msg), estimated_wire_size(msg));
  out.push_back(Outbound{to, std::move(msg)});
}

// --------------------------------------------------------------------------
// Applying updates

std::vector<OfferedId> ReplicaEngine::apply_all(std::vector<Update>&& updates,
                                                DeliveryPath path,
                                                SimTime now) {
  std::vector<OfferedId> gained;
  for (Update& update : updates) {
    if (const Update* stored = log_.apply_moved(std::move(update))) {
      ++stats_.updates_applied;
      gained.push_back(OfferedId{stored->id, stored->created_at});
      if (hooks_.on_delivery) hooks_.on_delivery(*stored, path, now);
    } else {
      ++stats_.duplicate_updates;
    }
  }
  return gained;
}

// --------------------------------------------------------------------------
// Client writes

std::vector<Outbound> ReplicaEngine::local_write(std::string key,
                                                 std::string value,
                                                 SimTime now) {
  std::vector<Outbound> out;
  local_write(std::move(key), std::move(value), now, out);
  return out;
}

void ReplicaEngine::local_write(std::string key, std::string value, SimTime now,
                                std::vector<Outbound>& out) {
  std::vector<Update> one;
  one.push_back(Update{UpdateId{self_, ++next_seq_}, now, std::move(key),
                       std::move(value)});
  const std::vector<OfferedId> gained =
      apply_all(std::move(one), DeliveryPath::local_write, now);
  FASTCONS_ASSERT(gained.size() == 1);
  after_gain(gained, kInvalidNode, DeliveryPath::local_write, now, out);
}

// --------------------------------------------------------------------------
// Anti-entropy sessions (paper §2.1 steps 1-12)

void ReplicaEngine::maybe_auto_truncate() {
  if (!config_.auto_truncate) return;
  // The frontier needs evidence about every neighbour; one we have never
  // exchanged summaries with has an empty summary, making the meet empty.
  SummaryVector stable = log_.summary();
  for (const DemandEntry& entry : table_.entries()) {
    const SummaryVector& known = neighbour_knowledge(entry.peer);
    if (known.empty()) return;  // the meet would truncate nothing
    stable = SummaryVector::meet(stable, known);
  }
  stats_.payloads_truncated += log_.truncate_below(stable);
}

std::vector<Outbound> ReplicaEngine::on_session_timer(SimTime now) {
  std::vector<Outbound> out;
  on_session_timer(now, out);
  return out;
}

void ReplicaEngine::on_session_timer(SimTime now, std::vector<Outbound>& out) {
  expire_inflight(now);
  maybe_auto_truncate();
  const NodeId peer = policy_->choose(table_, now, rng_, health_if_enabled());
  if (peer == kInvalidNode) return;
  start_session_with(peer, now, out);
}

void ReplicaEngine::start_session_with(NodeId peer, SimTime now,
                                       std::vector<Outbound>& out) {
  const std::uint64_t session_id =
      (static_cast<std::uint64_t>(self_) << 32) | ++next_session_;
  sessions_.emplace_back(session_id,
                         SessionState{peer, now, /*awaiting_reply=*/false});
  ++stats_.sessions_initiated;
  send(out, peer, SessionRequest{session_id});
}

void ReplicaEngine::on_session_request(NodeId from, const SessionRequest& m,
                                       SimTime /*now*/,
                                       std::vector<Outbound>& out) {
  // Step 4: "B sends to E its summary vector." The responder keeps no state;
  // everything it needs later arrives inside SessionPush.
  send(out, from, SessionSummary{m.session_id, log_.summary()});
}

void ReplicaEngine::on_session_summary(NodeId from, const SessionSummary& m,
                                       SimTime now,
                                       std::vector<Outbound>& out) {
  const auto it = find_by_id(sessions_, m.session_id);
  if (it == sessions_.end() || it->second.peer != from ||
      it->second.awaiting_reply) {
    return;  // stale or spoofed; the session already timed out
  }
  it->second.awaiting_reply = true;
  it->second.started_at = now;
  // Steps 7-8: send the messages the partner has not seen. Ids truncated
  // out of the log fall back to a full transfer of what we retain.
  std::vector<UpdateId> truncated;
  std::vector<Update> missing = log_.updates_for(m.summary, &truncated);
  if (!truncated.empty()) {
    missing = log_.all_retained();
  }
  SummaryVector& known = knowledge_for(from);
  known.merge(m.summary);
  for (const Update& u : missing) known.add(u.id);
  send(out, from, SessionPush{m.session_id, log_.summary(), std::move(missing)});
}

void ReplicaEngine::on_session_push(NodeId from, SessionPush m, SimTime now,
                                    std::vector<Outbound>& out) {
  // The initiator's summary plus the updates it just sent describe
  // everything it will hold once this exchange completes. Nothing below
  // adds a peer entry, so `known` stays valid to the reply.
  SummaryVector& known = knowledge_for(from);
  known.merge(m.summary);
  for (const Update& u : m.updates) known.add(u.id);
  SummaryVector their_view = std::move(m.summary);
  for (const Update& u : m.updates) their_view.add(u.id);
  const std::vector<OfferedId> gained =
      apply_all(std::move(m.updates), DeliveryPath::session, now);
  // Steps 10-11: reply with what the initiator lacks.
  std::vector<UpdateId> truncated;
  std::vector<Update> reply = log_.updates_for(their_view, &truncated);
  if (!truncated.empty()) {
    reply = log_.all_retained();
  }
  for (const Update& u : reply) known.add(u.id);
  send(out, from, SessionReply{m.session_id, std::move(reply)});
  ++stats_.sessions_responded;
  if (hooks_.on_session_complete) hooks_.on_session_complete(from, now);
  // Steps 12-13: novel content arrived -> fast update part takes over.
  after_gain(gained, from, DeliveryPath::session, now, out);
}

void ReplicaEngine::on_session_reply(NodeId from, SessionReply m, SimTime now,
                                     std::vector<Outbound>& out) {
  const auto it = find_by_id(sessions_, m.session_id);
  if (it == sessions_.end() || it->second.peer != from) return;
  sessions_.erase(it);
  {
    SummaryVector& known = knowledge_for(from);
    for (const Update& u : m.updates) known.add(u.id);
  }
  const std::vector<OfferedId> gained =
      apply_all(std::move(m.updates), DeliveryPath::session, now);
  ++stats_.sessions_completed;
  if (hooks_.on_session_complete) hooks_.on_session_complete(from, now);
  after_gain(gained, from, DeliveryPath::session, now, out);
}

void ReplicaEngine::expire_inflight(SimTime now) {
  if (config_.session_timeout <= 0.0) return;
  std::erase_if(sessions_, [&](const auto& entry) {
    if (now - entry.second.started_at <= config_.session_timeout) return false;
    ++stats_.sessions_expired;
    return true;
  });
  std::erase_if(offers_, [&](const auto& entry) {
    return now - entry.second.started_at > config_.session_timeout;
  });
}

// --------------------------------------------------------------------------
// Fast updates (paper §2.1 steps 13-18)

void ReplicaEngine::after_gain(const std::vector<OfferedId>& gained,
                               NodeId source, DeliveryPath path, SimTime now,
                               std::vector<Outbound>& out) {
  if (!config_.fast_push || gained.empty()) return;
  if (!config_.push_on_any_gain && path != DeliveryPath::local_write) return;

  const PeerHealthTracker* health = health_if_enabled();
  std::size_t sent = 0;
  table_.by_demand_desc(now, health, push_order_);
  for (const RankedPeer& ranked : push_order_) {
    const NodeId peer = ranked.peer;
    if (sent >= config_.fast_fanout) break;
    if (peer == source) continue;
    if (config_.push_rule == FastPushRule::gradient) {
      // "the neighbour with even greater demand": the chain only continues
      // downhill into the demand valley. Health decay ages a suspect peer's
      // demand, so pushes stop chasing silent peers before they are declared
      // fully down.
      const auto demand = table_.demand_of(peer);
      if (!demand.has_value()) continue;
      double effective = *demand;
      if (health != nullptr) effective *= health->demand_factor(peer, now);
      if (effective <= own_demand_) {
        if (health != nullptr && *demand > own_demand_) {
          ++stats_.pushes_suppressed_unhealthy;
        }
        continue;
      }
    }
    if (peer_known_to_have_all(peer, gained)) continue;
    FastOffer offer;
    offer.offer_id = (static_cast<std::uint64_t>(self_) << 32) | ++next_offer_;
    OfferState state{peer, now, {}};
    const SummaryVector& knowledge = knowledge_for(peer);
    for (const OfferedId& u : gained) {
      if (knowledge.contains(u.id)) continue;
      offer.offered.push_back(u);
      state.offered.push_back(u.id);
    }
    if (offer.offered.empty()) continue;
    offers_.emplace_back(offer.offer_id, std::move(state));
    ++stats_.offers_sent;
    send(out, peer, std::move(offer));
    ++sent;
  }
}

void ReplicaEngine::on_fast_offer(NodeId from, const FastOffer& m,
                                  SimTime now, std::vector<Outbound>& out) {
  ++stats_.offers_received;
  (void)now;
  FastAck ack;
  ack.offer_id = m.offer_id;
  std::vector<UpdateId> missing;
  SummaryVector& known = knowledge_for(from);
  for (const OfferedId& offered : m.offered) {
    known.add(offered.id);  // the offerer evidently has it
    if (!log_.contains(offered.id)) missing.push_back(offered.id);
  }
  ack.yes = !missing.empty();
  if (config_.ack_mode == FastAckMode::subset) ack.wanted = std::move(missing);
  if (ack.yes) {
    ++stats_.offers_accepted;
  } else {
    ++stats_.offers_declined;
  }
  send(out, from, std::move(ack));
}

void ReplicaEngine::on_fast_ack(NodeId from, const FastAck& m, SimTime /*now*/,
                                std::vector<Outbound>& out) {
  const auto it = find_by_id(offers_, m.offer_id);
  if (it == offers_.end() || it->second.peer != from) return;
  const OfferState state = std::move(it->second);
  offers_.erase(it);
  SummaryVector& known = knowledge_for(from);
  if (!m.yes) {
    // Step 18: "B sends nothing" — but we learned the peer has everything.
    for (const UpdateId id : state.offered) known.add(id);
    return;
  }
  // Step 17: send the payloads. Strict YES/NO mode resends the whole offer;
  // subset mode sends exactly what was asked for.
  const std::vector<UpdateId>& ids =
      config_.ack_mode == FastAckMode::subset ? m.wanted : state.offered;
  FastData data;
  data.offer_id = m.offer_id;
  for (const UpdateId id : ids) {
    // Only ship what we actually offered (ignore bogus requests) and still
    // retain (truncation may have raced; sessions will repair).
    if (std::find(state.offered.begin(), state.offered.end(), id) ==
        state.offered.end()) {
      continue;
    }
    if (const Update* update = log_.find(id)) {
      data.updates.push_back(*update);
      known.add(id);
    }
  }
  if (!data.updates.empty()) send(out, from, std::move(data));
}

void ReplicaEngine::on_fast_data(NodeId from, FastData m, SimTime now,
                                 std::vector<Outbound>& out) {
  {
    SummaryVector& known = knowledge_for(from);
    for (const Update& u : m.updates) known.add(u.id);
  }
  const std::vector<OfferedId> gained =
      apply_all(std::move(m.updates), DeliveryPath::fast_push, now);
  // Step 13 applies recursively: novel content chains to the next valley.
  after_gain(gained, from, DeliveryPath::fast_push, now, out);
}

// --------------------------------------------------------------------------
// Demand adverts (paper §4)

std::vector<Outbound> ReplicaEngine::on_advert_timer(SimTime now) {
  std::vector<Outbound> out;
  on_advert_timer(now, out);
  return out;
}

void ReplicaEngine::on_advert_timer(SimTime /*now*/,
                                    std::vector<Outbound>& out) {
  // Every neighbour, down ones included: adverts are the recovery channel
  // that lets a down peer hear from us and answer, so they are never
  // health-gated.
  for (const DemandEntry& entry : table_.entries()) {
    send(out, entry.peer, DemandAdvert{own_demand_});
  }
}

void ReplicaEngine::on_demand_advert(NodeId from, const DemandAdvert& m,
                                     SimTime, std::vector<Outbound>&) {
  table_.update(from, m.demand);
}

// --------------------------------------------------------------------------
// Durability hooks

EngineSnapshot ReplicaEngine::snapshot() const {
  EngineSnapshot s;
  s.self = self_;
  s.write_seq = next_seq_;
  s.next_session = next_session_;
  s.next_offer = next_offer_;
  s.own_demand = own_demand_;
  s.summary = log_.summary();
  s.updates = log_.all_retained();
  s.neighbour_demand.reserve(table_.entries().size());
  for (const DemandEntry& entry : table_.entries()) {
    s.neighbour_demand.emplace_back(entry.peer, entry.demand);
  }
  return s;
}

void ReplicaEngine::restore(EngineSnapshot snapshot) {
  FASTCONS_EXPECTS(snapshot.self == self_);
  // The write counter must resume past every sequence number this origin
  // ever issued: the checkpointed counter covers checkpointed (and
  // truncated) writes, and self-origin updates in the image cover the WAL
  // suffix appended after the checkpoint.
  SeqNo next_seq = snapshot.write_seq;
  for (const Update& u : snapshot.updates) {
    if (u.id.origin == self_ && u.id.seq > next_seq) next_seq = u.id.seq;
  }
  log_.restore(std::move(snapshot.updates), snapshot.summary);
  next_seq_ = next_seq;
  next_session_ = snapshot.next_session;
  next_offer_ = snapshot.next_offer;
  own_demand_ = snapshot.own_demand;
  // Demand figures are stale by exactly the downtime; they order the
  // demand-hot-first catch-up until the first fresh adverts overwrite them.
  for (const auto& [peer, demand] : snapshot.neighbour_demand) {
    table_.update(peer, demand);
  }
}

// --------------------------------------------------------------------------
// Dispatch and peer knowledge

std::vector<Outbound> ReplicaEngine::handle(NodeId from, const Message& msg,
                                            SimTime now) {
  // Runtimes that retain the message (the TCP server, tests) pay one copy;
  // the simulation path calls the appending move overload directly.
  std::vector<Outbound> out;
  handle(from, Message(msg), now, out);
  return out;
}

std::vector<Outbound> ReplicaEngine::handle(NodeId from, Message&& msg,
                                            SimTime now) {
  std::vector<Outbound> out;
  handle(from, std::move(msg), now, out);
  return out;
}

void ReplicaEngine::handle(NodeId from, Message&& msg, SimTime now,
                           std::vector<Outbound>& out) {
  // Any message proves the sender and the link are alive (§4: the table
  // "tells us if this replica is available"). First contact after a `down`
  // verdict re-promotes the peer: the tracker clears its failure run, so
  // demand decay stops on the very next selection pass.
  if (health_.enabled()) health_.record_contact(from, now);
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, SessionRequest>) {
          on_session_request(from, m, now, out);
        } else if constexpr (std::is_same_v<T, SessionSummary>) {
          on_session_summary(from, m, now, out);
        } else if constexpr (std::is_same_v<T, SessionPush>) {
          on_session_push(from, std::move(m), now, out);
        } else if constexpr (std::is_same_v<T, SessionReply>) {
          on_session_reply(from, std::move(m), now, out);
        } else if constexpr (std::is_same_v<T, FastOffer>) {
          on_fast_offer(from, m, now, out);
        } else if constexpr (std::is_same_v<T, FastAck>) {
          on_fast_ack(from, m, now, out);
        } else if constexpr (std::is_same_v<T, FastData>) {
          on_fast_data(from, std::move(m), now, out);
        } else {
          on_demand_advert(from, m, now, out);
        }
      },
      std::move(msg));
}

bool ReplicaEngine::peer_known_to_have_all(
    NodeId peer, const std::vector<OfferedId>& gained) const {
  const SummaryVector& known = neighbour_knowledge(peer);
  return std::all_of(gained.begin(), gained.end(), [&](const OfferedId& u) {
    return known.contains(u.id);
  });
}

SummaryVector& ReplicaEngine::knowledge_for(NodeId peer) {
  auto it = std::lower_bound(
      peer_knowledge_.begin(), peer_knowledge_.end(), peer,
      [](const auto& entry, NodeId key) { return entry.first < key; });
  if (it == peer_knowledge_.end() || it->first != peer) {
    it = peer_knowledge_.emplace(it, peer, SummaryVector{});
  }
  return it->second;
}

const SummaryVector& ReplicaEngine::neighbour_knowledge(NodeId peer) const {
  const auto it = std::lower_bound(
      peer_knowledge_.begin(), peer_knowledge_.end(), peer,
      [](const auto& entry, NodeId key) { return entry.first < key; });
  FASTCONS_ASSERT(it != peer_knowledge_.end() && it->first == peer);
  return it->second;
}

}  // namespace fastcons
