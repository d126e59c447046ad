// Step-by-step protocol tests: two or three ReplicaEngines driven by hand,
// with every message routed manually so each paper step is observable.
#include "common/text.hpp"
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>

namespace fastcons {
namespace {

ProtocolConfig fast_config() {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.advert_period = 0.0;  // drive adverts manually in these tests
  return cfg;
}

/// Tiny synchronous router: repeatedly delivers queued messages until no
/// engine has anything left to say. Zero latency, deterministic order.
class Router {
 public:
  void add(ReplicaEngine* engine) { engines_[engine->self()] = engine; }

  void enqueue(NodeId from, std::vector<Outbound> msgs) {
    for (Outbound& m : msgs) queue_.push_back({from, std::move(m)});
  }

  /// Delivers everything; returns the number of messages routed.
  std::size_t drain(SimTime now) {
    std::size_t count = 0;
    while (!queue_.empty()) {
      auto [from, out] = std::move(queue_.front());
      queue_.pop_front();
      ++count;
      auto it = engines_.find(out.to);
      EXPECT_TRUE(it != engines_.end()) << "message to unknown node " << out.to;
      if (it == engines_.end()) continue;
      enqueue(out.to, it->second->handle(from, out.msg, now));
    }
    return count;
  }

  std::size_t pending() const { return queue_.size(); }

  /// Drops every queued message (partition simulation).
  void drop_all() { queue_.clear(); }

 private:
  std::map<NodeId, ReplicaEngine*> engines_;
  std::deque<std::pair<NodeId, Outbound>> queue_;
};

TEST(EngineTest, LocalWriteAppliesImmediately) {
  ReplicaEngine e(0, {}, fast_config(), 1);
  const auto out = e.local_write("k", "v", 0.0);
  EXPECT_TRUE(out.empty());  // no neighbours to push to
  EXPECT_EQ(e.read("k"), "v");
  EXPECT_TRUE(e.summary().contains(UpdateId{0, 1}));
  EXPECT_EQ(e.stats().updates_applied, 1u);
}

TEST(EngineTest, LocalWritesNumberSequentially) {
  ReplicaEngine e(5, {}, fast_config(), 1);
  e.local_write("a", "1", 0.0);
  e.local_write("b", "2", 0.0);
  EXPECT_TRUE(e.summary().contains(UpdateId{5, 1}));
  EXPECT_TRUE(e.summary().contains(UpdateId{5, 2}));
  EXPECT_EQ(e.summary().watermark(5), 2u);
}

TEST(EngineTest, FullSessionHandshakeConverges) {
  // Steps 1-12 between two engines, message by message.
  ProtocolConfig cfg = fast_config();
  cfg.fast_push = false;
  ReplicaEngine e(0, {1}, cfg, 1);  // initiator ("E" in the paper)
  ReplicaEngine b(1, {0}, cfg, 2);  // responder ("B")
  e.prime_neighbour_demand(1, 6.0, 0.0);
  b.prime_neighbour_demand(0, 7.0, 0.0);
  e.local_write("x", "from-e", 0.0);
  b.local_write("y", "from-b", 0.0);

  // Step 1-2: E selects B and requests a session.
  auto out = e.on_session_timer(0.1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1u);
  ASSERT_TRUE(std::holds_alternative<SessionRequest>(out[0].msg));

  // Step 3-4: B answers with its summary vector.
  auto reply = b.handle(0, out[0].msg, 0.1);
  ASSERT_EQ(reply.size(), 1u);
  ASSERT_TRUE(std::holds_alternative<SessionSummary>(reply[0].msg));

  // Steps 5-8: E sends its summary plus what B lacks.
  auto push = e.handle(1, reply[0].msg, 0.1);
  ASSERT_EQ(push.size(), 1u);
  const auto& push_msg = std::get<SessionPush>(push[0].msg);
  ASSERT_EQ(push_msg.updates.size(), 1u);
  EXPECT_EQ(push_msg.updates[0].id, (UpdateId{0, 1}));

  // Steps 9-12: B applies, replies with what E lacks.
  auto back = b.handle(0, push[0].msg, 0.1);
  ASSERT_EQ(back.size(), 1u);
  const auto& reply_msg = std::get<SessionReply>(back[0].msg);
  ASSERT_EQ(reply_msg.updates.size(), 1u);
  EXPECT_EQ(reply_msg.updates[0].id, (UpdateId{1, 1}));

  auto done = e.handle(1, back[0].msg, 0.1);
  EXPECT_TRUE(done.empty());

  // "At the end of the session both servers will have the same mutually
  // consistent content."
  EXPECT_EQ(e.summary(), b.summary());
  EXPECT_EQ(e.read("y"), "from-b");
  EXPECT_EQ(b.read("x"), "from-e");
  EXPECT_EQ(e.stats().sessions_completed, 1u);
  EXPECT_EQ(b.stats().sessions_responded, 1u);
  EXPECT_EQ(e.inflight_sessions(), 0u);
}

TEST(EngineTest, SessionTimerWithoutNeighboursIsNoop) {
  ReplicaEngine e(0, {}, fast_config(), 1);
  EXPECT_TRUE(e.on_session_timer(1.0).empty());
  EXPECT_EQ(e.stats().sessions_initiated, 0u);
}

TEST(EngineTest, StaleSessionSummaryIgnored) {
  ReplicaEngine e(0, {1}, fast_config(), 1);
  e.prime_neighbour_demand(1, 1.0, 0.0);
  // A summary for a session we never started must be dropped.
  const auto out = e.handle(1, SessionSummary{0xdead, SummaryVector{}}, 0.0);
  EXPECT_TRUE(out.empty());
}

TEST(EngineTest, SessionSummaryFromWrongPeerIgnored) {
  ReplicaEngine e(0, {1, 2}, fast_config(), 1);
  e.prime_neighbour_demand(1, 2.0, 0.0);
  e.prime_neighbour_demand(2, 1.0, 0.0);
  auto out = e.on_session_timer(0.0);
  ASSERT_EQ(out.size(), 1u);
  const auto session_id = std::get<SessionRequest>(out[0].msg).session_id;
  // Peer 2 tries to hijack peer 1's session.
  EXPECT_TRUE(e.handle(2, SessionSummary{session_id, SummaryVector{}}, 0.0)
                  .empty());
}

TEST(EngineTest, SessionExpiresAfterTimeout) {
  ProtocolConfig cfg = fast_config();
  cfg.session_timeout = 0.5;
  ReplicaEngine e(0, {1}, cfg, 1);
  e.prime_neighbour_demand(1, 1.0, 0.0);
  e.on_session_timer(0.0);
  EXPECT_EQ(e.inflight_sessions(), 1u);
  e.expire_inflight(1.0);
  EXPECT_EQ(e.inflight_sessions(), 0u);
  EXPECT_EQ(e.stats().sessions_expired, 1u);
  // A very late summary is now ignored.
  EXPECT_TRUE(e.handle(1, SessionSummary{(0ull << 32) | 1, SummaryVector{}}, 1.0)
                  .empty());
}

TEST(EngineTest, FastPushTargetsHigherDemandNeighbour) {
  // Paper steps 13-18: B(6) gains an update and must offer it to D(8),
  // not to C(3).
  ReplicaEngine b(1, {2 /*C*/, 3 /*D*/}, fast_config(), 1);
  b.set_own_demand(6.0);
  b.prime_neighbour_demand(2, 3.0, 0.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  const auto out = b.local_write("k", "v", 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 3u);
  const auto& offer = std::get<FastOffer>(out[0].msg);
  ASSERT_EQ(offer.offered.size(), 1u);
  EXPECT_EQ(offer.offered[0].id, (UpdateId{1, 1}));
  EXPECT_EQ(b.stats().offers_sent, 1u);
}

TEST(EngineTest, GradientRuleStopsAtLocalMaximum) {
  // A node whose neighbours all have lower demand must not push (it is the
  // bottom of the demand valley).
  ReplicaEngine d(3, {1, 2}, fast_config(), 1);
  d.set_own_demand(8.0);
  d.prime_neighbour_demand(1, 6.0, 0.0);
  d.prime_neighbour_demand(2, 3.0, 0.0);
  EXPECT_TRUE(d.local_write("k", "v", 0.0).empty());
}

TEST(EngineTest, EqualDemandDegeneratesToWeak) {
  // "The worst case would be when all the replicas possess the same demand;
  // in such a situation the algorithm behaves like a normal weak
  // consistency algorithm" — no pushes at all.
  ReplicaEngine e(0, {1, 2}, fast_config(), 1);
  e.set_own_demand(5.0);
  e.prime_neighbour_demand(1, 5.0, 0.0);
  e.prime_neighbour_demand(2, 5.0, 0.0);
  EXPECT_TRUE(e.local_write("k", "v", 0.0).empty());
}

TEST(EngineTest, UnconstrainedRulePushesDownhillToo) {
  ProtocolConfig cfg = fast_config();
  cfg.push_rule = FastPushRule::unconstrained;
  ReplicaEngine d(3, {2}, cfg, 1);
  d.set_own_demand(8.0);
  d.prime_neighbour_demand(2, 3.0, 0.0);
  EXPECT_EQ(d.local_write("k", "v", 0.0).size(), 1u);
}

TEST(EngineTest, FastOfferAnsweredYesWhenMissing) {
  ReplicaEngine d(3, {1}, fast_config(), 1);
  FastOffer offer{7, {OfferedId{UpdateId{0, 1}, 0.0}}};
  const auto out = d.handle(1, Message{offer}, 0.0);
  ASSERT_EQ(out.size(), 1u);
  const auto& ack = std::get<FastAck>(out[0].msg);
  EXPECT_TRUE(ack.yes);  // step 15: "If D does not have the messages, YES"
  EXPECT_TRUE(ack.wanted.empty());  // yes_no mode carries no id list
  EXPECT_EQ(d.stats().offers_accepted, 1u);
}

TEST(EngineTest, FastOfferAnsweredNoWhenAlreadyKnown) {
  ReplicaEngine d(3, {1}, fast_config(), 1);
  d.set_own_demand(1.0);
  d.handle(1, Message{FastData{1, {Update{UpdateId{0, 1}, 0.0, "k", "v"}}}},
           0.0);
  FastOffer offer{7, {OfferedId{UpdateId{0, 1}, 0.0}}};
  const auto out = d.handle(1, Message{offer}, 0.0);
  const auto& ack = std::get<FastAck>(out[0].msg);
  EXPECT_FALSE(ack.yes);  // "Else answer with NO."
  EXPECT_EQ(d.stats().offers_declined, 1u);
}

TEST(EngineTest, SubsetAckListsExactlyMissingIds) {
  ProtocolConfig cfg = fast_config();
  cfg.ack_mode = FastAckMode::subset;
  ReplicaEngine d(3, {1}, cfg, 1);
  d.handle(1, Message{FastData{1, {Update{UpdateId{0, 1}, 0.0, "k", "v"}}}},
           0.0);
  FastOffer offer{7, {OfferedId{UpdateId{0, 1}, 0.0},
                      OfferedId{UpdateId{0, 2}, 0.0}}};
  const auto out = d.handle(1, Message{offer}, 0.0);
  const auto& ack = std::get<FastAck>(out[0].msg);
  EXPECT_TRUE(ack.yes);
  EXPECT_EQ(ack.wanted, (std::vector<UpdateId>{UpdateId{0, 2}}));
}

TEST(EngineTest, FullFastExchangeDeliversPayload) {
  Router router;
  ReplicaEngine b(1, {3}, fast_config(), 1);
  ReplicaEngine d(3, {1}, fast_config(), 2);
  router.add(&b);
  router.add(&d);
  b.set_own_demand(6.0);
  d.set_own_demand(8.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  d.prime_neighbour_demand(1, 6.0, 0.0);
  router.enqueue(1, b.local_write("k", "v", 0.0));
  router.drain(0.0);
  EXPECT_EQ(d.read("k"), "v");
  EXPECT_EQ(d.stats().updates_applied, 1u);
  EXPECT_EQ(b.inflight_offers(), 0u);
}

TEST(EngineTest, FastChainFollowsDemandGradient) {
  // Line A(2) - B(4) - C(9): a write at A must chain A->B->C through two
  // offers, flooding the valley at C.
  Router router;
  ProtocolConfig cfg = fast_config();
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0, 2}, cfg, 2);
  ReplicaEngine c(2, {1}, cfg, 3);
  router.add(&a);
  router.add(&b);
  router.add(&c);
  a.set_own_demand(2.0);
  b.set_own_demand(4.0);
  c.set_own_demand(9.0);
  a.prime_neighbour_demand(1, 4.0, 0.0);
  b.prime_neighbour_demand(0, 2.0, 0.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  c.prime_neighbour_demand(1, 4.0, 0.0);
  router.enqueue(0, a.local_write("k", "v", 0.0));
  router.drain(0.0);
  EXPECT_EQ(b.read("k"), "v");
  EXPECT_EQ(c.read("k"), "v");
}

TEST(EngineTest, NoOfferLoopsBetweenPeers) {
  // After a full exchange both peers know the other has the update; no
  // message may circulate forever.
  Router router;
  ReplicaEngine a(0, {1}, fast_config(), 1);
  ReplicaEngine b(1, {0}, fast_config(), 2);
  router.add(&a);
  router.add(&b);
  a.set_own_demand(1.0);
  b.set_own_demand(2.0);
  a.prime_neighbour_demand(1, 2.0, 0.0);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  router.enqueue(0, a.local_write("k", "v", 0.0));
  const std::size_t routed = router.drain(0.0);
  // offer + ack + data and nothing more.
  EXPECT_EQ(routed, 3u);
}

TEST(EngineTest, RepeatedGainDoesNotReofferToKnowingPeer) {
  ReplicaEngine b(1, {3}, fast_config(), 1);
  b.set_own_demand(6.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  const auto first = b.local_write("k", "v1", 0.0);
  ASSERT_EQ(first.size(), 1u);
  // D declines: it already has the update (e.g. via another path).
  const auto offer_id = std::get<FastOffer>(first[0].msg).offer_id;
  b.handle(3, Message{FastAck{offer_id, false, {}}}, 0.0);
  // B writes something new: the new offer must contain only the new id.
  const auto second = b.local_write("k", "v2", 0.0);
  ASSERT_EQ(second.size(), 1u);
  const auto& offer = std::get<FastOffer>(second[0].msg);
  ASSERT_EQ(offer.offered.size(), 1u);
  EXPECT_EQ(offer.offered[0].id, (UpdateId{1, 2}));
}

TEST(EngineTest, ResetForgetsPeerKnowledge) {
  // A pooled engine keeps its peer-knowledge buffers across reset(), but
  // not their contents: after the reset, a peer once known to hold an
  // update is offered it again.
  ReplicaEngine b(1, {3}, fast_config(), 1);
  b.set_own_demand(6.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  const auto first = b.local_write("k", "v", 0.0);
  ASSERT_EQ(first.size(), 1u);
  const auto offer_id = std::get<FastOffer>(first[0].msg).offer_id;
  b.handle(3, Message{FastAck{offer_id, false, {}}}, 0.0);  // D has (1, 1)

  b.reset(1, {3}, fast_config(), 1);
  b.set_own_demand(6.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  // The reborn engine numbers its first write (1, 1) again.
  const auto again = b.local_write("k", "v", 0.0);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].to, 3u);
  const auto& offer = std::get<FastOffer>(again[0].msg);
  ASSERT_EQ(offer.offered.size(), 1u);
  EXPECT_EQ(offer.offered[0].id, (UpdateId{1, 1}));
}

TEST(EngineTest, FanoutTwoOffersToTwoValleys) {
  ProtocolConfig cfg = fast_config();
  cfg.fast_fanout = 2;
  ReplicaEngine b(1, {2, 3, 4}, cfg, 1);
  b.set_own_demand(5.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  b.prime_neighbour_demand(3, 7.0, 0.0);
  b.prime_neighbour_demand(4, 1.0, 0.0);  // below own demand: ineligible
  const auto out = b.local_write("k", "v", 0.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, 2u);
  EXPECT_EQ(out[1].to, 3u);
}

TEST(EngineTest, PushOnAnyGainDisabledSuppressesSessionPushes) {
  ProtocolConfig cfg = fast_config();
  cfg.push_on_any_gain = false;
  ReplicaEngine b(1, {2, 3}, cfg, 1);
  b.set_own_demand(5.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  b.prime_neighbour_demand(3, 7.0, 0.0);
  // Updates arriving via fast data do NOT re-push in this ablation...
  const auto out = b.handle(
      3, Message{FastData{1, {Update{UpdateId{0, 1}, 0.0, "k", "v"}}}}, 0.0);
  EXPECT_TRUE(out.empty());
  // ...but local writes still do.
  EXPECT_FALSE(b.local_write("k2", "v2", 0.0).empty());
}

TEST(EngineTest, DisabledFastPushNeverOffers) {
  ProtocolConfig cfg = ProtocolConfig::weak();
  cfg.advert_period = 0.0;
  ReplicaEngine b(1, {2}, cfg, 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 100.0, 0.0);
  EXPECT_TRUE(b.local_write("k", "v", 0.0).empty());
}

TEST(EngineTest, AdvertTimerBroadcastsOwnDemand) {
  ReplicaEngine b(1, {2, 3}, fast_config(), 1);
  b.set_own_demand(42.0);
  const auto out = b.on_advert_timer(0.0);
  ASSERT_EQ(out.size(), 2u);
  for (const Outbound& o : out) {
    EXPECT_DOUBLE_EQ(std::get<DemandAdvert>(o.msg).demand, 42.0);
  }
}

TEST(EngineTest, AdvertUpdatesNeighbourTable) {
  ReplicaEngine b(1, {2}, fast_config(), 1);
  b.handle(2, Message{DemandAdvert{17.0}}, 1.0);
  EXPECT_EQ(b.demand_table().demand_of(2), 17.0);
}

TEST(EngineTest, AnyMessageRefreshesLiveness) {
  ProtocolConfig cfg = fast_config();
  cfg.health.enabled = true;
  ReplicaEngine b(1, {2}, cfg, 1);
  b.prime_neighbour_demand(2, 5.0, 0.0);
  EXPECT_TRUE(b.demand_table().by_demand_desc(5.0, &b.peer_health()).empty());
  b.handle(2, Message{SessionRequest{99}}, 5.0);
  EXPECT_EQ(b.demand_table().by_demand_desc(5.5, &b.peer_health()),
            (std::vector<NodeId>{2}));
  EXPECT_EQ(b.demand_table().demand_of(2), 5.0);
}

TEST(EngineTest, AdvertTimerReachesDownNeighbours) {
  // Adverts are the recovery channel: health never gates them, so a peer
  // the tracker derives `down` still hears our demand and can answer.
  ProtocolConfig cfg = fast_config();
  cfg.health.enabled = true;
  ReplicaEngine b(1, {2, 3}, cfg, 1);
  ASSERT_EQ(b.health_of(2, 100.0).state, PeerHealth::down);
  ASSERT_EQ(b.health_of(3, 100.0).state, PeerHealth::down);
  EXPECT_EQ(b.on_advert_timer(100.0).size(), 2u);
}

TEST(EngineTest, AdvertTimerWithoutLivenessBroadcastsToAll) {
  // Long silence with health disabled: both peers stay up, and each hears
  // one advert in registration order.
  ReplicaEngine b(1, {3, 2}, fast_config(), 1);
  EXPECT_EQ(b.health_of(2, 100.0).state, PeerHealth::up);
  EXPECT_EQ(b.health_of(3, 100.0).state, PeerHealth::up);
  const auto out = b.on_advert_timer(100.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, 3u);
  EXPECT_EQ(out[1].to, 2u);
}

TEST(EngineTest, OverlayNeighbourBecomesEligibleTarget) {
  ReplicaEngine b(1, {}, fast_config(), 1);
  b.set_own_demand(2.0);
  b.add_overlay_neighbour(9, 0.0);
  b.prime_neighbour_demand(9, 50.0, 0.0);
  const auto out = b.local_write("k", "v", 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 9u);
}

TEST(EngineTest, PromotedStrangerKeepsKnowledgeAndJoinsAdvertsLast) {
  // Stranger 3 offers an update, so the engine learns 3 has it. Promoted
  // after neighbour 7, it keeps that knowledge (no offer of what it is known
  // to have) and hears adverts after 7, although its slot is older.
  ReplicaEngine b(1, {5}, fast_config(), 1);
  b.set_own_demand(2.0);
  const UpdateId id{9, 1};
  b.handle(3, Message{FastOffer{1, {OfferedId{id, 0.0}}}}, 0.0);
  EXPECT_FALSE(b.demand_table().demand_of(3).has_value());
  b.add_overlay_neighbour(7, 0.0);
  b.add_overlay_neighbour(3, 0.0);
  b.prime_neighbour_demand(3, 50.0, 0.0);

  const auto adverts = b.on_advert_timer(0.0);
  ASSERT_EQ(adverts.size(), 3u);
  EXPECT_EQ(adverts[0].to, 5u);
  EXPECT_EQ(adverts[1].to, 7u);
  EXPECT_EQ(adverts[2].to, 3u);

  // The update arrives from neighbour 5: 3 is the only peer whose demand
  // clears ours, and it is known to hold the update already.
  FastData data;
  data.offer_id = 2;
  data.updates.push_back(Update{id, 0.0, "k", "v"});
  EXPECT_TRUE(b.handle(5, Message{std::move(data)}, 0.1).empty());
  EXPECT_EQ(b.read("k"), "v");
}

TEST(EngineTest, DeliveryHookFiresOncePerUpdate) {
  ReplicaEngine b(1, {2}, fast_config(), 1);
  int deliveries = 0;
  DeliveryPath last_path{};
  EngineHooks hooks;
  hooks.on_delivery = [&](const Update&, DeliveryPath path, SimTime) {
    ++deliveries;
    last_path = path;
  };
  b.set_hooks(std::move(hooks));
  const Update u{UpdateId{0, 1}, 0.0, "k", "v"};
  b.handle(2, Message{FastData{1, {u}}}, 0.0);
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(last_path, DeliveryPath::fast_push);
  b.handle(2, Message{FastData{2, {u}}}, 0.0);  // duplicate
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(b.stats().duplicate_updates, 1u);
}

TEST(EngineTest, LearnedOwnWriteAdvancesWriteCounter) {
  // Node 1 lost its state (and counter) after issuing writes 1..3; a peer
  // hands two of them back. The next local write must not reissue an id
  // the network already holds.
  ReplicaEngine b(1, {2}, fast_config(), 1);
  const Update third{UpdateId{1, 3}, 0.0, "k3", "v3"};
  const Update first{UpdateId{1, 1}, 0.0, "k1", "v1"};
  b.handle(2, Message{FastData{1, {third, first}}}, 0.0);
  EXPECT_EQ(b.write_seq(), 3u);  // the older id does not move it back
  b.local_write("k4", "v4", 0.1);
  EXPECT_EQ(b.write_seq(), 4u);
  EXPECT_TRUE(b.log().contains(UpdateId{1, 4}));
  EXPECT_EQ(b.read("k3"), "v3");
  EXPECT_EQ(b.read("k4"), "v4");
}

TEST(EngineTest, CountersTrackClassesAndBytes) {
  ReplicaEngine b(1, {3}, fast_config(), 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(3, 9.0, 0.0);
  b.local_write("k", "v", 0.0);
  EXPECT_EQ(b.counters().messages(TrafficClass::fast_control), 1u);
  EXPECT_GT(b.counters().bytes(TrafficClass::fast_control), 0u);
  b.on_advert_timer(0.0);
  EXPECT_EQ(b.counters().messages(TrafficClass::demand_advert), 1u);
}

TEST(EngineTest, PresetConfigsMatchTheThreeAlgorithms) {
  const ProtocolConfig weak = ProtocolConfig::weak();
  EXPECT_EQ(weak.selection, PartnerSelection::uniform_random);
  EXPECT_FALSE(weak.fast_push);
  const ProtocolConfig mid = ProtocolConfig::demand_order_only();
  EXPECT_EQ(mid.selection, PartnerSelection::demand_dynamic);
  EXPECT_FALSE(mid.fast_push);
  const ProtocolConfig fast = ProtocolConfig::fast();
  EXPECT_EQ(fast.selection, PartnerSelection::demand_dynamic);
  EXPECT_TRUE(fast.fast_push);
  EXPECT_EQ(fast.fast_fanout, 1u);  // paper: one neighbour per push
  EXPECT_EQ(fast.ack_mode, FastAckMode::yes_no);
  EXPECT_EQ(fast.push_rule, FastPushRule::gradient);
  EXPECT_TRUE(fast.push_on_any_gain);
  EXPECT_FALSE(fast.auto_truncate);
}

TEST(EngineTest, SelectionNamesAreDistinct) {
  EXPECT_NE(selection_name(PartnerSelection::uniform_random),
            selection_name(PartnerSelection::demand_static));
  EXPECT_NE(selection_name(PartnerSelection::demand_static),
            selection_name(PartnerSelection::demand_dynamic));
}

TEST(EngineTest, DeliveryPathNamesAreDistinct) {
  EXPECT_NE(delivery_path_name(DeliveryPath::local_write),
            delivery_path_name(DeliveryPath::session));
  EXPECT_NE(delivery_path_name(DeliveryPath::session),
            delivery_path_name(DeliveryPath::fast_push));
}

TEST(EngineTest, SessionCarriesMultipleUpdatesBothWays) {
  ProtocolConfig cfg = fast_config();
  cfg.fast_push = false;
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0}, cfg, 2);
  a.prime_neighbour_demand(1, 1.0, 0.0);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  for (int i = 0; i < 5; ++i) {
    a.local_write(numbered("a", i), "x", 0.0);
    b.local_write(numbered("b", i), "y", 0.0);
  }
  auto m1 = a.on_session_timer(0.1);
  auto m2 = b.handle(0, m1[0].msg, 0.1);
  auto m3 = a.handle(1, m2[0].msg, 0.1);
  EXPECT_EQ(std::get<SessionPush>(m3[0].msg).updates.size(), 5u);
  auto m4 = b.handle(0, m3[0].msg, 0.1);
  EXPECT_EQ(std::get<SessionReply>(m4[0].msg).updates.size(), 5u);
  a.handle(1, m4[0].msg, 0.1);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.summary().total(), 10u);
}

TEST(EngineTest, MessageNamesAndClasses) {
  EXPECT_EQ(message_name(Message{SessionRequest{}}), "SessionRequest");
  EXPECT_EQ(message_name(Message{FastData{}}), "FastData");
  EXPECT_EQ(traffic_class_of(Message{DemandAdvert{}}),
            TrafficClass::demand_advert);
  EXPECT_EQ(traffic_class_of(Message{FastOffer{}}),
            TrafficClass::fast_control);
  EXPECT_GT(estimated_wire_size(Message{SessionRequest{}}), 0u);
}

}  // namespace
}  // namespace fastcons
