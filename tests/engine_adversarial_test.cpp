// Adversarial / robustness tests: the engine must shrug off unsolicited,
// stale, duplicated, or nonsensical messages — on an open network all of
// these happen (reordering, retries, crashed peers, buggy peers).
#include <gtest/gtest.h>

#include "common/text.hpp"
#include "core/engine.hpp"

namespace fastcons {
namespace {

ProtocolConfig cfg() {
  ProtocolConfig c = ProtocolConfig::fast();
  c.advert_period = 0.0;
  return c;
}

TEST(EngineAdversarialTest, UnsolicitedFastDataIsStillApplied) {
  // FastData without a preceding offer: content is content — apply it.
  // (Weak consistency never rejects updates; dedup happens via the log.)
  ReplicaEngine e(0, {1}, cfg(), 1);
  e.handle(1, Message{FastData{999, {Update{UpdateId{5, 1}, 0.0, "k", "v"}}}},
           0.0);
  EXPECT_TRUE(e.summary().contains(UpdateId{5, 1}));
}

TEST(EngineAdversarialTest, FastAckForUnknownOfferIgnored) {
  ReplicaEngine e(0, {1}, cfg(), 1);
  const auto out = e.handle(1, Message{FastAck{12345, true, {}}}, 0.0);
  EXPECT_TRUE(out.empty());
}

TEST(EngineAdversarialTest, FastAckFromWrongPeerIgnored) {
  ReplicaEngine b(1, {2, 3}, cfg(), 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  b.prime_neighbour_demand(3, 8.0, 0.0);
  const auto offers = b.local_write("k", "v", 0.0);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].to, 2u);
  const auto offer_id = std::get<FastOffer>(offers[0].msg).offer_id;
  // Node 3 acks an offer that was made to node 2.
  const auto out = b.handle(3, Message{FastAck{offer_id, true, {}}}, 0.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(b.inflight_offers(), 1u);  // the real offer stays pending
}

TEST(EngineAdversarialTest, DuplicateFastAckSendsDataOnlyOnce) {
  ReplicaEngine b(1, {2}, cfg(), 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  const auto offers = b.local_write("k", "v", 0.0);
  const auto offer_id = std::get<FastOffer>(offers[0].msg).offer_id;
  const auto first = b.handle(2, Message{FastAck{offer_id, true, {}}}, 0.0);
  EXPECT_EQ(first.size(), 1u);
  const auto second = b.handle(2, Message{FastAck{offer_id, true, {}}}, 0.0);
  EXPECT_TRUE(second.empty());  // offer already consumed
}

TEST(EngineAdversarialTest, ReplayedAckAfterDeclineStaysConsumed) {
  // A NO consumes the offer state. Retransmits of the NO — or a late flip
  // to YES fishing for data — must hit the already-consumed offer and be
  // dropped instead of resurrecting it.
  ReplicaEngine b(1, {2}, cfg(), 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  const auto offers = b.local_write("k", "v", 0.0);
  ASSERT_EQ(offers.size(), 1u);
  const auto offer_id = std::get<FastOffer>(offers[0].msg).offer_id;
  EXPECT_TRUE(b.handle(2, Message{FastAck{offer_id, false, {}}}, 0.0).empty());
  EXPECT_EQ(b.inflight_offers(), 0u);
  EXPECT_TRUE(b.handle(2, Message{FastAck{offer_id, false, {}}}, 0.1).empty());
  EXPECT_TRUE(b.handle(2, Message{FastAck{offer_id, true, {}}}, 0.2).empty());
}

TEST(EngineAdversarialTest, DuplicateOfferReplayAnsweredNoSecondTime) {
  // The same FastOffer delivered twice (sender retry): the first ack says
  // YES, the replay must be declined because the payload is now expected /
  // applied, and stats must count both offers.
  ReplicaEngine e(0, {1}, cfg(), 1);
  FastOffer offer;
  offer.offer_id = 77;
  offer.offered = {OfferedId{UpdateId{1, 1}, 0.0}};
  const auto first = e.handle(1, Message{offer}, 0.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(std::get<FastAck>(first[0].msg).yes);
  // Deliver the payload, then replay the identical offer.
  e.handle(1, Message{FastData{77, {Update{UpdateId{1, 1}, 0.0, "k", "v"}}}},
           0.1);
  const auto replay = e.handle(1, Message{offer}, 0.2);
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_FALSE(std::get<FastAck>(replay[0].msg).yes);
  EXPECT_EQ(e.stats().offers_received, 2u);
}

TEST(EngineAdversarialTest, SubsetAckRequestingUnofferedIdsIgnored) {
  ProtocolConfig c = cfg();
  c.ack_mode = FastAckMode::subset;
  ReplicaEngine b(1, {2}, c, 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  const auto offers = b.local_write("k", "v", 0.0);
  const auto offer_id = std::get<FastOffer>(offers[0].msg).offer_id;
  // The peer asks for ids that were never offered (fishing for data).
  FastAck greedy{offer_id, true, {UpdateId{7, 7}, UpdateId{1, 1}}};
  const auto out = b.handle(2, Message{greedy}, 0.0);
  ASSERT_EQ(out.size(), 1u);
  const auto& data = std::get<FastData>(out[0].msg);
  ASSERT_EQ(data.updates.size(), 1u);  // only the genuinely offered id
  EXPECT_EQ(data.updates[0].id, (UpdateId{1, 1}));
}

TEST(EngineAdversarialTest, SessionPushForUnknownSessionStillSyncs) {
  // The responder is stateless by design: any SessionPush is a valid
  // one-shot sync even if we never saw the request (e.g. our reply to the
  // request was lost).
  ReplicaEngine b(1, {0}, cfg(), 1);
  SessionPush push;
  push.session_id = 0xabc;
  push.updates = {Update{UpdateId{0, 1}, 0.0, "k", "v"}};
  const auto out = b.handle(0, Message{push}, 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<SessionReply>(out[0].msg));
  EXPECT_TRUE(b.summary().contains(UpdateId{0, 1}));
}

TEST(EngineAdversarialTest, DuplicateSessionReplyIgnored) {
  ReplicaEngine e(0, {1}, cfg(), 1);
  e.prime_neighbour_demand(1, 1.0, 0.0);
  const auto start = e.on_session_timer(0.0);
  const auto session_id = std::get<SessionRequest>(start[0].msg).session_id;
  e.handle(1, Message{SessionSummary{session_id, SummaryVector{}}}, 0.0);
  SessionReply reply{session_id, {Update{UpdateId{1, 1}, 0.0, "k", "v"}}};
  e.handle(1, Message{reply}, 0.0);
  EXPECT_EQ(e.stats().sessions_completed, 1u);
  // Replay of the same reply: the session is gone, so the message is
  // dropped before its payload is even inspected — no extra work, no
  // double-completion.
  const auto out = e.handle(1, Message{reply}, 0.0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(e.stats().sessions_completed, 1u);
  EXPECT_EQ(e.stats().duplicate_updates, 0u);
  EXPECT_EQ(e.stats().updates_applied, 1u);
}

TEST(EngineAdversarialTest, MessagesFromUnknownPeersAreHarmless) {
  // Node 99 is not a neighbour; its messages must not corrupt the demand
  // table or crash anything. Content it carries is still accepted (weak
  // consistency welcomes data from anywhere).
  ReplicaEngine e(0, {1}, cfg(), 1);
  e.handle(99, Message{DemandAdvert{1000.0}}, 0.0);
  EXPECT_FALSE(e.demand_table().demand_of(99).has_value());
  e.handle(99, Message{SessionRequest{1}}, 0.0);
  e.handle(99, Message{FastOffer{2, {OfferedId{UpdateId{9, 1}, 0.0}}}}, 0.0);
  EXPECT_EQ(e.demand_table().neighbours().size(), 1u);
}

TEST(EngineAdversarialTest, SelfDemandNeverTargetsSelf) {
  // Degenerate neighbour list containing high-demand peers only; ensure no
  // code path ever emits a message to self.
  ReplicaEngine e(0, {1, 2}, cfg(), 1);
  e.set_own_demand(5.0);
  e.prime_neighbour_demand(1, 50.0, 0.0);
  e.prime_neighbour_demand(2, 40.0, 0.0);
  for (int i = 0; i < 10; ++i) {
    for (const Outbound& out : e.on_session_timer(static_cast<double>(i))) {
      EXPECT_NE(out.to, 0u);
    }
    for (const Outbound& out :
         e.local_write(numbered("k", i), "v", static_cast<double>(i))) {
      EXPECT_NE(out.to, 0u);
    }
  }
}

TEST(EngineAdversarialTest, ZeroSeqUpdateRejectedByPrecondition) {
  // seq 0 is reserved ("nothing seen"); applying it is a contract violation
  // caught in debug assertions. Here we verify the summary itself treats
  // seq bounds correctly via the public API.
  SummaryVector sv;
  sv.add(UpdateId{0, 1});
  EXPECT_TRUE(sv.contains(UpdateId{0, 1}));
  EXPECT_EQ(sv.watermark(0), 1u);
}

TEST(EngineAdversarialTest, ManyConcurrentSessionsCoexist) {
  // An initiator with several neighbours can have overlapping in-flight
  // sessions; replies must route to the right session state.
  ProtocolConfig c = cfg();
  c.session_timeout = 100.0;
  ReplicaEngine e(0, {1, 2, 3}, c, 1);
  for (const NodeId peer : {1u, 2u, 3u}) {
    e.prime_neighbour_demand(peer, static_cast<double>(peer), 0.0);
  }
  std::vector<std::pair<NodeId, std::uint64_t>> sessions;
  for (int i = 0; i < 3; ++i) {
    const auto out = e.on_session_timer(static_cast<double>(i));
    ASSERT_EQ(out.size(), 1u);
    sessions.emplace_back(out[0].to,
                          std::get<SessionRequest>(out[0].msg).session_id);
  }
  EXPECT_EQ(e.inflight_sessions(), 3u);
  // Answer them out of order.
  for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
    const auto out =
        e.handle(it->first, Message{SessionSummary{it->second, SummaryVector{}}},
                 2.5);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].to, it->first);
  }
  EXPECT_EQ(e.inflight_sessions(), 3u);  // awaiting replies
  for (auto& [peer, session_id] : sessions) {
    e.handle(peer, Message{SessionReply{session_id, {}}}, 2.6);
  }
  EXPECT_EQ(e.inflight_sessions(), 0u);
  EXPECT_EQ(e.stats().sessions_completed, 3u);
}

TEST(EngineAdversarialTest, ExpiredOfferAckDoesNothing) {
  ProtocolConfig c = cfg();
  c.session_timeout = 0.5;
  ReplicaEngine b(1, {2}, c, 1);
  b.set_own_demand(1.0);
  b.prime_neighbour_demand(2, 9.0, 0.0);
  const auto offers = b.local_write("k", "v", 0.0);
  const auto offer_id = std::get<FastOffer>(offers[0].msg).offer_id;
  b.expire_inflight(1.0);
  EXPECT_EQ(b.inflight_offers(), 0u);
  const auto out = b.handle(2, Message{FastAck{offer_id, true, {}}}, 1.0);
  EXPECT_TRUE(out.empty());
}

TEST(EngineAdversarialTest, EmptyOfferListAnsweredNo) {
  ReplicaEngine e(0, {1}, cfg(), 1);
  const auto out = e.handle(1, Message{FastOffer{3, {}}}, 0.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(std::get<FastAck>(out[0].msg).yes);
}

}  // namespace
}  // namespace fastcons
