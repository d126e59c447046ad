// Auto-truncation (Bayou-style, paper §7): logs stay bounded once every
// neighbour provably holds an update, and convergence is unaffected.
#include <gtest/gtest.h>

#include <memory>

#include "common/text.hpp"
#include "core/engine.hpp"
#include "sim_runtime/sim_network.hpp"
#include "topology/generators.hpp"

namespace fastcons {
namespace {

ProtocolConfig truncating_config() {
  ProtocolConfig cfg = ProtocolConfig::fast();
  cfg.auto_truncate = true;
  cfg.advert_period = 0.0;
  return cfg;
}

TEST(TruncationTest, NoTruncationBeforeEveryNeighbourKnown) {
  // B has two neighbours but has only ever exchanged summaries with one;
  // the frontier must stay empty (the other neighbour contributes bottom).
  ReplicaEngine b(1, {0, 2}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.prime_neighbour_demand(2, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  // Teach B that node 0 has everything (a SessionPush carries the
  // initiator's summary; the responder records it as peer knowledge).
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.on_session_timer(0.2);
  EXPECT_EQ(b.stats().payloads_truncated, 0u);
  EXPECT_EQ(b.log().size(), 1u);
}

TEST(TruncationTest, TruncationUnblocksOnceLastNeighbourReportsIn) {
  // Companion to the test above: the early-return holds exactly until the
  // last silent neighbour exchanges a summary, then the same timer call
  // truncates.
  ReplicaEngine b(1, {0, 2}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.prime_neighbour_demand(2, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.on_session_timer(0.2);
  ASSERT_EQ(b.log().size(), 1u);  // still blocked: node 2 never reported
  b.handle(2, Message{SessionPush{(2ull << 32) | 9, b.summary(), {}}}, 0.3);
  b.on_session_timer(0.4);
  EXPECT_EQ(b.log().size(), 0u);
  EXPECT_EQ(b.stats().payloads_truncated, 1u);
}

TEST(TruncationTest, LateOverlayNeighbourReblocksTruncation) {
  // A bridge neighbour added after sessions began contributes bottom to the
  // frontier until it exchanges summaries, so truncation must stall again
  // even though every original neighbour is fully known.
  ReplicaEngine b(1, {0}, truncating_config(), 1);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  b.local_write("k", "v", 0.0);
  b.handle(0, Message{SessionPush{(0ull << 32) | 9, b.summary(), {}}}, 0.1);
  b.add_overlay_neighbour(7, 0.15);
  b.on_session_timer(0.2);
  EXPECT_EQ(b.stats().payloads_truncated, 0u);
  EXPECT_EQ(b.log().size(), 1u);
}

TEST(TruncationTest, PairTruncatesAfterMutualSessions) {
  // Two nodes in a line; after a completed session each knows the other's
  // summary, so both can discard the payload while keeping the summary.
  ProtocolConfig cfg = truncating_config();
  ReplicaEngine a(0, {1}, cfg, 1);
  ReplicaEngine b(1, {0}, cfg, 2);
  a.prime_neighbour_demand(1, 1.0, 0.0);
  b.prime_neighbour_demand(0, 1.0, 0.0);
  a.local_write("k", "v", 0.0);
  // Manually route a full session a -> b.
  auto m1 = a.on_session_timer(0.1);
  ASSERT_EQ(m1.size(), 1u);
  auto m2 = b.handle(0, m1[0].msg, 0.1);
  auto m3 = a.handle(1, m2[0].msg, 0.1);
  auto m4 = b.handle(0, m3[0].msg, 0.1);
  a.handle(1, m4[0].msg, 0.1);
  EXPECT_EQ(b.log().size(), 1u);
  // Next session timers trigger the frontier computation on both sides.
  a.on_session_timer(1.1);
  b.on_session_timer(1.1);
  EXPECT_EQ(a.log().size(), 0u);
  EXPECT_EQ(b.log().size(), 0u);
  EXPECT_GE(a.stats().payloads_truncated, 1u);
  // The summary still covers the id: re-application stays suppressed.
  EXPECT_TRUE(a.summary().contains(UpdateId{0, 1}));
}

TEST(TruncationTest, NetworkConvergesAndLogsStayBounded) {
  // Ring with a steady write stream: with auto-truncation, retained
  // payloads stay far below the total number of updates ever applied.
  Rng rng(5);
  Graph g = make_ring(8, {0.01, 0.03}, rng);
  auto demand = std::make_shared<StaticDemand>(
      make_uniform_random_demand(8, 0.0, 100.0, rng));
  SimConfig cfg;
  cfg.protocol = truncating_config();
  cfg.seed = 9;
  SimNetwork net(std::move(g), demand, cfg);
  const std::size_t writes = 40;
  for (std::size_t w = 0; w < writes; ++w) {
    net.schedule_write(static_cast<NodeId>(w % 8), numbered("k", w),
                       "v", 0.5 + 0.5 * static_cast<double>(w));
  }
  net.run_until(0.5 * static_cast<double>(writes) + 2.0);
  ASSERT_TRUE(net.run_until_consistent(200.0));
  const EngineStats stats = net.total_stats();
  EXPECT_GT(stats.payloads_truncated, 0u);
  std::size_t retained = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    retained += net.engine(n).log().size();
    // Every engine still answers reads from materialised state.
    EXPECT_TRUE(net.engine(n).read("k0").has_value());
  }
  // 8 nodes x 40 updates = 320 total applications; truncation keeps far
  // fewer payloads around once everything is stable.
  EXPECT_LT(retained, writes * net.size() / 2);
}

TEST(TruncationTest, DisabledByDefault) {
  Rng rng(6);
  Graph g = make_line(3, {0.01, 0.02}, rng);
  auto demand = std::make_shared<StaticDemand>(std::vector<double>{1, 2, 3});
  SimConfig cfg;
  cfg.protocol = ProtocolConfig::fast();  // auto_truncate defaults to false
  cfg.seed = 10;
  SimNetwork net(std::move(g), demand, cfg);
  const UpdateId id = net.schedule_write(0, "k", "v", 0.5);
  ASSERT_TRUE(net.run_until_update_everywhere(id, 30.0));
  net.run_until(10.0);
  EXPECT_EQ(net.total_stats().payloads_truncated, 0u);
  for (NodeId n = 0; n < net.size(); ++n) {
    EXPECT_EQ(net.engine(n).log().size(), 1u);
  }
}

TEST(TruncationTest, SessionAfterTruncationFallsBackToRetained) {
  // A new partner whose summary is empty sessions with a node that has
  // truncated: updates_for reports the truncated ids and the responder
  // sends what it retains — convergence of retained content still works.
  ProtocolConfig cfg = truncating_config();
  ReplicaEngine a(0, {1}, cfg, 1);
  a.prime_neighbour_demand(1, 1.0, 0.0);
  a.local_write("old", "1", 0.0);
  // Simulate: neighbour 1 already has everything; truncate.
  a.handle(1, Message{SessionRequest{1}}, 0.1);
  SummaryVector full = a.summary();
  // a initiated no session; teach knowledge through a push summary instead.
  a.handle(1, Message{SessionPush{(1ull << 32) | 9, full, {}}}, 0.2);
  a.on_session_timer(0.3);
  EXPECT_EQ(a.log().size(), 0u);
  // A fresh-summary request arrives (e.g. the peer lost its disk). The
  // engine must still answer without crashing; the payload is gone but the
  // summary in the push tells the peer what it is missing.
  const auto out =
      a.handle(1, Message{SessionSummary{0xdead, SummaryVector{}}}, 0.4);
  EXPECT_TRUE(out.empty());  // unknown session id: ignored
  // Now do it properly: a initiates, the peer answers with an empty summary.
  const auto start = a.on_session_timer(0.5);
  ASSERT_EQ(start.size(), 1u);
  const auto session_id = std::get<SessionRequest>(start[0].msg).session_id;
  const auto push = a.handle(1, Message{SessionSummary{session_id,
                                                       SummaryVector{}}}, 0.5);
  ASSERT_EQ(push.size(), 1u);
  const auto& push_msg = std::get<SessionPush>(push[0].msg);
  EXPECT_TRUE(push_msg.updates.empty());           // payload truncated away
  EXPECT_TRUE(push_msg.summary.contains(UpdateId{0, 1}));  // but advertised
}

}  // namespace
}  // namespace fastcons
