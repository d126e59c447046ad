#include "replication/write_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fastcons {
namespace {

Update make_update(NodeId origin, SeqNo seq, SimTime at = 0.0,
                   std::string key = "k", std::string value = "v") {
  return Update{UpdateId{origin, seq}, at, std::move(key), std::move(value)};
}

TEST(WriteLogTest, ApplyIsIdempotent) {
  WriteLog log;
  EXPECT_TRUE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.applied_total(), 1u);
}

TEST(WriteLogTest, ContainsAndGet) {
  WriteLog log;
  const Update u = make_update(2, 1, 1.5, "city", "barcelona");
  log.apply(u);
  EXPECT_TRUE(log.contains(u.id));
  EXPECT_FALSE(log.contains(UpdateId{2, 2}));
  const auto got = log.get(u.id);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, u);
  EXPECT_FALSE(log.get(UpdateId{9, 9}).has_value());
}

TEST(WriteLogTest, UpdatesForReturnsDifferenceInOrder) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(1, 1));
  SummaryVector theirs;
  theirs.add(UpdateId{0, 1});
  const auto missing = log.updates_for(theirs);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0].id, (UpdateId{0, 2}));
  EXPECT_EQ(missing[1].id, (UpdateId{1, 1}));
}

TEST(WriteLogTest, UpdatesForSelfSummaryIsEmpty) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(3, 4));
  EXPECT_TRUE(log.updates_for(log.summary()).empty());
}

TEST(WriteLogTest, LastWriterWinsByTimestamp) {
  WriteLog log;
  log.apply(make_update(0, 1, 1.0, "x", "old"));
  log.apply(make_update(1, 1, 2.0, "x", "new"));
  EXPECT_EQ(log.read("x"), "new");
  // A late-arriving older write must not clobber the newer value.
  log.apply(make_update(2, 1, 0.5, "x", "ancient"));
  EXPECT_EQ(*log.read("x"), "new");
}

TEST(WriteLogTest, TimestampTiesBreakDeterministically) {
  // Same created_at: the higher (origin, seq) wins, in both arrival orders.
  WriteLog a, b;
  const Update u1 = make_update(1, 1, 5.0, "x", "from-1");
  const Update u2 = make_update(2, 1, 5.0, "x", "from-2");
  a.apply(u1);
  a.apply(u2);
  b.apply(u2);
  b.apply(u1);
  ASSERT_TRUE(a.read("x").has_value());
  EXPECT_EQ(*a.read("x"), *b.read("x"));
  EXPECT_EQ(*a.read("x"), "from-2");
}

TEST(WriteLogTest, ReadMissingKey) {
  WriteLog log;
  EXPECT_FALSE(log.read("nope").has_value());
}

TEST(WriteLogTest, KeysListsMaterialisedKeys) {
  WriteLog log;
  log.apply(make_update(0, 1, 0.0, "a", "1"));
  log.apply(make_update(0, 2, 1.0, "b", "2"));
  log.apply(make_update(0, 3, 2.0, "a", "3"));
  const auto keys = log.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(WriteLogTest, KvStateIsIndependentOfInsertionOrder) {
  // Keys k/<i> (so k/10 sorts before k/2) written by three origins, most
  // keys more than once, applied in three different orders.
  std::vector<Update> updates;
  std::set<std::string> written;
  for (SeqNo seq = 1; seq <= 40; ++seq) {
    for (NodeId origin = 0; origin < 3; ++origin) {
      const std::size_t key = (seq * 7 + origin * 13) % 64;
      written.insert("k/" + std::to_string(key));
      updates.push_back(make_update(origin, seq, static_cast<double>(seq % 5),
                                    "k/" + std::to_string(key),
                                    std::to_string(origin) + "." +
                                        std::to_string(seq)));
    }
  }
  std::vector<std::vector<Update>> orders{updates, updates, updates};
  std::reverse(orders[1].begin(), orders[1].end());
  Rng rng(17);
  rng.shuffle(orders[2]);

  std::vector<WriteLog> logs(orders.size());
  for (std::size_t i = 0; i < orders.size(); ++i) {
    for (const Update& u : orders[i]) EXPECT_TRUE(logs[i].apply(u));
  }
  const std::vector<std::string> keys = logs[0].keys();
  EXPECT_EQ(keys, std::vector<std::string>(written.begin(), written.end()));
  for (std::size_t i = 1; i < logs.size(); ++i) {
    EXPECT_EQ(logs[i].kv_digest(), logs[0].kv_digest());
    EXPECT_EQ(logs[i].keys(), keys);
    for (const std::string& key : keys) {
      EXPECT_EQ(logs[i].read(key), logs[0].read(key)) << key;
    }
  }
}

TEST(WriteLogTest, AllRetainedSortedById) {
  WriteLog log;
  log.apply(make_update(1, 2));
  log.apply(make_update(0, 1));
  log.apply(make_update(1, 1));
  const auto all = log.all_retained();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, (UpdateId{0, 1}));
  EXPECT_EQ(all[1].id, (UpdateId{1, 1}));
  EXPECT_EQ(all[2].id, (UpdateId{1, 2}));
}

TEST(WriteLogTest, TruncationDiscardsPayloadsButKeepsSummary) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  log.apply(make_update(0, 3));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  stable.add(UpdateId{0, 2});
  EXPECT_EQ(log.truncate_below(stable), 2u);
  EXPECT_EQ(log.size(), 1u);
  // Summary still covers the truncated ids: re-applying stays a no-op.
  EXPECT_TRUE(log.contains(UpdateId{0, 1}));
  EXPECT_FALSE(log.apply(make_update(0, 1)));
  EXPECT_FALSE(log.get(UpdateId{0, 1}).has_value());
}

TEST(WriteLogTest, UpdatesForReportsTruncatedIds) {
  WriteLog log;
  log.apply(make_update(0, 1));
  log.apply(make_update(0, 2));
  SummaryVector stable;
  stable.add(UpdateId{0, 1});
  log.truncate_below(stable);
  const SummaryVector empty;
  std::vector<UpdateId> truncated;
  const auto sendable = log.updates_for(empty, &truncated);
  ASSERT_EQ(sendable.size(), 1u);
  EXPECT_EQ(sendable[0].id, (UpdateId{0, 2}));
  ASSERT_EQ(truncated.size(), 1u);
  EXPECT_EQ(truncated[0], (UpdateId{0, 1}));
}

TEST(WriteLogTest, PairwiseExchangeConverges) {
  // The algebra behind an anti-entropy session: exchanging summary
  // differences makes two random logs identical.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    WriteLog a, b;
    for (int i = 0; i < 40; ++i) {
      const auto origin = static_cast<NodeId>(rng.index(3));
      const auto seq = rng.uniform_u64(1, 10);
      const auto u = make_update(origin, seq, rng.uniform(0.0, 5.0));
      if (rng.bernoulli(0.5)) a.apply(u);
      if (rng.bernoulli(0.5)) b.apply(u);
    }
    for (const Update& u : a.updates_for(b.summary())) b.apply(u);
    for (const Update& u : b.updates_for(a.summary())) a.apply(u);
    EXPECT_EQ(a.summary(), b.summary());
    EXPECT_EQ(a.all_retained().size(), b.all_retained().size());
  }
}

}  // namespace
}  // namespace fastcons
