// Tests for the benchmark's own helpers: nearest-rank percentiles and the
// ten-samples-beyond rule, span self time, and open-loop lag accounting
// against a fake clock.
#include <gtest/gtest.h>

#include <vector>

#include "bench_util.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(NearestRank, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(0, 99.0), 0u);
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile_supported(19, 50.0));
}

TEST(NearestRank, SummarizeCountsAndLeavesInputAlone) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.p99, 5.0);
  EXPECT_EQ(v.front(), 5.0);
  EXPECT_EQ(summarize(one_to(1000)).p99, 990.0);
  EXPECT_EQ(summarize({}).n, 0u);
  EXPECT_EQ(median({}), 0.0);
}

TEST(BucketedLatency, BestDecileOverWholeBuckets) {
  BucketedLatency b(10.0, 1.0);
  // Bucket [10,11): 1000 samples 1..1000 (p50 500, p99 990). Bucket
  // [11,12): empty. Bucket [12,13): 2000 samples of 7. The partial [13,14)
  // is dropped by finish().
  for (int i = 1; i <= 1000; ++i) b.add(10.0 + i * 1e-4, i);
  for (int i = 0; i < 2000; ++i) b.add(12.5, 7.0);
  b.add(13.2, 1e9);
  b.finish(13.9);
  EXPECT_EQ(b.samples(), 3000u);
  EXPECT_DOUBLE_EQ(b.best_rate(), 2000.0);  // rates 1000, 0, 2000
  EXPECT_DOUBLE_EQ(b.best_p50(), 7.0);      // p50s 500, 7
  EXPECT_EQ(b.p99_buckets(), 2u);
  EXPECT_DOUBLE_EQ(b.best_p99(), 7.0);  // p99s 990, 7

  BucketedLatency small(0.0, 1.0);
  for (int i = 0; i < 999; ++i) small.add(0.5, 1.0);  // too few for a p99
  small.finish(1.0);
  EXPECT_EQ(small.p99_buckets(), 0u);
  EXPECT_EQ(small.best_p99(), 0.0);
  EXPECT_DOUBLE_EQ(small.best_p50(), 1.0);
}

TEST(Spans, SelfTimeSubtractsMergedClippedChildren) {
  std::vector<Span> spans = {
      {1, 0, "root", 0.0, 10.0},
      {1, 1, "a", 1.0, 3.0},
      {1, 1, "b", 2.0, 4.0},    // overlaps a: [1,4] counted once
      {1, 1, "c", 9.0, 12.0},   // clipped to the root: [9,10]
      {1, 2, "leaf", 1.5, 2.5}, // grandchild: only a's self time shrinks
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, TracerIdsParentsAndDisabledMode) {
  Tracer t(true);
  const std::uint32_t root = t.open(5, 0, "driver.write", 0.0);
  t.add(5, root, "net.write", 0.0, 0.25);
  t.add(5, root, "net.read", 0.5, 0.75);
  t.close(root, 1.0);
  EXPECT_EQ(root, 1u);
  ASSERT_EQ(t.durations("driver.write").size(), 1u);
  EXPECT_DOUBLE_EQ(t.durations("driver.write")[0], 1.0);
  EXPECT_DOUBLE_EQ(t.self_times("driver.write")[0], 0.5);
  EXPECT_EQ(t.durations("net.read").size(), 1u);

  Tracer off(false);
  EXPECT_EQ(off.open(1, 0, "x", 0.0), 0u);
  off.close(0, 1.0);
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, OnTimeWritesHaveNoLag) {
  OpenLoop gen(100.0, 10.0);  // one write every 0.1 s from t = 100
  EXPECT_EQ(gen.take_due(99.99, 8), 0u);
  EXPECT_EQ(gen.take_due(100.0, 8), 1u);
  EXPECT_EQ(gen.take_due(100.1, 8), 1u);
  EXPECT_EQ(gen.next(), 2u);
  for (const double lag : gen.lags_s()) EXPECT_NEAR(lag, 0.0, 1e-9);
}

TEST(OpenLoop, StallIsChargedToEveryLateWriteInBoundedBatches) {
  OpenLoop gen(0.0, 10.0);
  // The fake clock jumps to t = 1.05: writes 0..10 are due, 11 are taken
  // in two batches so a confirm pass can run between them.
  EXPECT_EQ(gen.take_due(1.05, 8), 8u);
  EXPECT_EQ(gen.take_due(1.05, 8), 3u);
  EXPECT_EQ(gen.take_due(1.05, 8), 0u);
  ASSERT_EQ(gen.lags_s().size(), 11u);
  EXPECT_NEAR(gen.lags_s()[0], 1.05, 1e-9);
  EXPECT_NEAR(gen.lags_s()[10], 0.05, 1e-9);
  // Schedule does not drift: write 11 is still due at 1.1, not 1.05 + 0.1.
  EXPECT_DOUBLE_EQ(gen.due(11), 1.1);
  EXPECT_EQ(gen.take_due(1.1, 8), 1u);
  EXPECT_NEAR(gen.lags_s().back(), 0.0, 1e-9);
  EXPECT_NEAR(summarize(gen.lags_s()).p99, 1.05, 1e-9);
}

TEST(ResultJson, PrintsEveryMetricAndFailures) {
  Result r;
  r.metric("setup_s", 0.25, "s");
  r.attempted(3);
  r.failed(1);
  EXPECT_TRUE(r.correct());
  r.fail("bad \"digest\"");
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.json(),
            "{\"correct\":false,\"attempted\":3,\"failed\":1,"
            "\"errors\":[\"bad \\\"digest\\\"\"],"
            "\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}");
}

}  // namespace
}  // namespace perfbench
