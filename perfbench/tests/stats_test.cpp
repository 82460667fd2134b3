// Tests of the benchmark's own statistics: quantiles (which must agree
// with Python's statistics.quantiles, the acceptance check's reader), the
// tail percentile choice, the geometric mean, the median-pass throughput,
// the base of every ratio metric, and span self times.
#include <gtest/gtest.h>

#include <thread>

#include "core/utils.h"
#include "spans.h"
#include "stats.h"
#include "workloads/fragmentation.h"
#include "workloads/workgen.h"

namespace perfbench {
namespace {

// Expected values are statistics.quantiles(data, n=4) from Python 3.
TEST(Quantiles, MatchPythonExclusiveMethod) {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(quantile(ten, 0.25), 2.75);
  EXPECT_DOUBLE_EQ(quantile(ten, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(quantile(ten, 0.75), 8.25);

  const std::vector<double> five = {10.5, 2.25, 7.0, 1.0, 9.75};
  EXPECT_DOUBLE_EQ(quantile(five, 0.25), 1.625);
  EXPECT_DOUBLE_EQ(median(five), 7.0);
  EXPECT_DOUBLE_EQ(quantile(five, 0.75), 10.125);
}

TEST(Quantiles, ExtrapolateAtTheEndsLikePython) {
  // Python gives [4.5, 6.0, 7.5] for [5, 7]: the quartiles of two points
  // lie outside them.
  EXPECT_DOUBLE_EQ(quantile({5, 7}, 0.25), 4.5);
  EXPECT_DOUBLE_EQ(quantile({5, 7}, 0.75), 7.5);
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.75), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4}, 0.25), 4.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Spread, IqrAndItsShareOfTheMedian) {
  const auto s = spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_DOUBLE_EQ(s.iqr(), 5.5);
  EXPECT_DOUBLE_EQ(s.rel_iqr(), 1.0);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(spread({0, 0, 0}).rel_iqr(), 0.0);
  EXPECT_DOUBLE_EQ(spread({100, 100, 100, 100}).rel_iqr(), 0.0);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  // 1000 samples: p99.9 has 1 beyond it, p99 has 10.
  auto t = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.pctl, 99);
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_NEAR(t.value, 990.99, 1e-9);  // Python: quantiles(n=100)[98]
  // 200 samples: p99 has 2 beyond, p95 has 10.
  t = tail(one_to(200));
  EXPECT_DOUBLE_EQ(t.pctl, 95);
  EXPECT_NEAR(t.value, 190.95, 1e-9);
  EXPECT_DOUBLE_EQ(tail(one_to(100)).pctl, 90);
  EXPECT_DOUBLE_EQ(tail(one_to(99)).pctl, 75);
  EXPECT_DOUBLE_EQ(tail(one_to(40)).pctl, 75);
  EXPECT_DOUBLE_EQ(tail(one_to(20)).pctl, 50);
}

TEST(Tail, FewSamplesFallBackToTheMedianAndSayHowMany) {
  const auto t = tail({3, 1, 2});
  EXPECT_DOUBLE_EQ(t.pctl, 50);
  EXPECT_DOUBLE_EQ(t.value, 2);
  EXPECT_EQ(t.samples, 3u);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Geomean, EachCellCountsOnce) {
  EXPECT_NEAR(geomean({1, 100}), 10, 1e-12);
  EXPECT_NEAR(geomean({2, 8, 4}), 4, 1e-12);
  EXPECT_NEAR(geomean({5, 0, -1, 5}), 5, 1e-12);  // non-positive skipped
  EXPECT_DOUBLE_EQ(geomean({}), 0);
}

TEST(Throughput, MedianPassWeighsEveryKeyAndShrugsOffOneStall) {
  Throughput t;
  t.add("a", 100, 1.0);
  t.add("a", 100, 1.0);
  t.add("a", 100, 50.0);  // one stalled repetition
  t.add("b", 50, 0.5);
  EXPECT_DOUBLE_EQ(t.ops_per_s(), 150 / 1.5);
  EXPECT_DOUBLE_EQ(t.median_ms("a"), 1000);
  EXPECT_DOUBLE_EQ(t.median_ms("missing"), 0);
  EXPECT_DOUBLE_EQ(Throughput().ops_per_s(), 0);
}

TEST(RatioBases, FragmentationIsSpanOverSixteenByteRoundedDensePacking) {
  // Sizes 4 and 40 pack densely into 16 + 48 bytes.
  const std::uint64_t dense =
      gms::core::round_up(4, 16) + gms::core::round_up(40, 16);
  EXPECT_EQ(dense, 64u);
  EXPECT_DOUBLE_EQ(frag_ratio(128, dense), 2.0);
  EXPECT_DOUBLE_EQ(frag_ratio(128, 0), 0.0);
}

TEST(RatioBases, OomFillIsAchievedOverTheTheoreticalCount) {
  // 10 MiB of 250-byte requests rounded to 256: 40,960 fit.
  gms::work::OomResult r;
  r.achieved = 20480;
  r.theoretical = (std::uint64_t{10} << 20) / gms::core::round_up(250, 16);
  EXPECT_EQ(r.theoretical, 40960u);
  EXPECT_DOUBLE_EQ(r.percent_of_baseline(), 50.0);
  r.theoretical = 0;
  EXPECT_DOUBLE_EQ(r.percent_of_baseline(), 0.0);
}

TEST(RatioBases, AccessTransactionsOverTheCoalescedBaseline) {
  gms::work::AccessPerfResult r;
  r.transactions = 300;
  r.baseline_transactions = 100;
  EXPECT_DOUBLE_EQ(r.transaction_ratio(), 3.0);
  r.baseline_transactions = 0;
  EXPECT_DOUBLE_EQ(r.transaction_ratio(), 0.0);
}

TEST(RatioBases, SharesTaxesAndPerOpCosts) {
  EXPECT_DOUBLE_EQ(share_pct(1, 4), 25);
  EXPECT_DOUBLE_EQ(share_pct(1, 0), 0);
  EXPECT_DOUBLE_EQ(per_op(30, 10), 3);
  EXPECT_DOUBLE_EQ(per_op(30, 0), 0);
  // A stage that makes a rung 10% slower; the overhead of tracing when the
  // traced run reaches 80 of the untraced run's 100 ops/s.
  EXPECT_NEAR(tax_pct(110, 100), 10, 1e-12);
  EXPECT_NEAR(tax_pct(100, 80), 25, 1e-12);
  EXPECT_DOUBLE_EQ(tax_pct(5, 0), 0);
  // 10 kernels over a 1 ms floor in 40 ms of kernel time.
  EXPECT_DOUBLE_EQ(sim_share_pct(10, 1.0, 40.0), 25);
  // 2 shards busy 150 ms in total over a 100 ms run.
  EXPECT_DOUBLE_EQ(exec_share_pct(150, 100, 2), 75);
}

TEST(Spans, SelfTimeExcludesChildrenAndCallsCountSpans) {
  Spans spans(true);
  const auto t0 = std::chrono::steady_clock::now();
  {
    auto root = spans.open("bench", "workload");
    for (int i = 0; i < 2; ++i) {
      auto child = spans.open("gpu", "launch");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const auto self = spans.self_seconds();
  EXPECT_GE(self.at("gpu"), 0.040);
  EXPECT_LT(self.at("bench"), 0.020);
  EXPECT_LE(self.at("bench") + self.at("gpu"), wall);
  const auto calls = spans.calls();
  EXPECT_EQ(calls.at("gpu.launch"), 2u);
  EXPECT_EQ(calls.at("bench.workload"), 1u);
}

TEST(Spans, DisabledRecordsNothing) {
  Spans spans(false);
  { auto s = spans.open("gpu", "launch"); }
  EXPECT_TRUE(spans.calls().empty());
  EXPECT_TRUE(spans.self_seconds().empty());
}

}  // namespace
}  // namespace perfbench
