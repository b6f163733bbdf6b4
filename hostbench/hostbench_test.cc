// Tests of the benchmark's own arithmetic: the quantile rule and span self time.

#include <gtest/gtest.h>

#include <vector>

#include "hostbench/bench_util.h"
#include "hostbench/workloads.h"

namespace hostbench {
namespace {

// Expected values are Python's statistics.quantiles(data, n=4) / statistics.median.
TEST(QuantileTest, MatchesPythonExclusiveQuartiles) {
  const std::vector<double> ten = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  EXPECT_DOUBLE_EQ(Quantile(ten, 0.25), 2.75);
  EXPECT_DOUBLE_EQ(Quantile(ten, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(ten, 0.75), 8.25);
  EXPECT_DOUBLE_EQ(Median(ten), 5.5);

  const std::vector<double> five = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(Quantile(five, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(five, 0.75), 4.5);
  EXPECT_DOUBLE_EQ(Median(five), 3.0);
}

TEST(QuantileTest, ClampsToTheInnerPairLikePython) {
  // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: positions outside the samples extrapolate
  // from the nearest pair.
  const std::vector<double> two = {2, 1};
  EXPECT_DOUBLE_EQ(Quantile(two, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(Quantile(two, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(Quantile(two, 0.75), 2.25);
}

TEST(QuantileTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({42}, 0.1), 42.0);
  Spread s = SpreadOf({4, 4, 4});
  EXPECT_DOUBLE_EQ(s.median, 4);
  EXPECT_DOUBLE_EQ(s.p10, 4);
  EXPECT_DOUBLE_EQ(s.p90, 4);
  EXPECT_EQ(s.reps, 3);
}

TEST(SelfTimeTest, NestedChildrenSubtractOnlyFromTheirParent) {
  SpanLog log(true);
  int root = log.Add("root", -1, 0, 100);
  int child = log.Add("child", root, 10, 60);
  log.Add("grandchild", child, 20, 30);
  std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[0], 50);  // 100 - child's 50
  EXPECT_EQ(self[1], 40);  // 50 - grandchild's 10
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, OverlappingChildrenCountTheirUnionOnce) {
  SpanLog log(true);
  int root = log.Add("root", -1, 0, 100);
  log.Add("a", root, 10, 50);
  log.Add("b", root, 30, 70);  // overlaps a by 20
  log.Add("c", root, 40, 45);  // inside both
  log.Add("d", root, 80, 90);
  std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[0], 100 - 60 - 10);
}

TEST(SelfTimeTest, ChildrenOutsideTheParentAreClipped) {
  SpanLog log(true);
  int root = log.Add("root", -1, 100, 200);
  log.Add("early", root, 50, 120);  // only 100..120 counts
  log.Add("late", root, 190, 300);  // only 190..200 counts
  log.Add("outside", root, 300, 400);
  std::vector<int64_t> self = SelfTimes(log.spans());
  EXPECT_EQ(self[0], 100 - 20 - 10);
}

TEST(SpanLogTest, DisabledLogRecordsNothing) {
  SpanLog log(false);
  int id = log.Begin("x");
  log.End(id);
  EXPECT_EQ(id, -1);
  EXPECT_EQ(log.Add("y", -1, 0, 1), -1);
  EXPECT_TRUE(log.spans().empty());
}

TEST(DeriveSeedTest, StreamsDifferAndRepeat) {
  EXPECT_EQ(DeriveSeed(7, 3), DeriveSeed(7, 3));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(7, 4));
  EXPECT_NE(DeriveSeed(7, 3), DeriveSeed(8, 3));
}

}  // namespace
}  // namespace hostbench
