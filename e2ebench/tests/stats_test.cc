// Tests of the benchmark's measurement arithmetic: the percentile-with-
// support rule, sliced percentiles, open-loop lateness accounting, the
// span rollup and histogram quantiles. Plain checks that stay on in
// optimized builds; exits nonzero on the first failure.
//
//   cmake --build .bench_build/e2ebench --target e2ebench_stats_test
//   .bench_build/e2ebench/e2ebench_stats_test
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "e2ebench/src/stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) Expect(std::fabs((a) - (b)) < 1e-9, #a " == " #b, __LINE__)

using e2ebench::Tail;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestMedianAndPercentile() {
  EXPECT_NEAR(e2ebench::Median({}), 0.0);
  EXPECT_NEAR(e2ebench::Median({3, 1, 2}), 2.0);
  EXPECT_NEAR(e2ebench::Median({4, 1, 3, 2}), 2.5);
  std::vector<double> v = Ramp(100);
  EXPECT_NEAR(e2ebench::PercentileNearestRank(v, 99), 99.0);
  EXPECT_NEAR(e2ebench::PercentileNearestRank(v, 50), 50.0);
  EXPECT_NEAR(e2ebench::PercentileNearestRank(v, 100), 100.0);
  EXPECT_NEAR(e2ebench::PercentileNearestRank({7}, 99), 7.0);
}

void TestTailSupport() {
  // 1000 samples: the 990th value has exactly 10 above it (p99).
  Tail t = e2ebench::TailWithSupport(Ramp(1000));
  EXPECT_NEAR(t.percentile, 99.0);
  EXPECT(t.beyond == 10);
  EXPECT(t.samples == 1000);
  EXPECT_NEAR(t.value, 990.0);
  // 40 samples: the 30th value, p75.
  t = e2ebench::TailWithSupport(Ramp(40));
  EXPECT_NEAR(t.percentile, 75.0);
  EXPECT_NEAR(t.value, 30.0);
  EXPECT(t.beyond == 10);
  // Unordered input is fine.
  t = e2ebench::TailWithSupport({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12});
  EXPECT_NEAR(t.value, 2.0);
  // Too few samples: the median is reported and the short support shows.
  t = e2ebench::TailWithSupport(Ramp(9));
  EXPECT_NEAR(t.value, 5.0);
  EXPECT(t.beyond < 10);
  EXPECT(e2ebench::TailWithSupport({}).samples == 0);
  EXPECT(e2ebench::SamplesBeyond(200, 95) == 10);
  EXPECT(e2ebench::SamplesBeyond(0, 50) == 0);
}

void TestSlicedPercentile() {
  // Five slices of 100; one slice hit by a 50 ms stall. The median over
  // slices ignores it; a plain p90 over all samples does not.
  std::vector<double> v;
  for (int s = 0; s < 5; ++s) {
    for (int i = 0; i < 100; ++i) v.push_back(s == 2 && i >= 60 ? 50.0 : 1.0);
  }
  Tail t = e2ebench::SlicedPercentile(v, 5, 90);
  EXPECT_NEAR(t.value, 1.0);
  EXPECT(t.samples == 100);
  EXPECT(t.beyond == 10);
  EXPECT_NEAR(e2ebench::PercentileNearestRank(v, 95), 50.0);
  EXPECT(e2ebench::SlicedPercentile({}, 3, 50).samples == 0);
}

void TestLatenessAccounting() {
  e2ebench::PhaseRecorder rec(/*slo_ms=*/2.0);
  // On time: due 0, sent 0, done 1 ms.
  rec.Record(0, 0, 1000000, true);
  // The generator ran 3 ms late: latency counts from the due time.
  rec.Record(10000000, 13000000, 13500000, true);
  // Sent early (clock jitter): lateness is never negative.
  rec.Record(20000000, 19990000, 20500000, true);
  // A reject is a miss even when fast.
  rec.Record(30000000, 30000000, 30100000, false);
  EXPECT(rec.attempted() == 4);
  EXPECT(rec.failed() == 1);
  EXPECT(rec.slo_ok() == 2);
  EXPECT_NEAR(rec.latency_ms()[1], 3.5);
  EXPECT_NEAR(rec.lateness_ms()[1], 3.0);
  EXPECT_NEAR(rec.lateness_ms()[2], 0.0);
}

void TestRollup() {
  using autodc::obs::SpanRecord;
  std::vector<SpanRecord> spans(4);
  spans[0] = {"run", 1, 0, 0, 0, 0, 10000, 0};
  spans[1] = {"stage", 2, 1, 1, 0, 0, 6000, 0};
  spans[2] = {"stage", 3, 1, 1, 0, 6000, 3000, 0};
  spans[3] = {"kernel", 4, 2, 2, 1, 100, 5000, 0};
  auto roll = e2ebench::RollupSpans(spans);
  EXPECT_NEAR(roll["run"].total_ms, 10.0);
  EXPECT_NEAR(roll["run"].self_ms, 1.0);
  EXPECT_NEAR(roll["stage"].total_ms, 9.0);
  EXPECT_NEAR(roll["stage"].self_ms, 4.0);
  EXPECT(roll["stage"].count == 2);
  EXPECT_NEAR(roll["kernel"].self_ms, 5.0);
}

void TestHistogramQuantile() {
  std::vector<double> bounds = {1, 2, 4};
  EXPECT_NEAR(e2ebench::HistogramQuantile(bounds, {0, 10, 0, 0}, 0.5), 1.5);
  EXPECT_NEAR(e2ebench::HistogramQuantile(bounds, {10, 0, 0, 0}, 1.0), 1.0);
  EXPECT_NEAR(e2ebench::HistogramQuantile(bounds, {0, 0, 0, 5}, 0.99), 4.0);
  EXPECT_NEAR(e2ebench::HistogramQuantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
}

}  // namespace

int main() {
  TestMedianAndPercentile();
  TestTailSupport();
  TestSlicedPercentile();
  TestLatenessAccounting();
  TestRollup();
  TestHistogramQuantile();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
