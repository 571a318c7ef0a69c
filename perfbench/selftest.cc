// Unit checks of the benchmark's own statistics helpers. Exit code 0 when
// every check holds. Run through `python3 perfbench/run.py --selftest`,
// which also runs the planted-fault checks against the real runners.
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/bench_util.h"

namespace nearpm {
namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-12 * std::fabs(b);
}

void PercentileIsNearestRank() {
  Samples s;
  Expect(s.Percentile(0.5) == 0, "empty set percentile is 0");
  for (int v : {5, 1, 4, 2, 3}) {  // unsorted on purpose
    s.Add(v);
  }
  Expect(s.Percentile(0.0) == 1, "p0 is the minimum");
  Expect(s.Percentile(0.2) == 1, "p20 of 5 is the 1st value");
  Expect(s.Percentile(0.5) == 3, "p50 of 1..5 is 3");
  Expect(s.Percentile(0.99) == 5, "p99 of 5 samples is the maximum");
  Expect(s.Percentile(1.0) == 5, "p100 is the maximum");
  s.Add(1000);  // adding after a query re-sorts
  Expect(s.Percentile(1.0) == 1000, "percentile sees samples added later");
}

void PercentileIsExactNotBucketed() {
  // A power-of-two histogram would report 65535 for all of these.
  Samples s;
  for (int i = 0; i < 100; ++i) {
    s.Add(40000 + i);
  }
  Expect(s.Percentile(0.5) == 40049, "p50 of 40000..40099 is exact");
  Expect(s.Percentile(0.99) == 40098, "p99 of 40000..40099 is exact");
  Expect(Near(s.sum(), 4004950), "sum is exact");
}

void TrustedTail() {
  Samples s;
  for (int i = 0; i < 10; ++i) {
    s.Add(i);
  }
  Expect(s.TrustedPercentile() < 0, "10 samples support no tail percentile");
  for (int i = 0; i < 990; ++i) {
    s.Add(i);
  }
  Expect(Near(s.TrustedPercentile(), 0.99),
         "1000 samples support p99 (10 beyond it)");
}

void GeoMeanHelper() {
  Expect(GeoMean({}) == 0, "geomean of nothing is 0");
  Expect(Near(GeoMean({2, 8}), 4), "geomean(2, 8) = 4");
  Expect(Near(GeoMean({1.5, 1.5, 1.5}), 1.5), "geomean of equal values");
  Expect(GeoMean({2, 0}) == 0, "a zero ratio poisons the geomean");
  Expect(GeoMean({2, -1}) == 0, "a negative ratio poisons the geomean");
}

void MedianHelper() {
  Expect(Median({}) == 0, "median of nothing is 0");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle");
}

void SpanSelfTime() {
  EnableSpans(16);
  {
    Span outer("bench.outer");
    Span inner("core.inner");
    inner.End();
  }
  const auto totals = SpanTotals();
  const SpanAggregate& outer = totals.at("bench.outer");
  const SpanAggregate& inner = totals.at("core.inner");
  Expect(outer.count == 1 && inner.count == 1, "one span of each name");
  Expect(outer.self_ns + inner.total_ns == outer.total_ns,
         "self time excludes child spans");
}

}  // namespace
}  // namespace perfbench
}  // namespace nearpm

int main() {
  using namespace nearpm::perfbench;
  PercentileIsNearestRank();
  PercentileIsExactNotBucketed();
  TrustedTail();
  GeoMeanHelper();
  MedianHelper();
  SpanSelfTime();
  std::printf("perfbench selftest: %s\n", g_failures == 0 ? "ok" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
