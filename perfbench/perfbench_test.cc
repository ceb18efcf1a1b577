// Unit checks of the benchmark's own scoring and tracing code, against
// values worked out by hand. Exits non-zero on the first failed check.
//
//   .bench_build/perfbench/perfbench_test
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "score.h"
#include "trace.h"

namespace {

int failures = 0;

void ExpectNear(const char* what, double got, double want, double tol) {
  if (std::fabs(got - want) > tol) {
    std::fprintf(stderr, "FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

void TestPowerScore() {
  // Write term 1 s; 13 templates at 10 ms and 12 at 1 s. The 26 factors
  // multiply to 1 · 0.01^13 · 1^12 = 1e-26, so the geomean is 0.1 s and the
  // score 3600 / 0.1 = 36000.
  std::vector<double> t;
  for (int i = 0; i < 13; ++i) t.push_back(10.0);
  for (int i = 0; i < 12; ++i) t.push_back(1000.0);
  ExpectNear("power score with write term", perfbench::PowerScore(1000.0, t),
             36000.0, 1e-6);
  // Without the write term the 25 reads alone: 0.01^(13/25) s =
  // 10^-1.04 s = 91.2010839 ms.
  ExpectNear("read geomean", perfbench::Geomean(t), 91.20108393559098, 1e-9);
  // A slower write lowers the score: write 100 s → product 1e-24, geomean
  // 10^(-24/26) s, score 3600 · 10^(24/26) = 30156.3950.
  ExpectNear("power score, slow write", perfbench::PowerScore(100000.0, t),
             3600.0 * std::pow(10.0, 24.0 / 26.0), 1e-6);
  ExpectNear("slow write, literal", perfbench::PowerScore(100000.0, t),
             30156.3950, 1e-3);
}

void TestQuantiles() {
  // Closest-rank interpolation: for 1..5, p50 = 3, p25 = 2, p99 = 4.96.
  std::vector<double> v = {5, 1, 4, 2, 3};
  ExpectNear("median", perfbench::Median(v), 3.0, 1e-12);
  ExpectNear("p25", perfbench::Quantile(v, 0.25), 2.0, 1e-12);
  ExpectNear("p99", perfbench::Quantile(v, 0.99), 4.96, 1e-12);
  ExpectNear("mean", perfbench::Mean(v), 3.0, 1e-12);
  ExpectNear("empty median", perfbench::Median({}), 0.0, 0.0);
}

void TestSelfTime() {
  perfbench::Tracer tracer(true, 7);
  {
    perfbench::ScopedSpan outer(tracer, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      perfbench::ScopedSpan inner(tracer, "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  const std::vector<perfbench::Span> spans = tracer.Spans();
  if (spans.size() != 2 || spans[1].parent != 0 || spans[0].parent != -1 ||
      spans[0].run_id != 7) {
    std::fprintf(stderr, "FAIL span tree: %zu spans\n", spans.size());
    ++failures;
    return;
  }
  auto totals = tracer.Summarize();
  const perfbench::SpanTotals& outer = totals["outer"];
  const perfbench::SpanTotals& inner = totals["inner"];
  // Self time is the span minus its children: outer's self is its total
  // minus inner's total, exactly.
  ExpectNear("outer self = total - child", outer.self_ms,
             outer.total_ms - inner.total_ms, 1e-9);
  ExpectNear("inner self = total", inner.self_ms, inner.total_ms, 1e-9);
  if (!(outer.self_ms >= 19.0 && inner.total_ms >= 29.0)) {
    std::fprintf(stderr, "FAIL sleeps not covered: outer self %.3f, inner %.3f\n",
                 outer.self_ms, inner.total_ms);
    ++failures;
  }
  perfbench::Tracer off(false, 1);
  { perfbench::ScopedSpan span(off, "ignored"); }
  if (!off.Spans().empty()) {
    std::fprintf(stderr, "FAIL disabled tracer recorded a span\n");
    ++failures;
  }
}

}  // namespace

int main() {
  TestPowerScore();
  TestQuantiles();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
