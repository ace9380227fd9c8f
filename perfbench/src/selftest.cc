// Self-tests of the benchmark's arithmetic on hand-built fixtures. Every
// run executes them before measuring, so a wrong tail rule, delta or self
// time can never produce a number.

#include <cmath>
#include <cstdio>
#include <string>

#include "selftest.h"
#include "stats.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTail() {
  // 100 samples: p90 leaves exactly 10 above it, p95 only 5.
  Tail t = TailOf(Range(100));
  ExpectNear(t.percentile, 90, "tail percentile at n=100");
  ExpectNear(t.value, 90.1, "tail value at n=100");
  Expect(t.samples == 100 && t.beyond == 10, "tail counts at n=100");
  // 1000 samples: p99 leaves 10, p99.9 only 1.
  t = TailOf(Range(1000));
  ExpectNear(t.percentile, 99, "tail percentile at n=1000");
  Expect(t.beyond == 10, "tail beyond at n=1000");
  // 19 samples: even p90 leaves one, so the median is the tail.
  t = TailOf(Range(19));
  ExpectNear(t.percentile, 50, "tail fallback at n=19");
  ExpectNear(t.value, 10, "tail fallback value");
  ExpectNear(Percentile({4, 1, 3, 2}, 50), 2.5, "median of four");
  ExpectNear(Percentile({}, 50), 0, "percentile of nothing");
}

void TestPrometheusDeltas() {
  const std::string before =
      "# TYPE daisy_engine_detect_ops_total counter\n"
      "daisy_engine_detect_ops_total 100\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{type=\"Query\",le=\"16\"} 1\n"
      "lat_us_bucket{type=\"Query\",le=\"32\"} 3\n"
      "lat_us_bucket{type=\"Query\",le=\"+Inf\"} 3\n"
      "lat_us_sum{type=\"Query\"} 50\n"
      "lat_us_count{type=\"Query\"} 3\n";
  const std::string after =
      "daisy_engine_detect_ops_total 160\n"
      "daisy_engine_repairs_total 7\n"
      "lat_us_bucket{type=\"Query\",le=\"16\"} 1\n"
      "lat_us_bucket{type=\"Query\",le=\"32\"} 7\n"
      "lat_us_bucket{type=\"Query\",le=\"+Inf\"} 9\n"
      "lat_us_sum{type=\"Query\"} 300\n"
      "lat_us_count{type=\"Query\"} 9\n"
      "lat_us_bucket{type=\"Append\",le=\"16\"} 5\n";
  const PromPage b = ParsePrometheus(before);
  const PromPage a = ParsePrometheus(after);
  ExpectNear(SampleDelta(b, a, "daisy_engine_detect_ops_total"), 60,
             "counter delta");
  ExpectNear(SampleDelta(b, a, "daisy_engine_repairs_total"), 7,
             "counter new on the second page");
  ExpectNear(SampleDelta(b, a, "absent_total"), 0, "counter on neither page");

  const HistogramDelta h = HistogramBetween(b, a, "lat_us", "type=\"Query\"");
  Expect(h.bounds.size() == 3 && std::isinf(h.bounds[2]),
         "histogram bounds end in +Inf");
  Expect(h.counts.size() == 3 && h.counts[0] == 0 && h.counts[1] == 4 &&
             h.counts[2] == 2,
         "histogram per-bucket deltas 0/4/2");
  ExpectNear(h.count, 6, "histogram count delta");
  ExpectNear(h.sum, 250, "histogram sum delta");
  // Median of 6 = the 3rd observation: 3/4 of the way through (16, 32].
  ExpectNear(HistogramQuantile(h, 0.5), 28, "histogram median");
  // The top quantile sits in +Inf and reads the last finite bound.
  ExpectNear(HistogramQuantile(h, 0.99), 32, "histogram quantile in +Inf");
  const HistogramDelta other = HistogramBetween(b, a, "lat_us", "type=\"Append\"");
  ExpectNear(HistogramQuantile(other, 0.5), 8, "other series kept apart");
}

void TestSelfTime() {
  std::vector<Span> spans(4);
  spans[0] = {"root", -1, 0, 100, 0};
  spans[1] = {"a", 0, 10, 30, 0};
  spans[2] = {"b", 0, 20, 50, 0};   // overlaps a: counted once
  spans[3] = {"c", 0, 90, 120, 0};  // runs past the root: clipped
  const std::vector<double> self = SelfTimes(spans);
  ExpectNear(self[0], 50, "root self = 100 - |[10,50] u [90,100]|");
  ExpectNear(self[1], 20, "leaf self = its duration");
  ExpectNear(CoveredLength({{5, 6}, {1, 3}, {2, 4}}, 0, 10), 4,
             "union of [1,4] and [5,6]");
}

void TestTraceSection() {
  const std::string text =
      "Aggregate [select=[x]]\n"
      "  rows: 3\n"
      "trace:\n"
      "Aggregate [select=[x]] open_us=100 next_us=0 rows=3\n"
      "  HashJoin [a.k = b.k] open_us=80 next_us=0 rows=50\n"
      "    CleanSelect [rule=phi fd] [adaptive] open_us=30 next_us=5 rows=40\n"
      "      Filter [a: (k >= 1)] [columnar] open_us=10 next_us=10 rows=40\n"
      "        Scan [a] open_us=1 next_us=4 rows=100\n"
      "    Scan [b] open_us=2 next_us=3 rows=10\n";
  std::vector<TraceNode> nodes;
  Expect(ParseTraceSection(text, &nodes) && nodes.size() == 6,
         "trace section parses six nodes");
  if (nodes.size() != 6) return;
  Expect(nodes[2].depth == 2 &&
             nodes[2].label == "CleanSelect [rule=phi fd] [adaptive]",
         "trace label and depth");
  ExpectNear(nodes[2].total_us, 35, "trace node total = open + next");
  Expect(nodes[4].rows == 100, "trace rows");

  std::vector<Span> spans(1);
  spans[0] = {"clean.engine", -1, 0, 150, 0};
  AppendTraceSpans(nodes, 0, 0, 0, &spans);
  const std::vector<double> self = SelfTimes(spans);
  ExpectNear(self[0], 50, "engine self = 150 - plan");
  ExpectNear(self[1], 20, "Aggregate self = 100 - 80");
  ExpectNear(self[2], 40, "HashJoin self = 80 - (35 + 5)");
  ExpectNear(self[3], 15, "CleanSelect self = 35 - 20");
  ExpectNear(self[4], 15, "Filter self = 20 - 5");
  ExpectNear(self[6], 5, "second join input laid after the first");
  Expect(OperatorLayer(nodes[0].label) == "plan.aggregate" &&
             OperatorLayer(nodes[1].label) == "plan.join" &&
             OperatorLayer(nodes[2].label) == "clean.cleanop" &&
             OperatorLayer(nodes[3].label) == "plan.scan_filter" &&
             OperatorLayer("CleanJoin [a.k = b.k]") == "plan.join" &&
             OperatorLayer("CleanSelect [rule=phi fd] [deferred]") ==
                 "clean.cleanop" &&
             OperatorLayer("Project [a.k]") == "plan.output",
         "operator layers");
  Expect(!ParseTraceSection("Scan [a]\n", &nodes), "no trace section");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestTail();
  TestPrometheusDeltas();
  TestSelfTime();
  TestTraceSection();
  return g_failures;
}

}  // namespace perfbench
