// The benchmark's own arithmetic: percentiles and the tail rule, deltas
// between two Prometheus text pages, span self time, and parsing of the
// `trace:` section of EXPLAIN ANALYZE. Pure functions over plain data, so
// selftest.cc can pin each one on hand-built fixtures.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// The highest percentile of {50, 90, 95, 99, 99.9} that has at least
/// `min_beyond` samples above its rank (n - ceil(n * p / 100)); the median
/// when even that has fewer.
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(const std::vector<double>& v, size_t min_beyond = 10);

/// One parsed exposition page: full sample name (labels included, as
/// rendered) -> value.
using PromPage = std::map<std::string, double>;
PromPage ParsePrometheus(const std::string& text);

/// after - before for one sample name; a sample missing from a page reads 0.
double SampleDelta(const PromPage& before, const PromPage& after,
                   const std::string& name);

/// A histogram's change between two pages: per-bucket (non-cumulative)
/// counts against their upper bounds, the last bound +Inf.
struct HistogramDelta {
  std::vector<double> bounds;
  std::vector<double> counts;
  double count = 0;
  double sum = 0;
};
/// `labels` selects the series, e.g. `type="Query"` (empty = none).
HistogramDelta HistogramBetween(const PromPage& before, const PromPage& after,
                                const std::string& family,
                                const std::string& labels);

/// Quantile q in [0, 1] of a bucketed distribution, interpolating linearly
/// inside the bucket (the first bucket's lower edge is 0; a quantile in the
/// +Inf bucket reads the last finite bound). 0 when empty.
double HistogramQuantile(const HistogramDelta& h, double q);

/// A timed interval with its cause. `parent` is an index into the same
/// vector, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0;
  double end_us = 0;
  uint32_t op = 0;  ///< the operation the span belongs to
};

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

/// Per span: its duration minus the part of it its children cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// One line of the `trace:` section: `<label> open_us=N next_us=N rows=N`
/// at two spaces of indentation per depth. open+next is the node's wall
/// time, inclusive of its children.
struct TraceNode {
  int depth = 0;
  std::string label;
  double total_us = 0;
  uint64_t rows = 0;
};
/// Returns false when the text has no well-formed `trace:` section.
bool ParseTraceSection(const std::string& explain_analyze,
                       std::vector<TraceNode>* out);

/// Lays a parsed trace out as spans under `parent` (an index into *spans),
/// starting at `start_us`: siblings follow one another, children start at
/// their parent's start. Only durations are measured, so the layout is
/// what makes SelfTimes apply: a node's self time is its total minus its
/// children's coverage.
void AppendTraceSpans(const std::vector<TraceNode>& nodes, int parent,
                      double start_us, uint32_t op, std::vector<Span>* spans);

/// The layer a plan-operator label belongs to: "plan.scan_filter",
/// "plan.join" (HashJoin and CleanJoin), "plan.aggregate", "plan.output"
/// or "clean.cleanop" (CleanSelect, in-chain or deferred).
std::string OperatorLayer(const std::string& label);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
