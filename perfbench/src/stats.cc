#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail TailOf(const std::vector<double>& v, size_t min_beyond) {
  Tail tail;
  tail.samples = v.size();
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double n = static_cast<double>(v.size());
    const size_t at_or_below = static_cast<size_t>(std::ceil(n * p / 100.0 - 1e-9));
    const size_t beyond = v.size() - std::min(at_or_below, v.size());
    if (p > 50.0 && beyond < min_beyond) break;
    tail.percentile = p;
    tail.beyond = beyond;
  }
  tail.value = Percentile(v, tail.percentile);
  return tail;
}

PromPage ParsePrometheus(const std::string& text) {
  PromPage page;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Label values never hold spaces in this exposition, so the value is
    // whatever follows the last space.
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0) continue;
    char* end = nullptr;
    const std::string value = line.substr(space + 1);
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) continue;
    page[line.substr(0, space)] = v;
  }
  return page;
}

double SampleDelta(const PromPage& before, const PromPage& after,
                   const std::string& name) {
  auto read = [&name](const PromPage& page) {
    const auto it = page.find(name);
    return it == page.end() ? 0.0 : it->second;
  };
  return read(after) - read(before);
}

namespace {

/// `family_bucket{<labels,>le="B"}` -> B, for the series `labels`.
bool BucketBound(const std::string& sample, const std::string& family,
                 const std::string& labels, double* bound) {
  const std::string prefix =
      family + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  if (sample.compare(0, prefix.size(), prefix) != 0) return false;
  const size_t close = sample.find('"', prefix.size());
  if (close == std::string::npos) return false;
  const std::string b = sample.substr(prefix.size(), close - prefix.size());
  *bound = b == "+Inf" ? HUGE_VAL : std::strtod(b.c_str(), nullptr);
  return true;
}

}  // namespace

HistogramDelta HistogramBetween(const PromPage& before, const PromPage& after,
                                const std::string& family,
                                const std::string& labels) {
  // Cumulative bucket deltas by bound, then differenced into per-bucket
  // counts. Bounds come from `after`, a superset of `before`'s series.
  std::vector<std::pair<double, double>> cumulative;
  for (const auto& [name, value] : after) {
    double bound = 0;
    if (!BucketBound(name, family, labels, &bound)) continue;
    const auto old = before.find(name);
    cumulative.emplace_back(bound,
                            value - (old == before.end() ? 0.0 : old->second));
  }
  std::sort(cumulative.begin(), cumulative.end());
  HistogramDelta h;
  double prev = 0;
  for (const auto& [bound, cum] : cumulative) {
    h.bounds.push_back(bound);
    h.counts.push_back(cum - prev);
    prev = cum;
  }
  const std::string series = labels.empty() ? "" : "{" + labels + "}";
  h.count = SampleDelta(before, after, family + "_count" + series);
  h.sum = SampleDelta(before, after, family + "_sum" + series);
  return h;
}

double HistogramQuantile(const HistogramDelta& h, double q) {
  double total = 0;
  for (double c : h.counts) total += c;
  if (total <= 0) return 0;
  const double target = q * total;
  double seen = 0;
  double lower = 0;
  double last_finite = 0;
  for (size_t i = 0; i < h.bounds.size(); ++i) {
    const double upper = h.bounds[i];
    if (std::isinf(upper)) {
      if (seen + h.counts[i] >= target) return last_finite;
      continue;
    }
    last_finite = upper;
    if (h.counts[i] > 0 && seen + h.counts[i] >= target) {
      return lower + (upper - lower) * (target - seen) / h.counts[i];
    }
    seen += h.counts[i];
    lower = upper;
  }
  return last_finite;
}

double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_us - s.start_us) -
              CoveredLength(children[i], s.start_us, s.end_us);
  }
  return self;
}

bool ParseTraceSection(const std::string& text, std::vector<TraceNode>* out) {
  out->clear();
  const size_t at = text.find("\ntrace:\n");
  if (at == std::string::npos) return false;
  std::istringstream in(text.substr(at + 8));
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    size_t indent = 0;
    while (indent < line.size() && line[indent] == ' ') ++indent;
    const size_t open = line.rfind(" open_us=");
    const size_t next = line.rfind(" next_us=");
    const size_t rows = line.rfind(" rows=");
    if (indent % 2 != 0 || open == std::string::npos ||
        next == std::string::npos || rows == std::string::npos ||
        !(indent < open && open < next && next < rows)) {
      return false;
    }
    TraceNode node;
    node.depth = static_cast<int>(indent / 2);
    node.label = line.substr(indent, open - indent);
    node.total_us = std::strtod(line.c_str() + open + 9, nullptr) +
                    std::strtod(line.c_str() + next + 9, nullptr);
    node.rows = std::strtoull(line.c_str() + rows + 6, nullptr, 10);
    out->push_back(std::move(node));
  }
  return !out->empty();
}

void AppendTraceSpans(const std::vector<TraceNode>& nodes, int parent,
                      double start_us, uint32_t op, std::vector<Span>* spans) {
  // stack[d] = index of the open span at depth d; cursor[d] = where the
  // next node at depth d starts (its previous sibling's end, or its
  // parent's start).
  std::vector<int> stack;
  std::vector<double> cursor{start_us};
  for (const TraceNode& node : nodes) {
    const size_t depth = static_cast<size_t>(node.depth);
    if (depth > stack.size()) return;  // malformed: skipped a level
    stack.resize(depth);
    cursor.resize(depth + 1);
    const double begin = cursor[depth];
    Span s;
    s.name = node.label;
    s.parent = depth == 0 ? parent : stack.back();
    s.start_us = begin;
    s.end_us = begin + node.total_us;
    s.op = op;
    cursor[depth] = s.end_us;
    spans->push_back(std::move(s));
    stack.push_back(static_cast<int>(spans->size() - 1));
    cursor.push_back(begin);
  }
}

std::string OperatorLayer(const std::string& label) {
  auto starts = [&label](const char* prefix) {
    return label.rfind(prefix, 0) == 0;
  };
  // clean⋈ is the plan's join operator over cleaned inputs: every join of
  // a rule-bearing table renders as CleanJoin, so it counts as join work.
  if (starts("CleanSelect")) return "clean.cleanop";
  if (starts("HashJoin") || starts("CleanJoin")) return "plan.join";
  if (starts("Aggregate")) return "plan.aggregate";
  if (starts("Project")) return "plan.output";
  return "plan.scan_filter";  // Scan, Filter
}

}  // namespace perfbench
