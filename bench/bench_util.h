// Shared helpers for the figure/table reproduction benches: workload
// runners for Daisy (incremental / adaptive), the offline baseline, and
// series printing. Each bench binary prints the same rows/series the paper
// plots; absolute numbers differ from the paper's Spark cluster, the shape
// is what is reproduced (see EXPERIMENTS.md).

#ifndef DAISY_BENCH_BENCH_UTIL_H_
#define DAISY_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "offline/offline_cleaner.h"

namespace daisy {
namespace bench {

/// Grows the heap and touches the pages once so that the first measured
/// phase does not pay the allocator/page-fault warm-up.
inline void WarmupHeap() {
  std::vector<char*> blocks;
  for (int i = 0; i < 100; ++i) {
    char* p = new char[2 << 20];
    for (int j = 0; j < (2 << 20); j += 4096) p[j] = 1;
    blocks.push_back(p);
  }
  for (char* p : blocks) delete[] p;
}

/// Aborts the bench on error (benches are generated-input only).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T UnwrapOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "[bench] %s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Copyable rule-set helper (ConstraintSet is copyable; this reads as
/// intent at call sites).
inline ConstraintSet CloneRules(const ConstraintSet& rules) { return rules; }

/// Per-query timing of a workload through a prepared DaisyEngine.
struct DaisyRun {
  std::vector<double> per_query_seconds;
  double total_seconds = 0;
  size_t total_repaired = 0;
  size_t switch_query = 0;  ///< 1-based query index of the cost-model
                            ///< switch; 0 = never switched
};

inline DaisyRun RunDaisyWorkload(DaisyEngine* engine,
                                 const std::vector<std::string>& queries) {
  DaisyRun run;
  run.per_query_seconds.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Timer t;
    QueryReport report =
        UnwrapOrDie(engine->Query(queries[i]), queries[i].c_str());
    const double sec = t.ElapsedSeconds();
    run.per_query_seconds.push_back(sec);
    run.total_seconds += sec;
    run.total_repaired += report.errors_fixed;
    if (report.switched_to_full && run.switch_query == 0) {
      run.switch_query = i + 1;
    }
  }
  return run;
}

/// Offline baseline: full cleaning first, then the (plain) queries.
struct OfflineRun {
  double clean_seconds = 0;
  std::vector<double> per_query_seconds;
  double query_seconds = 0;
  double total_seconds = 0;
};

inline OfflineRun RunOfflineWorkload(Database* db, const ConstraintSet& rules,
                                     const std::vector<std::string>& queries) {
  OfflineRun run;
  Timer clean_timer;
  OfflineCleaner cleaner(db, &rules);
  (void)UnwrapOrDie(cleaner.CleanAll(), "offline CleanAll");
  run.clean_seconds = clean_timer.ElapsedSeconds();
  QueryExecutor exec(db);
  for (const std::string& sql : queries) {
    Timer t;
    (void)UnwrapOrDie(exec.Execute(sql), sql.c_str());
    const double sec = t.ElapsedSeconds();
    run.per_query_seconds.push_back(sec);
    run.query_seconds += sec;
  }
  run.total_seconds = run.clean_seconds + run.query_seconds;
  return run;
}

// ------------------------------------------------- machine-readable output --

/// One measured result: a name, the wall time, and free-form numeric
/// counters / string config. Serialized to BENCH_<bench>.json so the perf
/// trajectory is trackable across PRs (compare files from two builds).
struct BenchResult {
  std::string name;
  double wall_ms = 0;
  std::vector<std::pair<std::string, double>> counters;
  std::vector<std::pair<std::string, std::string>> config;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Collects BenchResults and writes BENCH_<bench>.json into the working
/// directory on Finish() (or destruction). JSON shape:
///   {"bench": "...", "results": [{"name": ..., "wall_ms": ...,
///    "counters": {...}, "config": {...}}, ...]}
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}
  ~BenchJsonWriter() { Finish(); }

  void Add(BenchResult result) { results_.push_back(std::move(result)); }

  void Finish() {
    if (done_) return;
    done_ = true;
    const std::string path = "BENCH_" + bench_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"results\": [",
                 JsonEscape(bench_).c_str());
    for (size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\", \"wall_ms\": %.3f",
                   i == 0 ? "" : ",", JsonEscape(r.name).c_str(), r.wall_ms);
      std::fprintf(f, ", \"counters\": {");
      for (size_t k = 0; k < r.counters.size(); ++k) {
        // Integral counters print exactly (byte and pair counts pass
        // 10^6); the rest keep six significant digits.
        const double v = r.counters[k].second;
        const bool exact = v == std::floor(v) && std::fabs(v) < 0x1p53;
        std::fprintf(f, exact ? "%s\"%s\": %.0f" : "%s\"%s\": %.6g",
                     k == 0 ? "" : ", ",
                     JsonEscape(r.counters[k].first).c_str(), v);
      }
      std::fprintf(f, "}, \"config\": {");
      for (size_t k = 0; k < r.config.size(); ++k) {
        std::fprintf(f, "%s\"%s\": \"%s\"", k == 0 ? "" : ", ",
                     JsonEscape(r.config[k].first).c_str(),
                     JsonEscape(r.config[k].second).c_str());
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::fprintf(stderr, "[bench] wrote %s (%zu results)\n", path.c_str(),
                 results_.size());
  }

 private:
  std::string bench_;
  std::vector<BenchResult> results_;
  bool done_ = false;
};

/// Diffs MetricsRegistry::Global() counters around a bench leg. The
/// registry is process-global and monotonic, so a snapshot taken before
/// the leg subtracted from one taken after isolates exactly the leg's own
/// work — no per-leg engine accessor plumbing required. Counter names
/// appended to a BenchResult must not end in "_ms": bench_diff.py treats
/// those as time-like and gates them against the committed baseline, while
/// registry counts are exact and belong in the informational set.
class RegistryCounterDelta {
 public:
  RegistryCounterDelta() : before_(MetricsRegistry::Global().TakeSnapshot()) {}

  /// Restarts the window (e.g. between legs that reuse one instance).
  void Reset() { before_ = MetricsRegistry::Global().TakeSnapshot(); }

  /// Delta of one registry counter since construction/Reset(). A counter
  /// not yet registered reads as zero on either side, so instrumenting a
  /// path lazily never breaks the arithmetic.
  uint64_t Delta(const std::string& metric) const {
    const MetricsRegistry::Snapshot now =
        MetricsRegistry::Global().TakeSnapshot();
    return CounterAt(now, metric) - CounterAt(before_, metric);
  }

  /// Appends `out_name` = Delta(metric) to `result`'s counters.
  void AddTo(BenchResult* result, const std::string& out_name,
             const std::string& metric) const {
    result->counters.emplace_back(out_name,
                                  static_cast<double>(Delta(metric)));
  }

 private:
  static uint64_t CounterAt(const MetricsRegistry::Snapshot& snap,
                            const std::string& key) {
    const auto it = snap.counters.find(key);
    return it == snap.counters.end() ? 0 : it->second;
  }

  MetricsRegistry::Snapshot before_;
};

/// Prints a cumulative-time series (one line per query) in a
/// gnuplot-friendly layout: "<query> <series1> <series2> ...".
inline void PrintCumulative(const std::vector<std::string>& names,
                            const std::vector<std::vector<double>>& series) {
  std::printf("# query");
  for (const std::string& name : names) std::printf(" %s", name.c_str());
  std::printf("\n");
  size_t len = 0;
  for (const auto& s : series) len = std::max(len, s.size());
  std::vector<double> cumulative(series.size(), 0.0);
  for (size_t q = 0; q < len; ++q) {
    std::printf("%zu", q + 1);
    for (size_t s = 0; s < series.size(); ++s) {
      if (q < series[s].size()) cumulative[s] += series[s][q];
      std::printf(" %.4f", cumulative[s]);
    }
    std::printf("\n");
  }
}

}  // namespace bench
}  // namespace daisy

#endif  // DAISY_BENCH_BENCH_UTIL_H_
