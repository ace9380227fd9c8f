// Figure 10: general denial constraints with inequality conditions.
//
// Paper setup: DC ¬(t1.extended_price < t2.extended_price ∧ t1.discount >
// t2.discount) over lineorder; discount edits create 0.2% / 2% / 20%
// violation levels; 60 non-overlapping range queries. Series: Daisy vs
// offline total time, plus Daisy's repair coverage relative to offline
// (the paper's 99% / 80% / 100% accuracy) and whether the Algorithm-2
// accuracy estimate triggered the full-cleaning fallback.
//
// Expected shape (paper): Daisy ~1.3x faster at low violation rates via
// partition pruning; at 20% the estimate predicts low accuracy, Daisy
// cleans the whole matrix and matches offline's time with 100% coverage.
//
// Writes BENCH_fig10_dc.json: per violation level, Daisy's wall time and
// the deterministic work counters CI gates at 0 (pairs checked, errors
// fixed, probabilistic cells of both series, the fallback flag).

#include "bench/bench_util.h"
#include "datagen/ssb.h"
#include "datagen/workload.h"

using namespace daisy;
using namespace daisy::bench;

int main() {
  WarmupHeap();
  std::printf("# Figure 10: inequality-DC cleaning cost and coverage\n");
  std::printf("# %-8s %12s %12s %10s %10s %12s\n", "vio_pct", "offline_s",
              "daisy_s", "coverage", "est_acc", "fallback");
  BenchJsonWriter json("fig10_dc");
  const char* kRule =
      "dc: !(t1.extended_price < t2.extended_price & t1.discount > "
      "t2.discount)";
  for (double fraction : {0.002, 0.02, 0.2}) {
    SsbConfig config;
    config.num_rows = 2000;
    config.distinct_orderkeys = 200;
    config.violating_fraction = 0.0;  // no FD errors; DC errors only
    GeneratedData data = GenerateLineorder(config);
    (void)InjectDcErrors(&data.dirty, fraction, 0.5, 77);

    // Offline.
    Database offline_db;
    {
      Table copy = data.dirty;
      CheckOk(offline_db.AddTable(std::move(copy)), "add");
    }
    ConstraintSet rules;
    CheckOk(rules.AddFromText(kRule, "lineorder", data.dirty.schema()),
            "parse rule");
    auto queries = UnwrapOrDie(
        MakeNonOverlappingRangeQueries(
            *offline_db.GetTable("lineorder").ValueOrDie(), "extended_price",
            60, "extended_price, discount"),
        "workload");
    OfflineRun offline = RunOfflineWorkload(&offline_db, rules, queries);
    const size_t offline_cells =
        offline_db.GetTable("lineorder").ValueOrDie()
            ->CountProbabilisticCells();

    // Daisy.
    Database daisy_db;
    {
      Table copy = data.dirty;
      CheckOk(daisy_db.AddTable(std::move(copy)), "add");
    }
    DaisyOptions options;
    options.accuracy_threshold = 0.25;
    options.theta_partitions = 32;
    DaisyEngine engine(&daisy_db, CloneRules(rules), options);
    CheckOk(engine.Prepare(), "prepare");
    double min_acc = 1.0;
    bool fallback = false;
    size_t detect_ops = 0;
    size_t errors_fixed = 0;
    Timer timer;
    for (const std::string& sql : queries) {
      QueryReport report = UnwrapOrDie(engine.Query(sql), sql.c_str());
      min_acc = std::min(min_acc, report.min_estimated_accuracy);
      fallback |= report.used_dc_full_clean;
      detect_ops += report.detect_ops;
      errors_fixed += report.errors_fixed;
    }
    const double daisy_seconds = timer.ElapsedSeconds();
    const size_t daisy_cells =
        daisy_db.GetTable("lineorder").ValueOrDie()->CountProbabilisticCells();
    const double coverage =
        offline_cells == 0
            ? 1.0
            : static_cast<double>(daisy_cells) /
                  static_cast<double>(offline_cells);

    std::printf("  %-8.1f %12.3f %12.3f %9.0f%% %10.2f %12s\n",
                fraction * 100, offline.total_seconds, daisy_seconds,
                coverage * 100, min_acc, fallback ? "full-clean" : "partial");

    char name[32];
    std::snprintf(name, sizeof(name), "vio_%.1f_pct", fraction * 100);
    BenchResult result;
    result.name = name;
    result.wall_ms = daisy_seconds * 1e3;
    result.counters = {
        {"detect_ops", static_cast<double>(detect_ops)},
        {"errors_fixed", static_cast<double>(errors_fixed)},
        {"daisy_cells", static_cast<double>(daisy_cells)},
        {"offline_cells", static_cast<double>(offline_cells)},
        {"fallback", fallback ? 1.0 : 0.0}};
    result.config = {{"rows", std::to_string(config.num_rows)},
                     {"queries", std::to_string(queries.size())},
                     {"partitions", "32"}};
    json.Add(std::move(result));
  }
  return 0;
}
