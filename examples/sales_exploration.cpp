// Exploratory analysis over a dirty SSB-style sales database.
//
// Generates a lineorder fact table (FD orderkey -> suppkey, 10% of the
// suppliers per order edited) and a supplier dimension (FD address ->
// suppkey), then drives a mixed SP + join workload through Daisy in
// adaptive mode. Shows the cost model switching from incremental to full
// cleaning mid-workload and compares against the offline baseline.
//
//   ./examples/sales_exploration

#include <cstdio>

#include "clean/daisy_engine.h"
#include "common/timer.h"
#include "datagen/ssb.h"
#include "datagen/workload.h"
#include "offline/offline_cleaner.h"

using namespace daisy;

int main() {
  // --- Data: 8k lineorder rows, 400 orders, 40 suppliers. ---------------
  SsbConfig config;
  config.num_rows = 8000;
  config.distinct_orderkeys = 400;
  config.distinct_suppkeys = 40;
  config.violating_fraction = 0.6;
  config.error_rate = 0.1;
  GeneratedData lineorder = GenerateLineorder(config);
  GeneratedData supplier = GenerateSupplier(400, 40, 0.5, 0.2, 9);

  Database db;
  (void)db.AddTable(std::move(lineorder.dirty));
  (void)db.AddTable(std::move(supplier.dirty));

  ConstraintSet rules;
  (void)rules.AddFromText("phi: FD orderkey -> suppkey", "lineorder",
                          db.GetTable("lineorder").ValueOrDie()->schema());
  (void)rules.AddFromText("psi: FD address -> suppkey", "supplier",
                          db.GetTable("supplier").ValueOrDie()->schema());

  DaisyOptions options;
  options.mode = DaisyOptions::Mode::kAdaptive;
  DaisyEngine engine(&db, std::move(rules), options);
  if (auto st = engine.Prepare(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const FdRuleStats stats = engine.fd_index("phi")->stats();
  std::printf("lineorder: %zu rows, %zu violating rows in %zu dirty groups\n",
              stats.table_rows, stats.num_violating_rows,
              stats.num_violating_groups);

  // --- Workload: 20 SP range scans + 5 joins. ----------------------------
  auto sp_queries =
      MakeRandomSelectivityQueries(*db.GetTable("lineorder").ValueOrDie(),
                                   "orderkey", 20, 17,
                                   "orderkey, suppkey, extended_price")
          .ValueOrDie();

  Timer total;
  size_t query_no = 0;
  for (const std::string& sql : sp_queries) {
    Timer t;
    auto report = engine.Query(sql);
    if (!report.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("q%02zu  rows=%-5zu repaired=%-4zu %s%.1f ms\n", query_no++,
                report.value().output.result.num_rows(),
                report.value().errors_fixed,
                report.value().switched_to_full ? "[switched to full] " : "",
                t.ElapsedMillis());
  }

  for (int i = 0; i < 5; ++i) {
    const int lo = i * 80, hi = i * 80 + 79;
    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT lineorder.orderkey, supplier.name, "
                  "SUM(lineorder.revenue) AS rev "
                  "FROM lineorder, supplier "
                  "WHERE lineorder.suppkey = supplier.suppkey AND "
                  "lineorder.orderkey >= %d AND lineorder.orderkey <= %d "
                  "GROUP BY lineorder.orderkey, supplier.name",
                  lo, hi);
    Timer t;
    auto report = engine.Query(sql);
    if (!report.ok()) {
      std::fprintf(stderr, "join failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("join%02d groups=%-5zu repaired=%-4zu %.1f ms\n", i,
                report.value().output.result.num_rows(),
                report.value().errors_fixed, t.ElapsedMillis());
  }
  std::printf("Daisy total: %.1f ms\n", total.ElapsedMillis());

  // --- Offline comparison on a fresh copy. -------------------------------
  Database offline_db;
  GeneratedData lineorder2 = GenerateLineorder(config);
  GeneratedData supplier2 = GenerateSupplier(400, 40, 0.5, 0.2, 9);
  (void)offline_db.AddTable(std::move(lineorder2.dirty));
  (void)offline_db.AddTable(std::move(supplier2.dirty));
  ConstraintSet offline_rules;
  (void)offline_rules.AddFromText(
      "phi: FD orderkey -> suppkey", "lineorder",
      offline_db.GetTable("lineorder").ValueOrDie()->schema());
  (void)offline_rules.AddFromText(
      "psi: FD address -> suppkey", "supplier",
      offline_db.GetTable("supplier").ValueOrDie()->schema());
  Timer offline_timer;
  OfflineCleaner cleaner(&offline_db, &offline_rules);
  auto cstats = cleaner.CleanAll();
  if (!cstats.ok()) {
    std::fprintf(stderr, "%s\n", cstats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "Offline full cleaning: %.1f ms (%zu dataset passes) before any "
      "query could run\n",
      offline_timer.ElapsedMillis(), cstats.value().dataset_passes);
  return 0;
}
