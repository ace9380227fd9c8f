// Air-quality exploration (the Section 7.3 Kaggle scenario): per-county
// CO trends over years, over a measurements table whose
// (state_code, county_code) -> county_name FD is violated on infrequent
// county pairs. Offline cleaning iterates per dirty group and becomes
// impractical as groups grow; Daisy cleans only the counties the analyst
// actually visits.
//
//   ./examples/air_quality_analysis

#include <cstdio>

#include "clean/daisy_engine.h"
#include "common/timer.h"
#include "datagen/realworld.h"

using namespace daisy;

int main() {
  AirQualityConfig config;
  config.num_rows = 30000;
  config.violating_group_fraction = 0.3;
  GeneratedData data = GenerateAirQuality(config);

  Database db;
  (void)db.AddTable(std::move(data.dirty));
  ConstraintSet rules;
  (void)rules.AddFromText("phi: FD state_code, county_code -> county_name",
                          "airquality",
                          db.GetTable("airquality").ValueOrDie()->schema());

  DaisyEngine engine(&db, std::move(rules), DaisyOptions{});
  if (auto st = engine.Prepare(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const FdRuleStats stats = engine.fd_index("phi")->stats();
  std::printf(
      "airquality: %zu rows; %zu rows inside %zu violating county groups\n",
      stats.table_rows, stats.num_violating_rows,
      stats.num_violating_groups);

  // One query per analyzed location: average CO by year for a county.
  // The sampled counties span the popularity range, so some of them sit in
  // the corrupted (infrequent) tail where relaxation pulls in the
  // misspelled measurement rows.
  Timer total;
  size_t repaired_total = 0;
  for (int k = 0; k < 12; ++k) {
    const int county = k * 40;
    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT year, AVG(sample_measurement) AS avg_co, COUNT(*) "
                  "FROM airquality WHERE county_name = 'county_%d' "
                  "GROUP BY year",
                  county);
    Timer t;
    auto report = engine.Query(sql);
    if (!report.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    repaired_total += report.value().errors_fixed;
    std::printf("county_%-4d years=%-3zu repaired=%-3zu %.1f ms\n", county,
                report.value().output.result.num_rows(),
                report.value().errors_fixed, t.ElapsedMillis());
  }
  std::printf(
      "analysis over 12 counties: %.1f ms total, %zu tuples repaired "
      "on demand (the remaining %zu dirty rows were never touched)\n",
      total.ElapsedMillis(), repaired_total,
      stats.num_violating_rows - repaired_total);
  return 0;
}
