// Tests for the synthetic data and workload generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "datagen/realworld.h"
#include "datagen/ssb.h"
#include "datagen/workload.h"
#include "detect/fd_delta.h"
#include "detect_oracle.h"
#include "query/parser.h"

namespace daisy {
namespace {

using testutil::CountFdViolatingRows;

DenialConstraint FdFor(const Table& t, const std::string& text) {
  return ParseConstraint(text, t.name(), t.schema()).ValueOrDie();
}

// ------------------------------------------------------------------- SSB --

TEST(SsbTest, LineorderShapeAndCleanTruth) {
  SsbConfig config;
  config.num_rows = 2000;
  config.distinct_orderkeys = 100;
  config.distinct_suppkeys = 20;
  GeneratedData data = GenerateLineorder(config);
  EXPECT_EQ(data.dirty.num_rows(), 2000u);
  EXPECT_EQ(data.dirty.schema().num_columns(), 10u);
  // Truth satisfies the FD; dirty violates it.
  DenialConstraint fd = FdFor(data.dirty, "FD orderkey -> suppkey");
  EXPECT_EQ(CountFdViolatingRows(data.truth, fd), 0u);
  EXPECT_GT(CountFdViolatingRows(data.dirty, fd), 0u);
}

TEST(SsbTest, ViolatingFractionControlsDirtyGroups) {
  SsbConfig config;
  config.num_rows = 3000;
  config.distinct_orderkeys = 100;
  config.distinct_suppkeys = 20;
  config.violating_fraction = 0.4;
  GeneratedData data = GenerateLineorder(config);
  DenialConstraint fd = FdFor(data.dirty, "FD orderkey -> suppkey");
  const auto groups =
      FdDeltaDetector(&data.dirty, &fd).ViolatingGroups();
  // ~40% of the 100 orderkeys violate (sampling is exact by construction).
  EXPECT_EQ(groups.size(), 40u);
}

TEST(SsbTest, DeterministicPerSeed) {
  SsbConfig config;
  config.num_rows = 500;
  GeneratedData a = GenerateLineorder(config);
  GeneratedData b = GenerateLineorder(config);
  ASSERT_EQ(a.dirty.num_rows(), b.dirty.num_rows());
  for (RowId r = 0; r < a.dirty.num_rows(); ++r) {
    for (size_t c = 0; c < a.dirty.num_columns(); ++c) {
      ASSERT_EQ(a.dirty.cell(r, c).original(), b.dirty.cell(r, c).original());
    }
  }
}

TEST(SsbTest, CleanLineorderSatisfiesPriceDiscountDc) {
  SsbConfig config;
  config.num_rows = 300;
  config.violating_fraction = 0.0;
  GeneratedData data = GenerateLineorder(config);
  DenialConstraint dc = FdFor(
      data.dirty,
      "dc: !(t1.extended_price < t2.extended_price & t1.discount > t2.discount)");
  size_t violations = 0;
  for (RowId a = 0; a < data.dirty.num_rows(); ++a) {
    for (RowId b = 0; b < data.dirty.num_rows(); ++b) {
      if (a != b && testutil::ViolatedBy(dc, data.dirty, a, b)) ++violations;
    }
  }
  EXPECT_EQ(violations, 0u);
  // Injection creates violations.
  const size_t edited = InjectDcErrors(&data.dirty, 0.05, 0.3, 5);
  EXPECT_GT(edited, 0u);
  violations = 0;
  for (RowId a = 0; a < data.dirty.num_rows() && violations == 0; ++a) {
    for (RowId b = 0; b < data.dirty.num_rows(); ++b) {
      if (a != b && testutil::ViolatedBy(dc, data.dirty, a, b)) {
        ++violations;
        break;
      }
    }
  }
  EXPECT_GT(violations, 0u);
}

TEST(SsbTest, SupplierAndDenormalizedGenerators) {
  GeneratedData supp = GenerateSupplier(600, 50, 0.5, 0.3, 3);
  DenialConstraint fd = FdFor(supp.dirty, "FD address -> suppkey");
  EXPECT_EQ(CountFdViolatingRows(supp.truth, fd), 0u);
  EXPECT_GT(CountFdViolatingRows(supp.dirty, fd), 0u);

  SsbConfig config;
  config.num_rows = 1000;
  config.distinct_orderkeys = 50;
  config.distinct_suppkeys = 10;
  GeneratedData wide = GenerateDenormalizedLineorder(config, 0.5);
  DenialConstraint phi = FdFor(wide.dirty, "FD orderkey -> suppkey");
  DenialConstraint psi = FdFor(wide.dirty, "FD address -> suppkey");
  EXPECT_GT(CountFdViolatingRows(wide.dirty, phi), 0u);
  EXPECT_GT(CountFdViolatingRows(wide.dirty, psi), 0u);
}

TEST(SsbTest, DimensionTables) {
  Table part = GeneratePart(100, 1);
  Table date = GenerateDate(365, 1);
  Table cust = GenerateCustomer(50, 1);
  EXPECT_EQ(part.num_rows(), 100u);
  EXPECT_EQ(date.num_rows(), 365u);
  EXPECT_EQ(cust.num_rows(), 50u);
  // Keys are dense 0..n-1 (join-compatible with lineorder foreign keys).
  EXPECT_EQ(part.cell(99, 0).original(), Value(99));
  EXPECT_EQ(date.cell(0, 1).original(), Value(1992));
}

// ------------------------------------------------------------ real-world --

TEST(RealWorldTest, HospitalRulesHoldOnTruth) {
  HospitalConfig config;
  config.num_rows = 400;
  config.num_hospitals = 25;
  GeneratedData data = GenerateHospital(config);
  EXPECT_EQ(data.dirty.schema().num_columns(), 19u);
  for (const char* rule :
       {"FD zip -> city", "FD hospital_name -> zip", "FD phone -> zip"}) {
    DenialConstraint dc = FdFor(data.truth, rule);
    EXPECT_EQ(CountFdViolatingRows(data.truth, dc), 0u) << rule;
  }
  // Dirty version has detectable violations for at least one rule.
  size_t dirty_total = 0;
  for (const char* rule :
       {"FD zip -> city", "FD hospital_name -> zip", "FD phone -> zip"}) {
    dirty_total += CountFdViolatingRows(data.dirty, FdFor(data.dirty, rule));
  }
  EXPECT_GT(dirty_total, 0u);
}

TEST(RealWorldTest, NestleConflictingMaterials) {
  NestleConfig config;
  config.num_rows = 3000;
  config.num_materials = 100;
  config.violating_fraction = 0.9;
  GeneratedData data = GenerateNestle(config);
  EXPECT_EQ(data.dirty.schema().num_columns(), 19u);
  DenialConstraint fd = FdFor(data.dirty, "FD material -> category");
  EXPECT_EQ(CountFdViolatingRows(data.truth, fd), 0u);
  const auto groups =
      FdDeltaDetector(&data.dirty, &fd).ViolatingGroups();
  EXPECT_GT(groups.size(), 50u);  // most populated materials conflict
}

TEST(RealWorldTest, AirQualityViolatingGroupFraction) {
  AirQualityConfig config;
  config.num_rows = 5000;
  config.violating_group_fraction = 0.3;
  GeneratedData low = GenerateAirQuality(config);
  config.violating_group_fraction = 0.97;
  config.seed = 13;  // same data, more corruption
  GeneratedData high = GenerateAirQuality(config);
  DenialConstraint fd =
      FdFor(low.dirty, "FD state_code, county_code -> county_name");
  EXPECT_EQ(CountFdViolatingRows(low.truth, fd), 0u);
  const size_t low_groups =
      FdDeltaDetector(&low.dirty, &fd).ViolatingGroups().size();
  const size_t high_groups =
      FdDeltaDetector(&high.dirty, &fd).ViolatingGroups().size();
  EXPECT_GT(low_groups, 0u);
  EXPECT_GT(high_groups, low_groups * 2);
}

// -------------------------------------------------------------- workload --

TEST(WorkloadTest, NonOverlappingRangesCoverDomain) {
  SsbConfig config;
  config.num_rows = 1000;
  config.distinct_orderkeys = 200;
  GeneratedData data = GenerateLineorder(config);
  auto queries =
      MakeNonOverlappingRangeQueries(data.dirty, "orderkey", 10).ValueOrDie();
  ASSERT_EQ(queries.size(), 10u);
  // All parse; ranges partition the domain (every row matched exactly once
  // on original values).
  std::vector<size_t> matched(data.dirty.num_rows(), 0);
  for (const std::string& sql : queries) {
    auto stmt = ParseQuery(sql).ValueOrDie();
    ASSERT_NE(stmt.where, nullptr);
    // Extract lo/hi from "orderkey >= lo AND orderkey <= hi".
    const Expr& lo = *stmt.where->children[0];
    const Expr& hi = *stmt.where->children[1];
    for (RowId r = 0; r < data.dirty.num_rows(); ++r) {
      const Value& v = data.dirty.cell(r, 0).original();
      if (v >= lo.right_val && v <= hi.right_val) ++matched[r];
    }
  }
  for (size_t m : matched) EXPECT_EQ(m, 1u);
}

TEST(WorkloadTest, RandomSelectivityQueriesParse) {
  SsbConfig config;
  config.num_rows = 500;
  GeneratedData data = GenerateLineorder(config);
  auto queries =
      MakeRandomSelectivityQueries(data.dirty, "orderkey", 20, 7).ValueOrDie();
  EXPECT_GT(queries.size(), 5u);
  for (const std::string& sql : queries) {
    EXPECT_TRUE(ParseQuery(sql).ok()) << sql;
  }
}

TEST(WorkloadTest, PointQueriesCycleDistinctValues) {
  SsbConfig config;
  config.num_rows = 300;
  config.distinct_orderkeys = 10;
  GeneratedData data = GenerateLineorder(config);
  auto queries =
      MakePointQueries(data.dirty, "orderkey", 15).ValueOrDie();
  ASSERT_EQ(queries.size(), 15u);
  EXPECT_NE(queries[0], queries[1]);
  EXPECT_EQ(queries[0], queries[10]);  // cycles after 10 distinct values
}

TEST(WorkloadTest, ErrorsOnBadInput) {
  SsbConfig config;
  config.num_rows = 10;
  GeneratedData data = GenerateLineorder(config);
  EXPECT_FALSE(
      MakeNonOverlappingRangeQueries(data.dirty, "orderkey", 0).ok());
  EXPECT_FALSE(MakeNonOverlappingRangeQueries(data.dirty, "nope", 5).ok());
}

}  // namespace
}  // namespace daisy
