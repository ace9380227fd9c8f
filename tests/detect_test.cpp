// Tests for violation detection: FD group-by detection and the partitioned
// incremental theta-join, including property tests against brute force.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "cell_test_util.h"
#include "common/rng.h"
#include "detect/fd_delta.h"
#include "detect/group_by.h"
#include "detect/theta_join.h"
#include "detect_oracle.h"

namespace daisy {
namespace {

using testutil::AsSet;
using testutil::BruteForce;
using testutil::CountFdViolatingRows;
using testutil::DetectFdViolationsRowPath;
using testutil::GroupMap;
using testutil::GroupRowsByRowPath;

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Table CitiesTable() {
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

Schema SalarySchema() {
  return Schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
}

DenialConstraint SalaryDc(const Schema& schema) {
  return ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                         "emp", schema)
      .ValueOrDie();
}

// -------------------------------------------------------------- group_by --

TEST(GroupByTest, GroupsByKey) {
  Table t = CitiesTable();
  GroupMap groups = GroupRowsByRowPath(t, {0}, t.AllRowIds());
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[GroupKey{Value(9001)}].size(), 3u);
  EXPECT_EQ(groups[GroupKey{Value(10001)}].size(), 2u);
}

TEST(GroupByTest, MultiColumnKey) {
  Table t = CitiesTable();
  GroupMap groups = GroupRowsByRowPath(t, {0, 1}, t.AllRowIds());
  EXPECT_EQ(groups.size(), 4u);  // (9001,LA)x2 collapses
  EXPECT_EQ(MakeGroupKey(t, 2, {0, 1}),
            (GroupKey{Value(9001), Value("Los Angeles")}));
}

TEST(GroupByTest, SubsetOfRows) {
  Table t = CitiesTable();
  GroupMap groups = GroupRowsByRowPath(t, {0}, {0, 3});
  EXPECT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[GroupKey{Value(9001)}].size(), 1u);
}

// ----------------------------------------------------------- FD detector --

TEST(FdDetectorTest, FindsViolatingGroups) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  auto groups = FdDeltaDetector(&t, &dc).ViolatingGroups();
  ASSERT_EQ(groups.size(), 2u);  // both zips violate
  // Deterministic order: 9001 first.
  EXPECT_EQ(groups[0].lhs_key, GroupKey{Value(9001)});
  EXPECT_EQ(groups[0].total(), 3u);
  ASSERT_EQ(groups[0].rhs_histogram.size(), 2u);
  // Histogram ordered by frequency: LA(2) then SF(1).
  EXPECT_EQ(groups[0].rhs_histogram[0].first, Value("Los Angeles"));
  EXPECT_EQ(groups[0].rhs_histogram[0].second, 2u);
  EXPECT_EQ(groups[0].rhs_histogram[1].first, Value("San Francisco"));
  EXPECT_TRUE(groups[0].violating());
}

TEST(FdDetectorTest, CleanGroupsFiltered) {
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("b")}).ok());
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  EXPECT_TRUE(index.ViolatingGroups().empty());
  EXPECT_EQ(index.ViolatingGroups(true).size(), 2u);
  EXPECT_EQ(CountFdViolatingRows(t, dc), 0u);
}

TEST(FdDetectorTest, GroupAndRhsBucketLookups) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  // Row 1's lhs group is the 9001 cluster, whatever member asks.
  const FdDeltaDetector::Group* group = index.GroupOf(1);
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group, index.GroupOf(2));
  EXPECT_EQ(group->rows, (std::vector<RowId>{0, 1, 2}));
  EXPECT_TRUE(group->violating());
  EXPECT_EQ(group->hist.at(Value("Los Angeles")), 2u);
  // P(lhs | rhs) reads the live rows sharing the rhs, ascending.
  EXPECT_EQ(index.RhsBucket(Value("San Francisco")),
            (std::vector<RowId>{1, 3}));
  EXPECT_TRUE(index.RhsBucket(Value("Boston")).empty());
}

TEST(FdDetectorTest, IndexMatchesRowPath) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const auto indexed = FdDeltaDetector(&t, &dc).ViolatingGroups(true);
  const auto row_path = DetectFdViolationsRowPath(t, dc, t.AllRowIds(), true);
  ASSERT_EQ(indexed.size(), row_path.size());
  for (size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i].lhs_key, row_path[i].lhs_key);
    EXPECT_EQ(indexed[i].rows, row_path[i].rows);
    EXPECT_EQ(indexed[i].rhs_histogram, row_path[i].rhs_histogram);
  }
}

// ----------------------------------------------------- range feasibility --

TEST(RangeFeasibleTest, NeqSingleValueRanges) {
  using detail::RangeFeasible;
  // Both sides a single value: feasible iff the values differ.
  EXPECT_FALSE(RangeFeasible(3, 3, CompareOp::kNeq, 3, 3));
  EXPECT_TRUE(RangeFeasible(3, 3, CompareOp::kNeq, 4, 4));
  EXPECT_TRUE(RangeFeasible(4, 4, CompareOp::kNeq, 3, 3));
  // One side a single value inside the other's wider range: the wider range
  // offers a distinct value.
  EXPECT_TRUE(RangeFeasible(3, 3, CompareOp::kNeq, 1, 5));
  EXPECT_TRUE(RangeFeasible(1, 5, CompareOp::kNeq, 3, 3));
  // Two wider ranges, even identical ones, are always feasible.
  EXPECT_TRUE(RangeFeasible(1, 5, CompareOp::kNeq, 1, 5));
}

TEST(RangeFeasibleTest, OrderAndEqualityOps) {
  using detail::RangeFeasible;
  EXPECT_TRUE(RangeFeasible(1, 2, CompareOp::kLt, 2, 3));
  EXPECT_FALSE(RangeFeasible(3, 4, CompareOp::kLt, 1, 3));
  EXPECT_TRUE(RangeFeasible(3, 4, CompareOp::kLeq, 1, 3));
  EXPECT_TRUE(RangeFeasible(2, 3, CompareOp::kEq, 3, 5));
  EXPECT_FALSE(RangeFeasible(2, 3, CompareOp::kEq, 4, 5));
}

// -------------------------------------------------- theta-join detection --

// Reference: all violating oriented pairs by brute force.
Table RandomSalaryTable(size_t n, uint64_t seed, double error_fraction) {
  Rng rng(seed);
  Table t("emp", SalarySchema());
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    // Mostly monotone tax; a fraction perturbed to create violations.
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
  }
  return t;
}

// RandomSalaryTable's values plus the ones the compiled comparisons must
// stay exact on: NaN, ±inf, −0.0 and null salaries, int salaries around
// 2^53 beside double 2^53, and a `city` string column for string atoms.
Table ExoticSalaryTable(size_t n, uint64_t seed, double error_fraction) {
  constexpr int64_t kTwo53 = int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static const char* kCities[] = {"", "a", "b", "f", "g", "m", "zz"};
  Rng rng(seed);
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble},
                         {"city", ValueType::kString}}));
  for (size_t i = 0; i < n; ++i) {
    const double base = rng.UniformDouble(1000, 100000);
    double tax = base / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    Value salary(base);
    const double dice = rng.UniformDouble(0, 1);
    if (dice < 0.15) {
      salary = Value(std::numeric_limits<double>::quiet_NaN());
    } else if (dice < 0.25) {
      salary = Value(kTwo53 + rng.UniformInt(-1, 2));
    } else if (dice < 0.3) {
      static const double kEdge[] = {0x1p53, kInf, -kInf, -0.0, 0.0};
      salary = Value(kEdge[rng.UniformInt(0, 4)]);
    } else if (dice < 0.35) {
      salary = Value::Null();
    }
    Value city(kCities[rng.UniformInt(0, 6)]);
    if (rng.Bernoulli(0.1)) city = Value::Null();
    EXPECT_TRUE(t.AppendRow({salary, Value(tax), city}).ok());
  }
  return t;
}

TEST(ThetaJoinTest, DetectAllMatchesBruteForce) {
  for (uint64_t seed : {11, 47}) {
    Table t = RandomSalaryTable(60, seed, 0.2);
    DenialConstraint dc = SalaryDc(t.schema());
    ThetaJoinDetector detector(&t, &dc, 8);
    const std::vector<ViolationPair> found = detector.DetectAll();
    EXPECT_EQ(AsSet(found).size(), found.size()) << "duplicate pairs";
    EXPECT_EQ(AsSet(found), BruteForce(t, dc)) << "seed " << seed;
    EXPECT_TRUE(detector.FullyChecked());
  }
}

TEST(ThetaJoinTest, PruningDoesNotChangeResults) {
  Table t = RandomSalaryTable(50, 17, 0.15);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector pruned(&t, &dc, 8);
  ThetaJoinDetector unpruned(&t, &dc, 8);
  unpruned.set_pruning_enabled(false);
  EXPECT_EQ(AsSet(pruned.DetectAll()), AsSet(unpruned.DetectAll()));
  EXPECT_LT(pruned.pairs_checked(), unpruned.pairs_checked());
}

TEST(ThetaJoinTest, IncrementalCoversResultPairs) {
  Table t = RandomSalaryTable(80, 23, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> result;
  for (RowId r = 0; r < 20; ++r) result.push_back(r);
  auto found = AsSet(detector.DetectIncremental(result));
  // Every brute-force violation touching the result must be found.
  for (const auto& [a, b] : BruteForce(t, dc)) {
    const bool touches =
        (a < 20) || (b < 20);
    if (touches) {
      EXPECT_TRUE(found.count({a, b}) > 0)
          << "missing pair (" << a << "," << b << ")";
    }
  }
}

TEST(ThetaJoinTest, IncrementalSkipsCheckedPairs) {
  Table t = RandomSalaryTable(40, 29, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  std::vector<RowId> result;
  for (RowId r = 0; r < 10; ++r) result.push_back(r);
  (void)detector.DetectIncremental(result);
  const size_t first_pass = detector.pairs_checked();
  // Re-running the same result set: all pairs already checked.
  auto again = detector.DetectIncremental(result);
  EXPECT_TRUE(again.empty());
  EXPECT_LT(detector.pairs_checked(), first_pass);
}

TEST(ThetaJoinTest, SequentialIncrementalConvergesToFullCoverage) {
  Table t = RandomSalaryTable(60, 31, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::set<std::pair<RowId, RowId>> all_found;
  // Non-overlapping batches covering the whole table.
  for (RowId start = 0; start < 60; start += 15) {
    std::vector<RowId> batch;
    for (RowId r = start; r < start + 15; ++r) batch.push_back(r);
    for (const ViolationPair& p : detector.DetectIncremental(batch)) {
      all_found.insert({p.t1, p.t2});
    }
  }
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(all_found, BruteForce(t, dc));
  EXPECT_DOUBLE_EQ(detector.Support(), 1.0);
}

TEST(ThetaJoinTest, SupportGrowsMonotonically) {
  Table t = RandomSalaryTable(64, 37, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  double prev = detector.Support();
  for (RowId start = 0; start < 64; start += 16) {
    std::vector<RowId> batch;
    for (RowId r = start; r < start + 16; ++r) batch.push_back(r);
    (void)detector.DetectIncremental(batch);
    const double cur = detector.Support();
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(ThetaJoinTest, ColumnarHandlesStringAndConstantAtoms) {
  Schema schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
  Table t("cities", schema);
  ASSERT_TRUE(t.AppendRow({Value(1), Value("LA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("LA")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3), Value("LA")}).ok());
  for (const char* text :
       {"dc: !(t1.zip == t2.zip & t1.city != t2.city)",
        "dc: !(t1.city == 'LA' & t2.city == 'SF' & t1.zip <= t2.zip)",
        "dc: !(t1.zip > t2.zip & t1.city == t2.city)",
        "dc: !(t1.zip >= 2 & t1.city != t2.city)"}) {
    auto dc = ParseConstraint(text, "cities", schema).ValueOrDie();
    ThetaJoinDetector detector(&t, &dc, 3);
    EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc)) << text;
  }
}

TEST(ThetaJoinTest, IncrementalChecksEachPairExactlyOnce) {
  const size_t n = 40;
  Table t = RandomSalaryTable(n, 59, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  detector.set_pruning_enabled(false);
  std::vector<RowId> result = {3, 7, 11, 20, 33};
  testutil::PairSet found = AsSet(detector.DetectIncremental(result));
  // result x rest, plus each unordered pair inside the result once.
  const size_t k = result.size();
  EXPECT_EQ(detector.pairs_checked(), k * (n - k) + k * (k - 1) / 2);
  // The full clean integrates only the rest: each unordered pair of the
  // n - k unchecked rows once, none with a result row again.
  for (const auto& pair : AsSet(detector.DetectAll())) found.insert(pair);
  EXPECT_EQ(detector.pairs_checked(), (n - k) * (n - k - 1) / 2);
  EXPECT_EQ(found, BruteForce(t, dc));
}

TEST(ThetaJoinTest, RepairInvalidatesDetectorState) {
  Schema schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
  Table t("emp", schema);
  // Monotone taxes except row 2, which overtaxes a low salary.
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.10)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.20)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.90)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(4000.0), Value(0.40)}).ok());
  DenialConstraint dc = SalaryDc(schema);
  ThetaJoinDetector detector(&t, &dc, 2);
  ASSERT_FALSE(BruteForce(t, dc).empty());  // the seed data is dirty
  EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc));

  // A candidate-only repair keeps the coverage: nothing is re-checked.
  testutil::AddCandidate(&t.mutable_cell(2, 1),
                         {Value(0.30), 1.0, 0, CandidateKind::kPoint});
  EXPECT_TRUE(detector.DetectAll().empty());
  EXPECT_EQ(detector.pairs_checked(), 0u);

  // Repairing the original value invalidates the column projection and the
  // stale coverage: detection sees the new value and the table is clean.
  t.mutable_cell(2, 1) = Cell(Value(0.30));
  EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc));
  EXPECT_TRUE(BruteForce(t, dc).empty());

  // Estimates are refreshed too: a clean monotone table estimates no
  // errors, while the dirty version estimated some.
  double total = 0;
  for (double v : detector.EstimateErrors()) total += v;
  EXPECT_EQ(total, 0.0);
}

TEST(ThetaJoinTest, CandidateRepairMidWorkloadKeepsDetectionCorrect) {
  // Regression: a candidate-only repair bumps the column version, so the
  // cache rebuilds its (identical) arrays before the next detection. The
  // detector must re-point its compiled atoms at the new storage while
  // keeping its incremental coverage.
  Table t = RandomSalaryTable(60, 61, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::set<std::pair<RowId, RowId>> found;
  std::vector<RowId> batch1, batch2;
  for (RowId r = 0; r < 30; ++r) batch1.push_back(r);
  for (RowId r = 30; r < 60; ++r) batch2.push_back(r);
  for (const ViolationPair& p : detector.DetectIncremental(batch1)) {
    found.insert({p.t1, p.t2});
  }
  const size_t after_first = detector.pairs_checked();
  EXPECT_GT(after_first, 0u);
  // Candidate-only repair between the two queries.
  testutil::AddCandidate(&t.mutable_cell(0, 1),
                         {Value(0.5), 1.0, 0, CandidateKind::kPoint});
  for (const ViolationPair& p : detector.DetectIncremental(batch2)) {
    found.insert({p.t1, p.t2});
  }
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(found, BruteForce(t, dc));
}

TEST(ThetaJoinTest, TableReassignmentRefreshesDetector) {
  // Regression: assigning new contents to the table resets its column
  // cache; the detector must treat the new cache instance as a wholesale
  // data change (generation counters restart and may collide).
  Table t = RandomSalaryTable(40, 71, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  (void)detector.DetectAll();
  t = RandomSalaryTable(40, 72, 0.3);
  EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc));
}

TEST(ThetaJoinTest, EstimateErrorsSeesRepairedValues) {
  Table dirty = RandomSalaryTable(100, 41, 0.4);
  DenialConstraint dc = SalaryDc(dirty.schema());
  ThetaJoinDetector detector(&dirty, &dc, 8);
  double before = 0;
  for (double v : detector.EstimateErrors()) before += v;
  EXPECT_GT(before, 0.0);
  // Repair every tax to the clean monotone value.
  for (RowId r = 0; r < dirty.num_rows(); ++r) {
    const double salary = dirty.cell(r, 0).original().AsDouble();
    dirty.mutable_cell(r, 1) = Cell(Value(salary / 200000.0));
  }
  double after = 0;
  for (double v : detector.EstimateErrors()) after += v;
  EXPECT_EQ(after, 0.0);
}

TEST(ThetaJoinTest, EstimateErrorsFlagsDirtyRegions) {
  // Clean monotone data: estimates ~0 everywhere.
  Table clean = RandomSalaryTable(100, 41, 0.0);
  DenialConstraint dc = SalaryDc(clean.schema());
  ThetaJoinDetector cd(&clean, &dc, 8);
  double clean_total = 0;
  for (double v : cd.EstimateErrors()) clean_total += v;

  Table dirty = RandomSalaryTable(100, 41, 0.4);
  ThetaJoinDetector dd(&dirty, &dc, 8);
  double dirty_total = 0;
  for (double v : dd.EstimateErrors()) dirty_total += v;
  EXPECT_GT(dirty_total, clean_total);
}

// Algorithm 2 over a NaN-bearing column: the per-partition sorts behind
// the range counts need a strict weak order, which `<` is not once a NaN
// is in (ColumnCache::NumLess orders it last).
TEST(ThetaJoinTest, EstimatesOnNanColumnsStayInBounds) {
  Table t = ExoticSalaryTable(400, 61, 0.3);
  for (const char* text : {"dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                           "dc: !(t1.tax < t2.tax & t1.salary > t2.salary)"}) {
    auto dc = ParseConstraint(text, "emp", t.schema()).ValueOrDie();
    ThetaJoinDetector detector(&t, &dc, 4);
    for (double v : detector.EstimateErrors()) {
      EXPECT_TRUE(std::isfinite(v)) << text;
      EXPECT_GE(v, 0.0) << text;
    }
    std::vector<RowId> result;
    for (RowId r = 0; r < 100; ++r) result.push_back(r);
    const double acc = detector.EstimateAccuracy(result);
    EXPECT_GE(acc, 0.0) << text;
    EXPECT_LE(acc, 1.0) << text;
  }
}

TEST(ThetaJoinTest, AccuracyEstimateBounds) {
  Table t = RandomSalaryTable(100, 43, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> result;
  for (RowId r = 0; r < 25; ++r) result.push_back(r);
  const double acc = detector.EstimateAccuracy(result);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
  EXPECT_DOUBLE_EQ(detector.EstimateAccuracy({}), 1.0);
}

// Property sweep: DetectAll == brute force across sizes, seeds, partitions.
// `exotic` draws ExoticSalaryTable and adds DCs with string-constant
// order atoms and a string order atom, each checked pruned and unpruned.
struct ThetaParam {
  size_t n;
  uint64_t seed;
  size_t partitions;
  double errors;
  bool exotic = false;
};

class ThetaJoinPropertyTest : public ::testing::TestWithParam<ThetaParam> {};

TEST_P(ThetaJoinPropertyTest, MatchesBruteForce) {
  const ThetaParam p = GetParam();
  if (!p.exotic) {
    Table t = RandomSalaryTable(p.n, p.seed, p.errors);
    DenialConstraint dc = SalaryDc(t.schema());
    ThetaJoinDetector detector(&t, &dc, p.partitions);
    EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc));
    return;
  }
  Table t = ExoticSalaryTable(p.n, p.seed, p.errors);
  for (const char* text :
       {"dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
        "dc: !(t1.city < 'f' & t1.tax > t2.tax)",
        "dc: !(t1.city >= 'm' & t1.salary < t2.salary)",
        "dc: !(t1.salary <= t2.salary & t1.city > t2.city)",
        "dc: !(t1.salary == t2.salary & t1.tax < t2.tax)"}) {
    auto dc = ParseConstraint(text, "emp", t.schema()).ValueOrDie();
    for (bool pruning : {true, false}) {
      ThetaJoinDetector detector(&t, &dc, p.partitions);
      detector.set_pruning_enabled(pruning);
      EXPECT_EQ(AsSet(detector.DetectAll()), BruteForce(t, dc))
          << text << (pruning ? " pruned" : " unpruned");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThetaJoinPropertyTest,
    ::testing::Values(ThetaParam{1, 1, 4, 0.5}, ThetaParam{2, 2, 4, 0.5},
                      ThetaParam{10, 3, 1, 0.3}, ThetaParam{25, 4, 5, 0.2},
                      ThetaParam{50, 5, 7, 0.1}, ThetaParam{50, 6, 64, 0.4},
                      ThetaParam{33, 7, 8, 0.0}, ThetaParam{77, 8, 16, 0.25},
                      ThetaParam{60, 9, 16, 0.2, true},
                      ThetaParam{60, 10, 8, 0.3, true},
                      ThetaParam{40, 11, 4, 0.5, true},
                      ThetaParam{90, 12, 32, 0.1, true},
                      ThetaParam{25, 13, 5, 0.0, true},
                      ThetaParam{120, 14, 16, 0.25, true}));

// Property sweep: incremental detection over random batches finds every
// violation touching the batches.
class ThetaIncrementalPropertyTest
    : public ::testing::TestWithParam<ThetaParam> {};

TEST_P(ThetaIncrementalPropertyTest, BatchesCoverTouchingViolations) {
  const ThetaParam p = GetParam();
  Table t = RandomSalaryTable(p.n, p.seed, p.errors);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, p.partitions);
  Rng rng(p.seed + 99);
  std::set<std::pair<RowId, RowId>> found;
  std::set<RowId> touched;
  for (int batch = 0; batch < 3; ++batch) {
    std::vector<size_t> rows = rng.SampleWithoutReplacement(
        p.n, std::max<size_t>(1, p.n / 4));
    std::sort(rows.begin(), rows.end());
    for (RowId r : rows) touched.insert(r);
    for (const ViolationPair& v : detector.DetectIncremental(rows)) {
      found.insert({v.t1, v.t2});
    }
  }
  for (const auto& pair : BruteForce(t, dc)) {
    if (touched.count(pair.first) || touched.count(pair.second)) {
      EXPECT_TRUE(found.count(pair) > 0)
          << "missing (" << pair.first << "," << pair.second << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThetaIncrementalPropertyTest,
    ::testing::Values(ThetaParam{20, 11, 4, 0.3}, ThetaParam{40, 12, 8, 0.2},
                      ThetaParam{60, 13, 6, 0.15},
                      ThetaParam{30, 14, 16, 0.5}));

}  // namespace
}  // namespace daisy
