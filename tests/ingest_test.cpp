// Unit tests for the incremental ingest layer: the transactional Table
// batch-update API, O(delta) ColumnCache extension (the append/content
// generation split), delta-aware theta-join detection, the delta-maintained
// FD index (groups, counters and the relaxation buckets).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "cell_test_util.h"
#include "clean/daisy_engine.h"
#include "common/rng.h"
#include "constraints/constraint_set.h"
#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "detect_oracle.h"
#include "repair/provenance.h"
#include "storage/column_cache.h"
#include "storage/database.h"
#include "storage/table.h"

namespace daisy {
namespace {

using testutil::AsSet;
using testutil::BruteForce;
using testutil::PairSet;

Schema SalarySchema() {
  return Schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
}

DenialConstraint SalaryDc(const Schema& schema) {
  return ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                         "emp", schema)
      .ValueOrDie();
}

Table RandomSalaryTable(size_t n, uint64_t seed, double error_fraction) {
  Rng rng(seed);
  Table t("emp", SalarySchema());
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    EXPECT_TRUE(t.AppendRow({Value(salary), Value(tax)}).ok());
  }
  return t;
}

std::vector<std::vector<Value>> RandomSalaryBatch(size_t n, uint64_t seed,
                                                  double error_fraction) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  for (size_t i = 0; i < n; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.5);
    rows.push_back({Value(salary), Value(tax)});
  }
  return rows;
}

// ------------------------------------------------------ Table batch API --

TEST(TableIngestTest, AppendRowsReturnsContiguousDelta) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(0.1)}).ok());
  const uint64_t gen0 = t.delta_generation();
  auto delta = t.AppendRows({{Value(2.0), Value(0.2)}, {Value(3.0), Value(0.3)}})
                   .ValueOrDie();
  EXPECT_EQ(delta.appended, (std::vector<RowId>{1, 2}));
  EXPECT_TRUE(delta.deleted.empty());
  EXPECT_EQ(delta.generation, gen0 + 1);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_live_rows(), 3u);
}

TEST(TableIngestTest, AppendRowsIsAllOrNothing) {
  Table t("emp", SalarySchema());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(0.1)}).ok());
  const uint64_t gen0 = t.delta_generation();
  // Second row has a type error: nothing of the batch may land.
  auto result = t.AppendRows({{Value(2.0), Value(0.2)}, {Value("x"), Value(0.3)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.delta_generation(), gen0);
  // Arity mismatch too.
  EXPECT_FALSE(t.AppendRows({{Value(2.0)}}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableIngestTest, DeleteRowsTombstonesAndValidates) {
  Table t = RandomSalaryTable(6, 3, 0.0);
  auto delta = t.DeleteRows({4, 1}).ValueOrDie();
  EXPECT_EQ(delta.deleted, (std::vector<RowId>{1, 4}));  // sorted
  EXPECT_EQ(t.num_rows(), 6u);      // ids stay stable
  EXPECT_EQ(t.num_live_rows(), 4u);
  EXPECT_FALSE(t.is_live(1));
  EXPECT_TRUE(t.is_live(2));
  EXPECT_EQ(t.AllRowIds(), (std::vector<RowId>{0, 2, 3, 5}));
  EXPECT_EQ(t.deleted_rows_log(), (std::vector<RowId>{1, 4}));

  EXPECT_FALSE(t.DeleteRows({1}).ok());    // already deleted
  EXPECT_FALSE(t.DeleteRows({99}).ok());   // out of range
  EXPECT_FALSE(t.DeleteRows({2, 2}).ok()); // duplicate in batch
  EXPECT_EQ(t.num_live_rows(), 4u);        // failed batches change nothing
}

TEST(TableIngestTest, DeletedRowsLeaveAggregates) {
  Table t = RandomSalaryTable(4, 5, 0.0);
  testutil::AddCandidate(&t.mutable_cell(1, 1),
                         {Value(0.5), 1.0, 0, CandidateKind::kPoint});
  EXPECT_EQ(t.CountProbabilisticCells(), 1u);
  ASSERT_TRUE(t.DeleteRows({1}).ok());
  EXPECT_EQ(t.CountProbabilisticCells(), 0u);
}

// -------------------------------------- ColumnCache generation split fix --

// Regression for the version-bookkeeping conflation: appending rows must
// extend the projections without advancing the content generation (so
// detectors keep their incremental coverage), while an in-place edit of an
// original value must advance it.
TEST(ColumnCacheDeltaTest, AppendKeepsContentGeneration) {
  Table t = RandomSalaryTable(20, 7, 0.2);
  ColumnCache& cache = t.columns();
  const uint64_t gen = cache.generation(0);
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(5, 8, 0.2)).ok());
  EXPECT_EQ(cache.generation(0), gen);
  EXPECT_EQ(cache.column(0).num.size(), 25u);
  // An original-value edit still invalidates.
  t.mutable_cell(0, 0) = Cell(Value(123.0));
  EXPECT_GT(cache.generation(0), gen);
}

TEST(ColumnCacheDeltaTest, CandidateRepairPlusAppendKeepsGeneration) {
  // Regression for the version-conflation bug the differential harness
  // caught: a candidate-only repair (content-version bump) interleaved
  // with an append forced a full rebuild whose arrays were *longer* than
  // the previous build, and the whole-array content comparison read that
  // as a data change — spuriously advancing the generation and resetting
  // detector coverage. The comparison now runs over the previously-built
  // prefix.
  Table t = RandomSalaryTable(20, 9, 0.2);
  ColumnCache& cache = t.columns();
  const uint64_t gen = cache.generation(1);
  testutil::AddCandidate(&t.mutable_cell(0, 1),
                         {Value(0.7), 1.0, 0, CandidateKind::kPoint});
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(5, 10, 0.2)).ok());
  EXPECT_EQ(cache.generation(1), gen);
  // The same interleaving with an original-value edit still invalidates.
  t.mutable_cell(0, 1) = Cell(Value(0.9));
  ASSERT_TRUE(t.AppendRows(RandomSalaryBatch(2, 11, 0.2)).ok());
  EXPECT_GT(cache.generation(1), gen);
}

TEST(ColumnCacheDeltaTest, ExtensionMatchesFullRebuild) {
  // Build incrementally (base + 3 extensions) and from scratch; every
  // projection must be bit-identical — including when the delta introduces
  // new distinct values that land in the middle of the rank order.
  Schema schema({{"x", ValueType::kInt}, {"s", ValueType::kString}});
  auto row = [](int64_t x, const char* s) {
    return std::vector<Value>{Value(x), s == nullptr ? Value::Null()
                                                     : Value(s)};
  };
  std::vector<std::vector<Value>> all = {
      row(5, "mm"), row(1, "zz"), row(5, "aa"), row(3, nullptr),
      row(2, "mm"), row(4, "bb"), row(1, "zz"), row(9, "ca"),
  };
  Table inc("t", schema);
  for (size_t i = 0; i < 3; ++i) ASSERT_TRUE(inc.AppendRow(all[i]).ok());
  (void)inc.columns().column(0);
  (void)inc.columns().column(1);
  ASSERT_TRUE(inc.AppendRows({all[3], all[4]}).ok());
  (void)inc.columns().column(0);  // extend mid-way
  (void)inc.columns().column(1);
  ASSERT_TRUE(inc.AppendRows({all[5], all[6], all[7]}).ok());

  Table scratch("t", schema);
  for (const auto& r : all) ASSERT_TRUE(scratch.AppendRow(r).ok());

  for (size_t c = 0; c < 2; ++c) {
    const ColumnCache::Column& a = inc.columns().column(c);
    const ColumnCache::Column& b = scratch.columns().column(c);
    EXPECT_EQ(a.num, b.num) << "col " << c;
    EXPECT_EQ(a.codes, b.codes) << "col " << c;
    EXPECT_EQ(a.ranks, b.ranks) << "col " << c;
    EXPECT_EQ(a.nulls, b.nulls) << "col " << c;
    EXPECT_EQ(a.dict, b.dict) << "col " << c;
    EXPECT_EQ(a.sorted_distinct, b.sorted_distinct) << "col " << c;
    EXPECT_EQ(a.sorted_rows, b.sorted_rows) << "col " << c;
    EXPECT_EQ(a.sorted_num, b.sorted_num) << "col " << c;
    EXPECT_EQ(a.numeric_only, b.numeric_only) << "col " << c;
    EXPECT_EQ(a.has_nulls, b.has_nulls) << "col " << c;
  }
}

TEST(ColumnCacheDeltaTest, CandidatePatchMatchesFullRebuild) {
  // Candidate-only writes flip `probs` in place; interleaved with appends
  // and deletes, every projection must still equal a from-scratch build on
  // a copy of the table, and neither the content version nor the content
  // generation may move.
  Schema schema({{"x", ValueType::kInt}, {"s", ValueType::kString}});
  const char* kStrings[] = {"aa", "bb", "mm", "zz"};
  Rng rng(23);
  auto random_row = [&]() {
    return std::vector<Value>{Value(rng.UniformInt(0, 9)),
                              Value(kStrings[rng.UniformInt(0, 3)])};
  };
  Table t("t", schema);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(t.AppendRow(random_row()).ok());
  ColumnCache& cache = t.columns();
  const uint64_t gen[2] = {cache.generation(0), cache.generation(1)};
  const uint64_t version[2] = {t.content_version(0), t.content_version(1)};

  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 9));
    if (op < 6) {
      const RowId r = static_cast<RowId>(rng.UniformInt(0, t.num_rows() - 1));
      const size_t c = static_cast<size_t>(rng.UniformInt(0, 1));
      std::vector<Candidate> cands;
      if (op < 4) {
        cands.push_back({t.cell(r, c).original(), 0.5, 0,
                         CandidateKind::kPoint});
        cands.push_back({c == 0 ? Value(rng.UniformInt(0, 9)) : Value("qq"),
                         0.5, 1, CandidateKind::kPoint});
      }
      // op 4, 5: clear
      t.SetCandidates(r, c, MakeCandidateSet(std::move(cands)));
    } else if (op < 8) {
      std::vector<std::vector<Value>> batch(
          static_cast<size_t>(rng.UniformInt(1, 3)));
      for (auto& row : batch) row = random_row();
      ASSERT_TRUE(t.AppendRows(std::move(batch)).ok());
    } else {
      const RowId r = static_cast<RowId>(rng.UniformInt(0, t.num_rows() - 1));
      if (t.is_live(r)) ASSERT_TRUE(t.DeleteRows({r}).ok());
    }
    // Refresh one column now and then, so patches hit both extended and
    // not-yet-extended rows.
    if (step % 7 == 0) (void)cache.column(step % 2);
    if (step % 25 != 24) continue;

    Table copy = t;  // drops the cache: the copy builds from scratch
    for (size_t c = 0; c < 2; ++c) {
      const ColumnCache::Column& a = cache.column(c);
      const ColumnCache::Column& b = copy.columns().column(c);
      EXPECT_EQ(a.num, b.num) << "col " << c << " step " << step;
      EXPECT_EQ(a.codes, b.codes) << "col " << c << " step " << step;
      EXPECT_EQ(a.ranks, b.ranks) << "col " << c << " step " << step;
      EXPECT_EQ(a.nulls, b.nulls) << "col " << c << " step " << step;
      EXPECT_EQ(a.probs, b.probs) << "col " << c << " step " << step;
      EXPECT_EQ(a.dict, b.dict) << "col " << c << " step " << step;
      EXPECT_EQ(a.sorted_distinct, b.sorted_distinct) << "col " << c;
      EXPECT_EQ(a.sorted_rows, b.sorted_rows) << "col " << c;
      EXPECT_EQ(a.sorted_num, b.sorted_num) << "col " << c;
      EXPECT_EQ(a.numeric_only, b.numeric_only) << "col " << c;
      EXPECT_EQ(a.has_nulls, b.has_nulls) << "col " << c;
      EXPECT_EQ(a.generation, gen[c]) << "col " << c << " step " << step;
      EXPECT_EQ(t.content_version(c), version[c]) << "col " << c;
    }
  }
}

// ------------------------------------------------ theta-join DetectDelta --

TEST(ThetaDeltaTest, DeltaDetectionMatchesFromScratch) {
  Table t = RandomSalaryTable(60, 11, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  const PairSet before = BruteForce(t, dc);
  auto delta = t.AppendRows(RandomSalaryBatch(15, 12, 0.2)).ValueOrDie();
  const PairSet found = AsSet(detector.DetectDelta(delta));
  EXPECT_TRUE(detector.FullyChecked());
  const PairSet after = BruteForce(t, dc);
  EXPECT_EQ(AsSet(detector.maintained_violations()), after);
  // The delta reports exactly the pairs the appended rows introduced.
  PairSet introduced;
  for (const auto& pair : after) {
    if (before.count(pair) == 0) introduced.insert(pair);
  }
  EXPECT_EQ(found, introduced);

  ThetaJoinDetector scratch(&t, &dc, 8);
  auto full = scratch.DetectAll();
  std::sort(full.begin(), full.end());
  EXPECT_EQ(detector.maintained_violations(), full);
}

// Regression pinning the exactly-once pair accounting across a delta: a
// fully-checked base of n rows plus a batch of d pays n*d + d*(d-1)/2
// comparisons, and a following DetectAll pays zero.
TEST(ThetaDeltaTest, DeltaChecksEachPairExactlyOnce) {
  const size_t n = 40, d = 7;
  Table t = RandomSalaryTable(n, 13, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  detector.set_pruning_enabled(false);
  (void)detector.DetectAll();
  auto delta = t.AppendRows(RandomSalaryBatch(d, 14, 0.3)).ValueOrDie();
  (void)detector.DetectDelta(delta);
  EXPECT_EQ(detector.pairs_checked(), n * d + d * (d - 1) / 2);
  // Re-feeding the same delta is a no-op (its rows are checked).
  EXPECT_TRUE(detector.DetectDelta(delta).empty());
  EXPECT_EQ(detector.pairs_checked(), 0u);
  (void)detector.DetectAll();
  EXPECT_EQ(detector.pairs_checked(), 0u);
}

TEST(ThetaDeltaTest, SequentialDeltasStayExact) {
  Table t = RandomSalaryTable(30, 17, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 4);
  (void)detector.DetectAll();
  for (uint64_t step = 0; step < 4; ++step) {
    auto delta =
        t.AppendRows(RandomSalaryBatch(5 + step, 18 + step, 0.25)).ValueOrDie();
    (void)detector.DetectDelta(delta);
    EXPECT_EQ(AsSet(detector.maintained_violations()), BruteForce(t, dc))
        << "after delta " << step;
  }
  EXPECT_TRUE(detector.FullyChecked());
}

TEST(ThetaDeltaTest, DeletePrunesMaintainedViolations) {
  Table t = RandomSalaryTable(50, 19, 0.3);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  ASSERT_FALSE(detector.maintained_violations().empty());
  // Delete a few rows that participate in violations.
  std::vector<RowId> victims = {detector.maintained_violations()[0].t1,
                                detector.maintained_violations()[0].t2};
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  ASSERT_TRUE(t.DeleteRows(victims).ok());
  EXPECT_EQ(AsSet(detector.maintained_violations()), BruteForce(t, dc));
  EXPECT_TRUE(detector.FullyChecked());  // tombstones need no checking
  // Detection after the delete never visits the tombstones.
  EXPECT_TRUE(detector.DetectAll().empty());
}

TEST(ThetaDeltaTest, PlainTableAppendsAutoIntegrateOnNextDetect) {
  // Regression: rows appended through the plain Table API (no TableDelta
  // handed to the detector) must not silently lose new-vs-checked-row
  // coverage — the next DetectAll/DetectIncremental integrates them first.
  Table t = RandomSalaryTable(40, 47, 0.2);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  (void)detector.DetectAll();
  ASSERT_TRUE(detector.FullyChecked());
  // A conflicting row against the checked base: low salary, huge tax.
  ASSERT_TRUE(t.AppendRow({Value(1500.0), Value(0.99)}).ok());
  EXPECT_FALSE(detector.FullyChecked());
  auto found = AsSet(detector.DetectAll());
  EXPECT_TRUE(detector.FullyChecked());
  for (const auto& pair : BruteForce(t, dc)) {
    const bool touches_new = pair.first == 40 || pair.second == 40;
    if (touches_new) {
      EXPECT_TRUE(found.count(pair) > 0)
          << "missing (" << pair.first << "," << pair.second << ")";
    }
  }
  EXPECT_EQ(AsSet(detector.maintained_violations()), BruteForce(t, dc));
  // DetectIncremental drains stray appends too.
  ASSERT_TRUE(t.AppendRow({Value(1600.0), Value(0.98)}).ok());
  (void)detector.DetectIncremental({0, 1, 2});
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(AsSet(detector.maintained_violations()), BruteForce(t, dc));
}

TEST(ThetaDeltaTest, DeltaInterleavedWithIncrementalQueries) {
  Table t = RandomSalaryTable(40, 29, 0.25);
  DenialConstraint dc = SalaryDc(t.schema());
  ThetaJoinDetector detector(&t, &dc, 8);
  std::vector<RowId> first_half;
  for (RowId r = 0; r < 20; ++r) first_half.push_back(r);
  (void)detector.DetectIncremental(first_half);
  auto delta = t.AppendRows(RandomSalaryBatch(8, 30, 0.25)).ValueOrDie();
  (void)detector.DetectDelta(delta);  // new rows checked vs ALL old rows
  std::vector<RowId> second_half;
  for (RowId r = 20; r < 40; ++r) second_half.push_back(r);
  (void)detector.DetectIncremental(second_half);
  EXPECT_TRUE(detector.FullyChecked());
  EXPECT_EQ(AsSet(detector.maintained_violations()), BruteForce(t, dc));
}

// --------------------------------------------------------- FD delta state --

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

TEST(FdDeltaTest, MaintainedGroupsMatchFromScratch) {
  Rng rng(31);
  Table t("cities", CitySchema());
  auto random_row = [&]() {
    return std::vector<Value>{
        Value(rng.UniformInt(0, 8)),
        Value("c" + std::to_string(rng.UniformInt(0, 4)))};
  };
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(t.AppendRow(random_row()).ok());
  DenialConstraint fd =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
          .ValueOrDie();
  FdDeltaDetector detector(&t, &fd);
  for (int step = 0; step < 6; ++step) {
    TableDelta delta;
    if (step % 2 == 0) {
      std::vector<std::vector<Value>> batch;
      for (int i = 0; i <= step; ++i) batch.push_back(random_row());
      delta = t.AppendRows(std::move(batch)).ValueOrDie();
    } else {
      std::vector<RowId> live = t.AllRowIds();
      std::vector<RowId> victims = {
          live[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(live.size()) - 1))]};
      delta = t.DeleteRows(victims).ValueOrDie();
    }
    (void)detector.ApplyDelta(delta);
    EXPECT_TRUE(testutil::SameFdGroups(
        detector.ViolatingGroups(),
        testutil::DetectFdViolationsRowPath(t, fd, t.AllRowIds(), false)))
        << "step " << step;
    EXPECT_TRUE(testutil::SameFdGroups(
        detector.ViolatingGroups(true),
        testutil::DetectFdViolationsRowPath(t, fd, t.AllRowIds(), true)))
        << "step " << step;
  }
}

// A NaN equals no value (Value::Equals), itself included, so the FD index
// follows the rule's pair semantics (ViolatedBy): two NaN rhs values in one
// lhs group differ, and two NaN lhs keys share no group. Deleting a NaN row
// must retract it.
TEST(FdDeltaTest, NaNFollowsPairSemanticsAndRetracts) {
  const Schema schema({{"k", ValueType::kDouble}, {"v", ValueType::kDouble}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t("t", schema);
  const std::vector<std::pair<double, double>> rows = {
      {1, nan}, {1, nan}, {nan, 1}, {nan, 2}, {2, 3}, {2, 3}};
  for (const auto& [k, v] : rows) {
    ASSERT_TRUE(t.AppendRow({Value(k), Value(v)}).ok());
  }
  const DenialConstraint fd =
      ParseConstraint("phi: FD k -> v", "t", schema).ValueOrDie();
  FdDeltaDetector detector(&t, &fd);
  auto index_rows = [&]() {
    std::set<RowId> out;
    for (const FdGroup& g : detector.ViolatingGroups()) {
      out.insert(g.rows.begin(), g.rows.end());
    }
    return out;
  };
  auto pair_rows = [&]() {
    std::set<RowId> out;
    for (const auto& [a, b] : BruteForce(t, fd)) {
      out.insert(a);
      out.insert(b);
    }
    return out;
  };
  EXPECT_EQ(index_rows(), (std::set<RowId>{0, 1}));
  EXPECT_EQ(index_rows(), pair_rows());
  EXPECT_EQ(detector.stats().avg_candidates, 2.0);

  (void)detector.ApplyDelta(t.DeleteRows({1, 2}).ValueOrDie());
  EXPECT_TRUE(index_rows().empty());
  EXPECT_TRUE(pair_rows().empty());
  EXPECT_EQ(detector.ViolatingGroups(true).size(), 3u);  // {0} {3} {4, 5}
  EXPECT_TRUE(detector.RhsBucket(Value(1.0)).empty());   // row 2's rhs
  EXPECT_TRUE(testutil::MatchesFreshFdIndex(detector, t, fd, 1));
}

TEST(FdDeltaTest, StatsPatchMatchesRecompute) {
  Rng rng(37);
  Database db;
  Table t("cities", CitySchema());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 9)),
                             Value("c" + std::to_string(rng.UniformInt(0, 3)))})
                    .ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  Table* table = db.GetTable("cities").ValueOrDie();
  ConstraintSet rules;
  ASSERT_TRUE(
      rules.AddFromText("phi: FD zip -> city", "cities", CitySchema()).ok());
  FdDeltaDetector detector(table, &rules.at(0));

  for (int step = 0; step < 8; ++step) {
    TableDelta delta;
    if (rng.Bernoulli(0.5)) {
      delta = table
                  ->AppendRows({{Value(rng.UniformInt(0, 9)),
                                 Value("c" + std::to_string(
                                            rng.UniformInt(0, 3)))}})
                  .ValueOrDie();
    } else {
      std::vector<RowId> live = table->AllRowIds();
      delta = table
                  ->DeleteRows({live[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(live.size()) - 1))]})
                  .ValueOrDie();
    }
    (void)detector.ApplyDelta(delta);

    const FdRuleStats m = detector.stats();
    const FdRuleStats f = testutil::FdStatsFromScratch(*table, rules.at(0));
    EXPECT_EQ(m.table_rows, f.table_rows) << "step " << step;
    EXPECT_EQ(m.num_violating_rows, f.num_violating_rows) << "step " << step;
    EXPECT_EQ(m.num_violating_groups, f.num_violating_groups)
        << "step " << step;
    EXPECT_DOUBLE_EQ(m.avg_candidates, f.avg_candidates) << "step " << step;
    EXPECT_TRUE(testutil::MatchesFreshFdIndex(detector, *table, rules.at(0),
                                              static_cast<uint64_t>(step)))
        << "step " << step;
  }
}

// ------------------------------------------------------------ relaxation --

TEST(RelaxDeltaTest, MaintainedIndexMatchesFreshBuild) {
  Rng rng(41);
  Table t("cities", CitySchema());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 5)),
                             Value("c" + std::to_string(rng.UniformInt(0, 3)))})
                    .ok());
  }
  DenialConstraint fd =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
          .ValueOrDie();
  FdDeltaDetector maintained(&t, &fd);
  auto d1 = t.AppendRows({{Value(2), Value("c9")}, {Value(7), Value("c0")}})
                .ValueOrDie();
  (void)maintained.ApplyDelta(d1);
  auto d2 = t.DeleteRows({3, 10}).ValueOrDie();
  (void)maintained.ApplyDelta(d2);

  FdDeltaDetector fresh(&t, &fd);
  const std::vector<RowId> answer = {0, 5};
  RelaxResult a = maintained.Relax(answer);
  RelaxResult b = fresh.Relax(answer);
  EXPECT_EQ(a.extra, b.extra);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  // The dirty-restricted closure the engine runs agrees as well.
  std::vector<bool> checked(t.num_rows(), false);
  checked[0] = true;
  RelaxResult c = maintained.Relax(answer, &checked);
  RelaxResult d = fresh.Relax(answer, &checked);
  EXPECT_EQ(c.extra, d.extra);
  EXPECT_EQ(c.iterations, d.iterations);
  EXPECT_EQ(c.tuples_scanned, d.tuples_scanned);
}

// ------------------------------------------- P(lhs | rhs) after ingest --

// FD zip -> city over `rows`; the engine owns the rule state.
struct CitiesEngine {
  explicit CitiesEngine(const std::vector<std::pair<int, std::string>>& rows) {
    Table t("cities", CitySchema());
    for (const auto& [zip, city] : rows) {
      EXPECT_TRUE(t.AppendRow({Value(zip), Value(city)}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(t)).ok());
    ConstraintSet rules;
    EXPECT_TRUE(
        rules.AddFromText("phi: FD zip -> city", "cities", CitySchema()).ok());
    engine = std::make_unique<DaisyEngine>(&db, std::move(rules));
    EXPECT_TRUE(engine->Prepare().ok());
  }
  const Cell& cell(RowId r, size_t c) {
    return db.GetTable("cities").ValueOrDie()->cell(r, c);
  }
  Database db;
  std::unique_ptr<DaisyEngine> engine;
};

// The zip candidates of a cell as (value, probability) pairs.
std::vector<std::pair<int64_t, double>> ZipCandidates(const Cell& cell) {
  std::vector<std::pair<int64_t, double>> out;
  for (const Candidate& c : cell.candidates()) {
    EXPECT_EQ(c.pair_id, 1);
    out.emplace_back(c.value.as_int(), c.prob);
  }
  return out;
}

TEST(FdIngestRepairTest, DeleteShrinksLhsCandidatesOfRepairedRows) {
  CitiesEngine e({{1, "A"}, {1, "B"}, {2, "B"}, {3, "B"}});
  ASSERT_TRUE(e.engine->Query("SELECT * FROM cities WHERE zip = 1").ok());
  EXPECT_EQ(ZipCandidates(e.cell(1, 0)),
            (std::vector<std::pair<int64_t, double>>{
                {1, 1.0 / 3}, {2, 1.0 / 3}, {3, 1.0 / 3}}));
  // The deleted tuple's zip no longer supports a repair of (1, B).
  ASSERT_TRUE(e.engine->DeleteRows("cities", {2}).ok());
  ASSERT_TRUE(e.engine->Query("SELECT * FROM cities WHERE zip = 1").ok());
  EXPECT_EQ(ZipCandidates(e.cell(1, 0)),
            (std::vector<std::pair<int64_t, double>>{{1, 0.5}, {3, 0.5}}));

  // Down to one zip for city B: the lhs candidates collapse, the cell is
  // clean again, and the city candidates of the zip-1 group stay.
  ASSERT_TRUE(e.engine->DeleteRows("cities", {3}).ok());
  EXPECT_FALSE(e.cell(1, 0).is_probabilistic());
  EXPECT_TRUE(e.cell(1, 1).is_probabilistic());
}

TEST(FdIngestRepairTest, AppendGrowsLhsCandidatesOfRepairedRows) {
  CitiesEngine e({{1, "A"}, {1, "B"}, {2, "B"}});
  ASSERT_TRUE(e.engine->CleanAllRemaining().ok());
  EXPECT_EQ(ZipCandidates(e.cell(1, 0)),
            (std::vector<std::pair<int64_t, double>>{{1, 0.5}, {2, 0.5}}));
  ASSERT_TRUE(e.engine->AppendRows("cities", {{Value(3), Value("B")}}).ok());
  EXPECT_EQ(ZipCandidates(e.cell(1, 0)),
            (std::vector<std::pair<int64_t, double>>{
                {1, 1.0 / 3}, {2, 1.0 / 3}, {3, 1.0 / 3}}));
  // Row 0's city A gains a second zip: its lhs cell turns probabilistic.
  ASSERT_TRUE(e.engine->AppendRows("cities", {{Value(4), Value("A")}}).ok());
  EXPECT_EQ(ZipCandidates(e.cell(0, 0)),
            (std::vector<std::pair<int64_t, double>>{{1, 0.5}, {4, 0.5}}));
}

// ----------------------------------------------------------- provenance --

TEST(ProvenanceDeltaTest, DropRowsForgetsDeletedRows) {
  Table t = RandomSalaryTable(4, 43, 0.0);
  ProvenanceStore store;
  RepairRecord rec;
  rec.rule = "phi";
  rec.sources = ShareSources({{Value(0.5), 1.0, CandidateKind::kPoint}});
  store.Record(&t, 1, 1, rec);
  store.Record(&t, 2, 0, rec);
  EXPECT_EQ(store.NumRepairedCells(), 2u);
  store.DropRows({1});
  EXPECT_EQ(store.NumRepairedCells(), 1u);
  EXPECT_FALSE(store.HasRecord(1, 1, "phi"));
  EXPECT_TRUE(store.HasRecord(2, 0, "phi"));
}

}  // namespace
}  // namespace daisy
