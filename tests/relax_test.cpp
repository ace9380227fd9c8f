// Tests for query-result relaxation (Algorithm 1) — the scan form and
// FdDeltaDetector::Relax — and the Lemma 2/3 analytical estimates.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "detect/fd_delta.h"
#include "relax_oracle.h"

namespace daisy {
namespace {

using testutil::AttributeFrequencies;
using testutil::ProbAtLeastOneViolation;
using testutil::RelaxedResultUpperBound;
using testutil::RelaxFdResult;

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

DenialConstraint ZipCityFd() {
  return ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
      .ValueOrDie();
}

// The extras FdDeltaDetector::Relax adds to `answer`, ascending.
std::vector<RowId> IndexedExtras(const Table& t, const DenialConstraint& dc,
                                 const std::vector<RowId>& answer) {
  FdDeltaDetector index(&t, &dc);
  std::vector<RowId> extra = index.Relax(answer).extra;
  std::sort(extra.begin(), extra.end());
  return extra;
}

TEST(RelaxationTest, Example2RhsFilterClosure) {
  // Query: city = 'Los Angeles' (a filter on the FD's rhs). Dirty result:
  // rows 0 and 2. Relaxation adds row 1 (same lhs 9001); the transitive
  // closure then chains through row 1's rhs "San Francisco" to row 3, and
  // through row 3's lhs 10001 to row 4 — the full correlated cluster.
  // (The paper's Example 2 narration stops after row 1, but its Table 2b
  // zip candidates {9001 50%, 10001 50%} require row 3 in the scope, and
  // Example 3 applies exactly this closure; we follow Algorithm 1 with the
  // growing relaxed result.)
  Table t = CitiesTable();
  DenialConstraint dc = ZipCityFd();
  RelaxResult r = RelaxFdResult(t, dc, {0, 2});
  std::vector<RowId> extra = r.extra;
  std::sort(extra.begin(), extra.end());
  EXPECT_EQ(extra, (std::vector<RowId>{1, 3, 4}));
  EXPECT_EQ(IndexedExtras(t, dc, {0, 2}), (std::vector<RowId>{1, 3, 4}));
  // The tuple that makes row 1's lhs candidates {9001, 10001} (Table 2b)
  // is in the scope.
  EXPECT_TRUE(std::binary_search(extra.begin(), extra.end(), RowId{3}));
}

TEST(RelaxationTest, Example3LhsFilterTransitiveClosure) {
  // Query: zip = 9001 (a filter on the FD's lhs). Dirty result: rows 0-2.
  // The closure walks: row 3 shares rhs "San Francisco" with row 1, then
  // row 4 shares lhs 10001 with row 3 — the full correlated cluster.
  Table t = CitiesTable();
  DenialConstraint dc = ZipCityFd();
  RelaxResult r = RelaxFdResult(t, dc, {0, 1, 2});
  std::vector<RowId> extra = r.extra;
  std::sort(extra.begin(), extra.end());
  EXPECT_EQ(extra, (std::vector<RowId>{3, 4}));
  EXPECT_EQ(IndexedExtras(t, dc, {0, 1, 2}), (std::vector<RowId>{3, 4}));
  EXPECT_GE(r.iterations, 2u);  // needs the extra pass of Lemma 2
}

TEST(RelaxationTest, CleanResultNoExtras) {
  Table t("cities", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("a")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("b")}).ok());
  DenialConstraint dc = ZipCityFd();
  RelaxResult r = RelaxFdResult(t, dc, {0});
  EXPECT_TRUE(r.extra.empty());
  EXPECT_TRUE(IndexedExtras(t, dc, {0}).empty());
}

TEST(RelaxationTest, EmptyAnswerRelaxesToNothing) {
  Table t = CitiesTable();
  DenialConstraint dc = ZipCityFd();
  RelaxResult r = RelaxFdResult(t, dc, {});
  EXPECT_TRUE(r.extra.empty());
  EXPECT_TRUE(IndexedExtras(t, dc, {}).empty());
}

TEST(RelaxationTest, UniverseRestrictsScanning) {
  Table t = CitiesTable();
  DenialConstraint dc = ZipCityFd();
  // Universe excludes rows 3 and 4: the closure cannot leave the 9001
  // cluster.
  RelaxResult r = RelaxFdResult(t, dc, {0, 2}, {0, 1, 2});
  std::vector<RowId> extra = r.extra;
  std::sort(extra.begin(), extra.end());
  EXPECT_EQ(extra, std::vector<RowId>{1});
}

TEST(RelaxationTest, FixpointPropertyRelaxedResultIsClosed) {
  // Relaxing (answer ∪ extra) again must add nothing (transitive closure).
  Rng rng(5);
  Table t("cities", CitySchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 30)),
                             Value("c" + std::to_string(rng.UniformInt(0, 15)))})
                    .ok());
  }
  DenialConstraint dc = ZipCityFd();
  std::vector<RowId> answer;
  for (RowId r = 0; r < 40; ++r) answer.push_back(r);
  RelaxResult first = RelaxFdResult(t, dc, answer);
  std::vector<RowId> closed = answer;
  closed.insert(closed.end(), first.extra.begin(), first.extra.end());
  std::sort(closed.begin(), closed.end());
  RelaxResult second = RelaxFdResult(t, dc, closed);
  EXPECT_TRUE(second.extra.empty());
}

TEST(RelaxationTest, ExtrasShareValuesWithClosure) {
  // Soundness: every extra tuple is correlated — it shares an lhs key or an
  // rhs value with the (transitively grown) answer.
  Rng rng(9);
  Table t("cities", CitySchema());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 25)),
                             Value("c" + std::to_string(rng.UniformInt(0, 10)))})
                    .ok());
  }
  DenialConstraint dc = ZipCityFd();
  std::vector<RowId> answer{0, 1, 2, 3, 4};
  RelaxResult r = RelaxFdResult(t, dc, answer);
  std::vector<RowId> closure = answer;
  closure.insert(closure.end(), r.extra.begin(), r.extra.end());
  for (RowId e : r.extra) {
    bool correlated = false;
    for (RowId o : closure) {
      if (o == e) continue;
      if (t.cell(o, 0).original() == t.cell(e, 0).original() ||
          t.cell(o, 1).original() == t.cell(e, 1).original()) {
        correlated = true;
        break;
      }
    }
    EXPECT_TRUE(correlated) << "row " << e << " is uncorrelated";
  }
}

// ------------------------------------------------------------- estimates --

TEST(EstimatesTest, HypergeometricEdgeCases) {
  EXPECT_DOUBLE_EQ(ProbAtLeastOneViolation(100, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(ProbAtLeastOneViolation(100, 10, 0), 0.0);
  EXPECT_DOUBLE_EQ(ProbAtLeastOneViolation(100, 100, 5), 1.0);
  // Sampling everything with any violation present -> certainty.
  EXPECT_NEAR(ProbAtLeastOneViolation(100, 1, 100), 1.0, 1e-9);
}

TEST(EstimatesTest, HypergeometricMatchesClosedForm) {
  // n=10, vio=2, sample=3: P(0) = C(8,3)/C(10,3) = 56/120.
  const double expected = 1.0 - 56.0 / 120.0;
  EXPECT_NEAR(ProbAtLeastOneViolation(10, 2, 3), expected, 1e-12);
}

TEST(EstimatesTest, HypergeometricMonotoneInSampleSize) {
  double prev = 0.0;
  for (size_t ar = 1; ar <= 50; ar += 7) {
    const double p = ProbAtLeastOneViolation(100, 5, ar);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(EstimatesTest, Lemma3UpperBound) {
  // Attribute with result values appearing 10 times dataset-wide, 4 times
  // in-result: R contribution 6.
  AttributeFrequencies a;
  a.dataset_freq = {6, 4};
  a.result_freq = {3, 1};
  AttributeFrequencies b;
  b.dataset_freq = {5};
  b.result_freq = {5};
  EXPECT_EQ(RelaxedResultUpperBound({a, b}), 6u);
  EXPECT_EQ(RelaxedResultUpperBound({}), 0u);
}

TEST(EstimatesTest, Lemma3BoundsActualRelaxation) {
  // Property: one relaxation iteration never adds more rows than R.
  Rng rng(13);
  Table t("cities", CitySchema());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(rng.UniformInt(0, 40)),
                             Value("c" + std::to_string(rng.UniformInt(0, 20)))})
                    .ok());
  }
  DenialConstraint dc = ZipCityFd();
  std::vector<RowId> answer;
  for (RowId r = 0; r < 60; ++r) answer.push_back(r);

  // Build the Lemma 3 evidence for zip and city.
  auto freq_for = [&](size_t col) {
    AttributeFrequencies f;
    std::unordered_map<Value, size_t, ValueHash> in_result, in_dataset;
    for (RowId r : answer) in_result[t.cell(r, col).original()] += 1;
    for (RowId r = 0; r < t.num_rows(); ++r) {
      in_dataset[t.cell(r, col).original()] += 1;
    }
    for (const auto& [value, count] : in_result) {
      f.result_freq.push_back(count);
      f.dataset_freq.push_back(in_dataset[value]);
    }
    return f;
  };
  const size_t bound =
      RelaxedResultUpperBound({freq_for(0), freq_for(1)});
  RelaxResult r = RelaxFdResult(t, dc, answer);
  // First-iteration extras are bounded by R (the closure may add more in
  // later iterations; Lemma 3 is per-iteration, so compare conservatively
  // against the closure only when it terminated in one iteration).
  if (r.iterations <= 2) {
    EXPECT_LE(r.extra.size(), bound);
  }
}

}  // namespace
}  // namespace daisy
