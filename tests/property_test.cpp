// Cross-module property tests (parameterized sweeps): invariants the paper
// states or that the probabilistic model requires, exercised on random
// inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cell_test_util.h"
#include "common/rng.h"
#include "detect/fd_delta.h"
#include "repair/fd_repair.h"
#include "repair/provenance.h"
#include "relax_oracle.h"
#include "repair_oracle.h"

namespace daisy {
namespace {

using testutil::RelaxFdResult;

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

Table RandomCities(uint64_t seed, size_t rows, size_t zips, size_t cities) {
  Rng rng(seed);
  Table t("cities", CitySchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        t.AppendRow(
             {Value(rng.UniformInt(0, static_cast<int64_t>(zips) - 1)),
              Value("c" + std::to_string(rng.UniformInt(
                              0, static_cast<int64_t>(cities) - 1)))})
            .ok());
  }
  return t;
}

struct RandomParam {
  uint64_t seed;
  size_t rows;
  size_t zips;
  size_t cities;
};

// ------------------------------------------- probability normalization --

class RepairNormalizationTest : public ::testing::TestWithParam<RandomParam> {
};

TEST_P(RepairNormalizationTest, CandidateProbabilitiesSumToOne) {
  const RandomParam p = GetParam();
  Table t = RandomCities(p.seed, p.rows, p.zips, p.cities);
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Cell& cell = t.cell(r, c);
      if (!cell.is_probabilistic()) continue;
      double total = 0;
      for (const Candidate& cand : cell.candidates()) {
        EXPECT_GT(cand.prob, 0.0);
        EXPECT_LE(cand.prob, 1.0 + 1e-12);
        total += cand.prob;
      }
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RepairNormalizationTest,
                         ::testing::Values(RandomParam{1, 100, 10, 6},
                                           RandomParam{2, 300, 25, 10},
                                           RandomParam{3, 60, 4, 3},
                                           RandomParam{4, 500, 50, 20}));

// ----------------------------------------------------- repair coverage --

class RepairCoverageTest : public ::testing::TestWithParam<RandomParam> {};

TEST_P(RepairCoverageTest, EveryViolatingTupleGetsRhsCandidates) {
  const RandomParam p = GetParam();
  Table t = RandomCities(p.seed, p.rows, p.zips, p.cities);
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  const auto groups = testutil::DetectFdViolationsRowPath(t, dc, t.AllRowIds());
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  for (const FdGroup& g : groups) {
    for (RowId r : g.rows) {
      const Cell& rhs = t.cell(r, 1);
      ASSERT_TRUE(rhs.is_probabilistic());
      // The candidate set covers every rhs value of the group, with the
      // correct relative frequencies.
      for (const auto& [value, count] : g.rhs_histogram) {
        bool found = false;
        for (const Candidate& cand : rhs.candidates()) {
          if (cand.value == value) {
            EXPECT_NEAR(cand.prob,
                        static_cast<double>(count) /
                            static_cast<double>(g.total()),
                        1e-9);
            found = true;
          }
        }
        EXPECT_TRUE(found) << "missing candidate " << value.ToString();
      }
    }
  }
}

TEST_P(RepairCoverageTest, RepairIsIdempotent) {
  const RandomParam p = GetParam();
  Table t = RandomCities(p.seed, p.rows, p.zips, p.cities);
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  // Snapshot.
  std::vector<Cell> snapshot;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    snapshot.push_back(t.cell(r, 1));
  }
  auto again = RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  EXPECT_EQ(again.tuples_repaired, 0u);
  for (RowId r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(t.cell(r, 1), snapshot[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RepairCoverageTest,
                         ::testing::Values(RandomParam{11, 150, 12, 5},
                                           RandomParam{12, 250, 20, 8},
                                           RandomParam{13, 80, 6, 4}));

// ------------------------------------------ indexed vs scan relaxation --

class RelaxEquivalenceTest : public ::testing::TestWithParam<RandomParam> {};

TEST_P(RelaxEquivalenceTest, IndexedClosureEqualsScanClosure) {
  const RandomParam p = GetParam();
  Table t = RandomCities(p.seed, p.rows, p.zips, p.cities);
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  Rng rng(p.seed + 1000);
  std::vector<size_t> answer =
      rng.SampleWithoutReplacement(p.rows, std::max<size_t>(1, p.rows / 10));
  std::sort(answer.begin(), answer.end());

  RelaxResult scan = RelaxFdResult(t, dc, answer);
  FdDeltaDetector index(&t, &dc);
  RelaxResult indexed = index.Relax(answer);

  std::vector<RowId> a = scan.extra;
  std::vector<RowId> b = indexed.extra;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_P(RelaxEquivalenceTest, IndexRepairEqualsScopeOracleOverQueries) {
  // Lemmas 1-2 over a query sequence: each query relaxes its answer from
  // the rows CleanSelect has not checked yet, and the index-based repair
  // over that scope writes exactly the records the scope-restricted
  // oracle counts from the scope alone.
  const RandomParam p = GetParam();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  Table indexed_t = RandomCities(p.seed, p.rows, p.zips, p.cities);
  Table oracle_t = indexed_t;
  const FdDeltaDetector index(&indexed_t, &dc);
  ProvenanceStore indexed_prov;
  ProvenanceStore oracle_prov;
  std::vector<bool> checked(indexed_t.num_rows(), false);
  Rng rng(p.seed + 2000);
  for (int q = 0; q < 8; ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    // A point query on zip or city.
    const bool by_zip = rng.Bernoulli(0.5);
    const Value probe =
        by_zip ? Value(rng.UniformInt(0, static_cast<int64_t>(p.zips) - 1))
               : Value("c" + std::to_string(rng.UniformInt(
                                 0, static_cast<int64_t>(p.cities) - 1)));
    std::vector<RowId> answer;
    for (RowId r : indexed_t.AllRowIds()) {
      if (indexed_t.cell(r, by_zip ? 0 : 1).original() == probe) {
        answer.push_back(r);
      }
    }
    // CleanSelect::RunFd's bookkeeping: a fully checked answer repairs
    // nothing, a clean one is marked checked, the rest relax from their
    // unchecked rows and mark the scope checked.
    if (std::all_of(answer.begin(), answer.end(),
                    [&](RowId r) { return checked[r]; })) {
      continue;
    }
    std::vector<RowId> scope = answer;
    if (index.RowsTouchDirty(answer)) {
      const RelaxResult relaxed = index.Relax(answer, &checked);
      scope.insert(scope.end(), relaxed.extra.begin(), relaxed.extra.end());
      const RepairStats a =
          RepairFdViolations(&indexed_t, index, scope, &indexed_prov);
      const RepairStats b = testutil::RepairFdViolationsOverScope(
          &oracle_t, dc, scope, &oracle_prov);
      EXPECT_EQ(a.tuples_repaired, b.tuples_repaired);
      EXPECT_EQ(a.cells_repaired, b.cells_repaired);
      ASSERT_TRUE(testutil::SameRecords(indexed_prov, oracle_prov));
    }
    for (RowId r : scope) checked[r] = true;
  }
  // The cost-model switch: everything left, over the whole relation.
  (void)RepairFdViolations(&indexed_t, index, indexed_t.AllRowIds(),
                           &indexed_prov);
  (void)testutil::RepairFdViolationsOverScope(
      &oracle_t, dc, oracle_t.AllRowIds(), &oracle_prov);
  EXPECT_TRUE(testutil::SameRecords(indexed_prov, oracle_prov));
  for (RowId r = 0; r < indexed_t.num_rows(); ++r) {
    for (size_t c = 0; c < indexed_t.num_columns(); ++c) {
      EXPECT_EQ(indexed_t.cell(r, c), oracle_t.cell(r, c))
          << "row " << r << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RelaxEquivalenceTest,
                         ::testing::Values(RandomParam{21, 120, 10, 6},
                                           RandomParam{22, 200, 16, 8},
                                           RandomParam{23, 400, 30, 12},
                                           RandomParam{24, 64, 5, 3}));

// --------------------------------------------------- value total order --

TEST(ValueOrderPropertyTest, CompareIsTotalOrderOnSamples) {
  Rng rng(31);
  std::vector<Value> values;
  for (int i = 0; i < 30; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        values.push_back(Value(rng.UniformInt(-100, 100)));
        break;
      case 1:
        values.push_back(Value(rng.UniformDouble(-100, 100)));
        break;
      case 2:
        values.push_back(Value("s" + std::to_string(rng.UniformInt(0, 50))));
        break;
      default:
        values.push_back(Value::Null());
    }
  }
  for (const Value& a : values) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const Value& b : values) {
      // Antisymmetry.
      EXPECT_EQ(a.Compare(b), -b.Compare(a));
      for (const Value& c : values) {
        // Transitivity (<=).
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0);
        }
      }
    }
  }
}

// ------------------------------------------- provenance order-freedom --

TEST(ProvenancePropertyTest, RecordOrderDoesNotMatter) {
  Rng rng(41);
  // Random record sets applied in two different orders produce identical
  // cells.
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RepairRecord> records;
    const int n = static_cast<int>(rng.UniformInt(2, 5));
    for (int i = 0; i < n; ++i) {
      RepairRecord rec;
      rec.rule = "rule" + std::to_string(i);
      rec.pair_tag = static_cast<int32_t>(rng.UniformInt(0, 1));
      const int nsources = static_cast<int>(rng.UniformInt(1, 4));
      std::vector<CandidateSource> sources;
      for (int s = 0; s < nsources; ++s) {
        sources.push_back({Value(rng.UniformInt(0, 5)),
                           static_cast<double>(rng.UniformInt(1, 5)),
                           CandidateKind::kPoint});
      }
      rec.sources = ShareSources(std::move(sources));
      records.push_back(std::move(rec));
    }
    auto apply = [&](const std::vector<RepairRecord>& recs) {
      Table t("t", Schema({{"x", ValueType::kInt}}));
      EXPECT_TRUE(t.AppendRow({Value(0)}).ok());
      ProvenanceStore prov;
      for (const RepairRecord& rec : recs) prov.Record(&t, 0, 0, rec);
      return t.cell(0, 0);
    };
    std::vector<RepairRecord> shuffled = records;
    rng.Shuffle(&shuffled);
    EXPECT_EQ(apply(records), apply(shuffled)) << "trial " << trial;
  }
}

// --------------------------------------------- cell possible-value API --

TEST(CellPropertyTest, MayEqualConsistentWithPossibleValues) {
  Rng rng(51);
  for (int trial = 0; trial < 50; ++trial) {
    Cell cell(Value(rng.UniformInt(0, 20)));
    const int cands = static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < cands; ++i) {
      testutil::AddCandidate(
          &cell, {Value(rng.UniformInt(0, 20)), 1.0, 0, CandidateKind::kPoint});
    }
    testutil::NormalizeCell(&cell);
    for (const Value& v : cell.PossibleValues()) {
      EXPECT_TRUE(cell.MayEqual(v));
      EXPECT_TRUE(cell.MayBeInRange(v, v));
    }
    EXPECT_FALSE(cell.MayEqual(Value(999)));
  }
}

}  // namespace
}  // namespace daisy
