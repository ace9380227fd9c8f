// Tests for the repair module: the DPLL SAT solver, provenance-backed
// probabilistic repair of FDs (paper Example 2) and of general DCs
// (Example 5), and Lemma 4 commutativity.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"
#include "repair/provenance.h"
#include "repair/sat.h"

namespace daisy {
namespace {

// ------------------------------------------------------------------- SAT --

TEST(SatSolverTest, TrivialSat) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{1, 2}};
  SatSolver solver;
  auto r = solver.Solve(f).ValueOrDie();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[1] || r.assignment[2]);
}

TEST(SatSolverTest, UnsatCore) {
  CnfFormula f;
  f.num_vars = 1;
  f.clauses = {{1}, {-1}};
  SatSolver solver;
  EXPECT_FALSE(solver.Solve(f).ValueOrDie().satisfiable);
}

TEST(SatSolverTest, UnitPropagationChains) {
  // x1, x1->x2, x2->x3  encoded as clauses.
  CnfFormula f;
  f.num_vars = 3;
  f.clauses = {{1}, {-1, 2}, {-2, 3}};
  SatSolver solver;
  auto r = solver.Solve(f).ValueOrDie();
  ASSERT_TRUE(r.satisfiable);
  EXPECT_TRUE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_TRUE(r.assignment[3]);
  EXPECT_GE(solver.propagations(), 2u);
}

TEST(SatSolverTest, RejectsMalformedInput) {
  CnfFormula f;
  f.num_vars = 1;
  f.clauses = {{0}};
  SatSolver solver;
  EXPECT_FALSE(solver.Solve(f).ok());
  f.clauses = {{5}};
  EXPECT_FALSE(solver.Solve(f).ok());
  f.clauses = {{}};
  EXPECT_FALSE(solver.Solve(f).ok());
}

TEST(SatSolverTest, EnumerateModels) {
  CnfFormula f;
  f.num_vars = 2;
  f.clauses = {{1, 2}};
  SatSolver solver;
  auto models = solver.EnumerateModels(f, 10).ValueOrDie();
  EXPECT_EQ(models.size(), 3u);  // TT, TF, FT
}

// Property: solver verdict matches brute-force across random 3-CNF.
class SatPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SatPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  const int num_vars = 6;
  CnfFormula f;
  f.num_vars = num_vars;
  const int num_clauses = static_cast<int>(rng.UniformInt(3, 14));
  for (int c = 0; c < num_clauses; ++c) {
    Clause clause;
    const int len = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < len; ++l) {
      int v = static_cast<int>(rng.UniformInt(1, num_vars));
      clause.push_back(rng.Bernoulli(0.5) ? v : -v);
    }
    f.clauses.push_back(std::move(clause));
  }
  // Brute force.
  bool brute_sat = false;
  for (int mask = 0; mask < (1 << num_vars) && !brute_sat; ++mask) {
    bool all = true;
    for (const Clause& clause : f.clauses) {
      bool any = false;
      for (Literal lit : clause) {
        const bool val = (mask >> (std::abs(lit) - 1)) & 1;
        if ((lit > 0) == val) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }
  SatSolver solver;
  EXPECT_EQ(solver.Solve(f).ValueOrDie().satisfiable, brute_sat);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SatPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(SatRepairFormulaTest, DcFormulaAndInversionSets) {
  CnfFormula f = BuildDcRepairFormula(3);
  EXPECT_EQ(f.num_vars, 3);
  ASSERT_EQ(f.clauses.size(), 1u);
  SatSolver solver;
  // All-atoms-true must be the unique blocked assignment.
  auto models = solver.EnumerateModels(f, 16).ValueOrDie();
  EXPECT_EQ(models.size(), 7u);  // 2^3 - 1

  auto sets = MinimalInversionSets(3, {});
  EXPECT_EQ(sets.size(), 3u);  // singletons
  for (const auto& s : sets) EXPECT_EQ(s.size(), 1u);

  sets = MinimalInversionSets(3, {true, false, true});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0][0], 1u);

  EXPECT_TRUE(MinimalInversionSets(2, {true, true}).empty());
}

// ------------------------------------------------------------ Provenance --

Schema CitySchema() {
  return Schema({{"zip", ValueType::kInt}, {"city", ValueType::kString}});
}

TEST(ProvenanceTest, RecordRebuildsCell) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  RepairRecord rec;
  rec.rule = "phi";
  rec.pair_tag = 0;
  rec.sources = ShareSources({{Value("LA"), 2.0, CandidateKind::kPoint},
                              {Value("SF"), 1.0, CandidateKind::kPoint}});
  prov.Record(&t, 0, 1, std::move(rec));
  const Cell& cell = t.cell(0, 1);
  ASSERT_TRUE(cell.is_probabilistic());
  ASSERT_EQ(cell.candidates().size(), 2u);
  EXPECT_NEAR(cell.candidates()[0].prob + cell.candidates()[1].prob, 1.0,
              1e-12);
  EXPECT_TRUE(prov.HasRecord(0, 1, "phi"));
  EXPECT_FALSE(prov.HasRecord(0, 1, "psi"));
  EXPECT_EQ(prov.NumRepairedCells(), 1u);
}

TEST(ProvenanceTest, SameRuleRecordReplaces) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  prov.Record(&t, 0, 1,
              {"phi", 0,
               ShareSources({{Value("LA"), 1.0, CandidateKind::kPoint}}),
               {}});
  prov.Record(&t, 0, 1,
              {"phi", 0,
               ShareSources({{Value("NY"), 1.0, CandidateKind::kPoint}}),
               {}});
  const Cell& cell = t.cell(0, 1);
  ASSERT_EQ(cell.candidates().size(), 1u);
  EXPECT_EQ(cell.candidates()[0].value, Value("NY"));
}

TEST(ProvenanceTest, Lemma4MergeIsCommutative) {
  // Two rules repair the same cell; the rebuilt candidate set must not
  // depend on arrival order (Lemma 4).
  auto build = [](bool phi_first) {
    Table t("c", CitySchema());
    EXPECT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
    ProvenanceStore prov;
    RepairRecord phi{"phi", 0,
                     ShareSources({{Value("LA"), 2.0, CandidateKind::kPoint},
                                   {Value("SF"), 1.0, CandidateKind::kPoint}}),
                     std::make_shared<const std::vector<RowId>>(
                         std::vector<RowId>{0, 1})};
    RepairRecord psi{"psi", 0,
                     ShareSources({{Value("LA"), 1.0, CandidateKind::kPoint},
                                   {Value("NY"), 1.0, CandidateKind::kPoint}}),
                     std::make_shared<const std::vector<RowId>>(
                         std::vector<RowId>{0, 2})};
    if (phi_first) {
      prov.Record(&t, 0, 1, phi);
      prov.Record(&t, 0, 1, psi);
    } else {
      prov.Record(&t, 0, 1, psi);
      prov.Record(&t, 0, 1, phi);
    }
    return t.cell(0, 1);
  };
  const Cell a = build(true);
  const Cell b = build(false);
  EXPECT_EQ(a, b);
  // Counts union: LA 3, SF 1, NY 1 -> normalized.
  ASSERT_EQ(a.candidates().size(), 3u);
  EXPECT_EQ(a.MostProbable(), Value("LA"));
  EXPECT_NEAR(a.candidates()[0].prob, 3.0 / 5.0, 1e-12);
}

TEST(ProvenanceTest, AppendSourcesAccumulates) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ProvenanceStore prov;
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("SF"), 1.0, CandidateKind::kPoint}}, {0});
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("SF"), 1.0, CandidateKind::kPoint},
                      {Value("LA"), 1.0, CandidateKind::kPoint}},
                     {1});
  const Cell& cell = t.cell(0, 1);
  ASSERT_EQ(cell.candidates().size(), 2u);
  // SF count 2, LA count 1.
  EXPECT_EQ(cell.MostProbable(), Value("SF"));
  const std::vector<RepairRecord>* recs = prov.RecordsFor(0, 1);
  ASSERT_NE(recs, nullptr);
  ASSERT_EQ(recs->size(), 1u);
  EXPECT_EQ((*recs)[0].conflicting(), (std::vector<RowId>{0, 1}));
}

// ------------------------------------------------------------- FD repair --

Table CitiesTable() {
  Table t("cities", CitySchema());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("Los Angeles")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("San Francisco")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(10001), Value("New York")}).ok());
  return t;
}

TEST(FdRepairTest, Example2Probabilities) {
  // Paper Example 2 over Table 2a: repair the 9001 cluster. The
  // distributions are the whole relation's, so row 1's zip candidates
  // count row 3 (10001, San Francisco) without it being repaired.
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  auto stats = RepairFdViolations(&t, index, {0, 1, 2}, &prov);
  EXPECT_EQ(stats.violating_groups, 1u);
  EXPECT_EQ(stats.tuples_repaired, 3u);  // rows 0,1,2 (the 9001 group)

  // Row 1 (9001, San Francisco): city candidates {LA 67%, SF 33%}.
  const Cell& city1 = t.cell(1, 1);
  ASSERT_TRUE(city1.is_probabilistic());
  ASSERT_EQ(city1.candidates().size(), 2u);
  EXPECT_EQ(city1.MostProbable(), Value("Los Angeles"));
  for (const Candidate& c : city1.candidates()) {
    if (c.value == Value("Los Angeles")) EXPECT_NEAR(c.prob, 2.0 / 3, 1e-12);
    if (c.value == Value("San Francisco")) EXPECT_NEAR(c.prob, 1.0 / 3, 1e-12);
    EXPECT_EQ(c.pair_id, 0);  // rhs-candidate instance
  }
  // Row 1 zip candidates {9001 50%, 10001 50%} (tuples with City=SF).
  const Cell& zip1 = t.cell(1, 0);
  ASSERT_TRUE(zip1.is_probabilistic());
  ASSERT_EQ(zip1.candidates().size(), 2u);
  for (const Candidate& c : zip1.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    EXPECT_EQ(c.pair_id, 1);  // lhs-candidate instance
  }

  // Row 0 (9001, Los Angeles): city gets the same histogram, zip stays
  // clean ({Zip | City=LA} is single-valued).
  EXPECT_TRUE(t.cell(0, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(0, 0).is_probabilistic());

  // Rows 3 and 4 (the 10001 group) were not handed in: untouched.
  EXPECT_FALSE(t.cell(3, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(4, 1).is_probabilistic());
}

TEST(FdRepairTest, IdempotentPerRule) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("phi: FD zip -> city", "cities", CitySchema()).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  const Cell snapshot = t.cell(1, 1);
  auto again = RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  EXPECT_EQ(again.tuples_repaired, 0u);  // skipped via provenance
  EXPECT_EQ(t.cell(1, 1), snapshot);
}

TEST(FdRepairTest, MultiAttributeLhs) {
  Schema s({{"a", ValueType::kInt},
            {"b", ValueType::kInt},
            {"c", ValueType::kString}});
  Table t("t", s);
  ASSERT_TRUE(t.AppendRow({Value(1), Value(2), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(2), Value("y")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(3), Value("x")}).ok());
  auto dc = ParseConstraint("FD a, b -> c", "t", s).ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  auto stats = RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  EXPECT_EQ(stats.violating_groups, 1u);
  // Rows 0 and 1 get rhs candidates {x, y}; lhs attr b of row 1 gets
  // candidates from tuples with c = 'y'... which is only itself -> clean;
  // lhs of row 0 from tuples with c='x': b in {2, 3}.
  ASSERT_TRUE(t.cell(0, 2).is_probabilistic());
  EXPECT_EQ(t.cell(0, 2).candidates().size(), 2u);
  EXPECT_TRUE(t.cell(0, 1).is_probabilistic());
  EXPECT_FALSE(t.cell(1, 1).is_probabilistic());
}

// Rows 0, 1, 2, 5 form the violating 9001 group and rows 3, 4 the 10001
// group; the San Francisco bucket {1, 3, 5} spans both zips.
Table SharedCitiesTable() {
  Table t = CitiesTable();
  EXPECT_TRUE(t.AppendRow({Value(9001), Value("San Francisco")}).ok());
  return t;
}

TEST(FdRepairTest, CellsOfOneDistributionShareOneSet) {
  Table t = SharedCitiesTable();
  auto dc = ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
                .ValueOrDie();
  const FdDeltaDetector index(&t, &dc);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, index, t.AllRowIds(), &prov);
  auto set = [&](RowId r, size_t c) { return t.cell(r, c).candidate_set(); };
  auto record = [&](RowId r, size_t c) {
    const std::vector<RepairRecord>* recs = prov.RecordsFor(r, c);
    EXPECT_NE(recs, nullptr);
    EXPECT_EQ(recs->size(), 1u);
    return recs->front();
  };

  // P(city | zip = 9001): one set and one sources object for the group.
  ASSERT_NE(set(0, 1), nullptr);
  for (RowId r : {1, 2, 5}) {
    EXPECT_EQ(set(r, 1), set(0, 1)) << r;
    EXPECT_EQ(record(r, 1).sources, record(0, 1).sources) << r;
    EXPECT_EQ(record(r, 1).conflicting_rows, record(0, 1).conflicting_rows);
  }
  // The 10001 group has its own.
  ASSERT_NE(set(3, 1), nullptr);
  EXPECT_EQ(set(4, 1), set(3, 1));
  EXPECT_NE(set(3, 1), set(0, 1));
  EXPECT_NE(record(3, 1).sources, record(0, 1).sources);

  // P(zip | city = San Francisco) across both groups: one set.
  ASSERT_NE(set(1, 0), nullptr);
  for (RowId r : {3, 5}) {
    EXPECT_EQ(set(r, 0), set(1, 0)) << r;
    EXPECT_EQ(record(r, 0).sources, record(1, 0).sources) << r;
  }
  // Sharing changes nothing a reader sees.
  EXPECT_EQ(t.cell(5, 1).MostProbable(), Value("Los Angeles"));
  EXPECT_EQ(t.cell(5, 1).candidates(), t.cell(0, 1).candidates());
}

TEST(FdRepairTest, MergedCellsOwnTheirSetUntilOneRecordIsLeft) {
  Table t = SharedCitiesTable();
  auto phi = ParseConstraint("phi: FD zip -> city", "cities", CitySchema())
                 .ValueOrDie();
  auto psi = ParseConstraint("psi: FD zip -> city", "cities", CitySchema())
                 .ValueOrDie();
  const FdDeltaDetector phi_index(&t, &phi);
  const FdDeltaDetector psi_index(&t, &psi);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, phi_index, t.AllRowIds(), &prov);
  const CandidateSetPtr phi_set = t.cell(0, 1).candidate_set();
  (void)RepairFdViolations(&t, psi_index, t.AllRowIds(), &prov);
  // Two records per cell: each cell derives a set of its own, equal in
  // content across the group.
  EXPECT_NE(t.cell(0, 1).candidate_set(), t.cell(2, 1).candidate_set());
  EXPECT_EQ(t.cell(0, 1), t.cell(2, 1));
  // Dropping psi leaves phi's shared sources alone: the cells share again.
  prov.DropRule(&t, "psi");
  for (RowId r : {0, 1, 2, 5}) {
    EXPECT_EQ(t.cell(r, 1).candidate_set(), t.cell(0, 1).candidate_set());
  }
  EXPECT_EQ(*t.cell(0, 1).candidate_set(), *phi_set);
}

TEST(ProvenanceTest, AppendSourcesCopiesSharedSources) {
  Table t("c", CitySchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("SF")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("LA")}).ok());
  ProvenanceStore prov;
  const SharedSources shared =
      ShareSources({{Value("SF"), 1.0, CandidateKind::kPoint}});
  prov.Record(&t, 0, 1, {"dc", 0, shared, {}});
  prov.Record(&t, 1, 1, {"dc", 0, shared, {}});
  EXPECT_EQ(t.cell(0, 1).candidate_set(), t.cell(1, 1).candidate_set());
  // Growing row 0's record must not touch row 1's, nor the shared list.
  prov.AppendSources(&t, 0, 1, "dc", 0,
                     {{Value("LA"), 1.0, CandidateKind::kPoint}}, {1});
  EXPECT_EQ(shared->size(), 1u);
  EXPECT_EQ(t.cell(0, 1).candidates().size(), 2u);
  EXPECT_EQ(t.cell(1, 1).candidates().size(), 1u);
  EXPECT_NE(prov.RecordsFor(0, 1)->front().sources, shared);
  EXPECT_EQ(prov.RecordsFor(1, 1)->front().sources, shared);
}

// ------------------------------------------------------------- DC repair --

TEST(DcRepairTest, Example5CandidateFixes) {
  // Paper Example 5: t2{3000, 0.2, 32}, t3{2000, 0.3, 43} violate
  // ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax) with t3 as t1.
  Schema s({{"salary", ValueType::kDouble},
            {"tax", ValueType::kDouble},
            {"age", ValueType::kInt}});
  Table t("emp", s);
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.1), Value(31)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.2), Value(32)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3), Value(43)}).ok());
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", s)
                .ValueOrDie();
  ProvenanceStore prov;
  auto stats =
      RepairDcViolations(&t, dc, {{2, 1}}, &prov).ValueOrDie();
  EXPECT_EQ(stats.violating_groups, 1u);

  // t2.salary: {3000 50%, <=2000 50%} — keep or drop below t3's salary.
  const Cell& salary2 = t.cell(1, 0);
  ASSERT_TRUE(salary2.is_probabilistic());
  ASSERT_EQ(salary2.candidates().size(), 2u);
  bool saw_point = false, saw_range = false;
  for (const Candidate& c : salary2.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    if (c.kind == CandidateKind::kPoint) {
      saw_point = true;
      EXPECT_EQ(c.value, Value(3000.0));
    } else {
      saw_range = true;
      EXPECT_EQ(c.kind, CandidateKind::kLessEq);
      EXPECT_EQ(c.value, Value(2000.0));
    }
  }
  EXPECT_TRUE(saw_point);
  EXPECT_TRUE(saw_range);

  // t2.tax: {0.2 50%, >=0.3 50%}.
  const Cell& tax2 = t.cell(1, 1);
  ASSERT_TRUE(tax2.is_probabilistic());
  bool saw_geq = false;
  for (const Candidate& c : tax2.candidates()) {
    if (c.kind == CandidateKind::kGreaterEq) {
      saw_geq = true;
      EXPECT_EQ(c.value, Value(0.3));
    }
  }
  EXPECT_TRUE(saw_geq);

  // t3 (the t1 side) gets the symmetric fixes: salary >= 3000, tax <= 0.2.
  const Cell& salary3 = t.cell(2, 0);
  ASSERT_TRUE(salary3.is_probabilistic());
  bool saw3 = false;
  for (const Candidate& c : salary3.candidates()) {
    if (c.kind == CandidateKind::kGreaterEq) {
      saw3 = true;
      EXPECT_EQ(c.value, Value(3000.0));
    }
  }
  EXPECT_TRUE(saw3);

  // age untouched.
  EXPECT_FALSE(t.cell(1, 2).is_probabilistic());

  // Every candidate can actually repair: MayEqual over the enforced range.
  EXPECT_TRUE(salary2.MayEqual(Value(1500.0)));
  EXPECT_FALSE(salary2.MayEqual(Value(2500.0)));
}

TEST(DcRepairTest, MultiplePairsAccumulateFrequencies) {
  Schema s({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}});
  Table t("emp", s);
  ASSERT_TRUE(t.AppendRow({Value(3000.0), Value(0.1), }).ok());
  ASSERT_TRUE(t.AppendRow({Value(1000.0), Value(0.2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2000.0), Value(0.3)}).ok());
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", s)
                .ValueOrDie();
  // Row 1 and row 2 both violate against row 0 (as t1).
  ProvenanceStore prov;
  (void)RepairDcViolations(&t, dc, {{1, 0}, {2, 0}}, &prov).ValueOrDie();
  // Row 0's salary cell accumulated two range fixes (<=1000, <=2000) that
  // consolidate to the tightest bound (<=1000, count 2) plus its original
  // (count 2): two candidates, equal frequency.
  const Cell& salary0 = t.cell(0, 0);
  ASSERT_TRUE(salary0.is_probabilistic());
  ASSERT_EQ(salary0.candidates().size(), 2u);
  EXPECT_EQ(salary0.MostProbable(), Value(3000.0));
  for (const Candidate& c : salary0.candidates()) {
    EXPECT_NEAR(c.prob, 0.5, 1e-12);
    if (c.kind != CandidateKind::kPoint) {
      EXPECT_EQ(c.kind, CandidateKind::kLessEq);
      EXPECT_EQ(c.value, Value(1000.0));  // tightest of {<=1000, <=2000}
    }
  }
}

TEST(DcRepairTest, RejectsFdInput) {
  Table t = CitiesTable();
  auto dc =
      ParseConstraint("FD zip -> city", "cities", CitySchema()).ValueOrDie();
  ProvenanceStore prov;
  EXPECT_FALSE(RepairDcViolations(&t, dc, {}, &prov).ok());
}

}  // namespace
}  // namespace daisy
