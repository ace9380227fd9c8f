// Resource-governed query execution: deadlines, output row limits, and
// cooperative cancellation threaded through the operator tree (ExecLimits /
// ExecContext::CheckResources).
//
// The centerpiece is the monotone-prefix differential: using the
// deterministic trip_after_checks hook, one fixed cleaning query is cut at
// EVERY serial resource boundary in turn, and after each cut the table
// content must equal one of the rule-prefix reference states — untouched,
// phi cleaned, or phi+psi cleaned — with the matched prefix only ever
// growing as the cut moves later. Re-running the query without limits must
// then converge the cut engine onto the fully-cleaned state (cleaning is
// idempotent and confluent).
//
// The trip sweep doubles as cut-site coverage: across plan shapes the
// recorded cut_node labels must span Scan, CleanSelect, a join, and the
// output node.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"
#include "persist_test_util.h"
#include "storage/database.h"

namespace daisy {
namespace {

using testutil::ExpectEnginesEquivalent;
using testutil::ExpectTablesEqual;
using testutil::ValueExactEq;

Schema EmpSchema() {
  return Schema({{"zip", ValueType::kInt},
                 {"city", ValueType::kString},
                 {"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble}});
}

// Violations on both rules: zip 1 disagrees on city (FD phi, city column);
// rows 5/6 break salary/tax monotonicity (DC psi, salary+tax columns). The
// two rules repair disjoint columns, so "phi cleaned" and "phi+psi
// cleaned" are well-defined intermediate table states.
std::vector<std::vector<Value>> EmpRows() {
  return {
      {Value(int64_t{1}), Value("LA"), Value(1000.0), Value(0.005)},
      {Value(int64_t{1}), Value("LA"), Value(1100.0), Value(0.0055)},
      {Value(int64_t{1}), Value("SF"), Value(1200.0), Value(0.006)},
      {Value(int64_t{2}), Value("NY"), Value(2000.0), Value(0.01)},
      {Value(int64_t{2}), Value("NY"), Value(2100.0), Value(0.0105)},
      {Value(int64_t{3}), Value("SEA"), Value(3000.0), Value(0.4)},
      {Value(int64_t{3}), Value("SEA"), Value(3500.0), Value(0.0175)},
      {Value(int64_t{4}), Value("AUS"), Value(4000.0), Value(0.02)},
  };
}

struct RunState {
  Database db;
  std::unique_ptr<DaisyEngine> engine;
};

/// emp under the requested rules plus a dept table for join shapes.
/// `rules` picks a prefix of {phi, psi} for the monotone references.
void BuildEngine(RunState* run, const std::vector<std::string>& rule_texts,
                 DaisyOptions options = {}) {
  Table emp("emp", EmpSchema());
  for (const std::vector<Value>& row : EmpRows()) {
    ASSERT_TRUE(emp.AppendRow(row).ok());
  }
  ASSERT_TRUE(run->db.AddTable(std::move(emp)).ok());
  Table dept("dept",
             Schema({{"zip", ValueType::kInt}, {"dept_name", ValueType::kString}}));
  ASSERT_TRUE(dept.AppendRow({Value(int64_t{1}), Value("eng")}).ok());
  ASSERT_TRUE(dept.AppendRow({Value(int64_t{2}), Value("sales")}).ok());
  ASSERT_TRUE(dept.AppendRow({Value(int64_t{3}), Value("ops")}).ok());
  ASSERT_TRUE(run->db.AddTable(std::move(dept)).ok());

  ConstraintSet rules;
  const Schema schema = EmpSchema();
  for (const std::string& text : rule_texts) {
    ASSERT_TRUE(rules.AddFromText(text, "emp", schema).ok());
  }
  run->engine = std::make_unique<DaisyEngine>(&run->db, std::move(rules),
                                              options);
  ASSERT_TRUE(run->engine->Prepare().ok());
}

const char kPhi[] = "phi: FD zip -> city";
const char kPsi[] = "psi: !(t1.salary < t2.salary & t1.tax > t2.tax)";

void BuildBothRules(RunState* run, DaisyOptions options = {}) {
  BuildEngine(run, {kPhi, kPsi}, options);
}

const std::vector<std::string> kProbeQueries = {
    "SELECT * FROM emp WHERE zip == 1",
    "SELECT city FROM emp WHERE salary > 1800",
    "SELECT zip, COUNT(*) FROM emp GROUP BY zip",
};

const Table* GetEmp(Database* db) {
  Result<Table*> t = db->GetTable("emp");
  EXPECT_TRUE(t.ok()) << t.status();
  return t.ok() ? t.value() : nullptr;
}

/// Non-fatal table-content equality (current cell values, candidates,
/// liveness) so the monotone differential can test membership in a set of
/// reference states.
bool TablesMatch(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.is_live(r) != b.is_live(r)) return false;
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const Cell& ca = a.cell(r, c);
      const Cell& cb = b.cell(r, c);
      if (!ValueExactEq(ca.original(), cb.original())) return false;
      if (ca.candidates().size() != cb.candidates().size()) return false;
      for (size_t i = 0; i < ca.candidates().size(); ++i) {
        if (!ValueExactEq(ca.candidates()[i].value, cb.candidates()[i].value))
          return false;
        if (ca.candidates()[i].prob != cb.candidates()[i].prob) return false;
      }
    }
  }
  return true;
}

TEST(Timeout, ZeroBudgetCutsAtFirstBoundary) {
  RunState run;
  BuildBothRules(&run);
  QueryLimits limits;
  limits.timeout_ms = 0;
  Result<QueryReport> r =
      run.engine->Query("SELECT * FROM emp WHERE zip == 1", limits);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().termination, QueryTermination::kTimeout);
  EXPECT_FALSE(r.value().cut_node.empty());
  EXPECT_EQ(r.value().output.result.num_rows(), 0u);  // cut = no output
  EXPECT_GT(r.value().resource_checks, 0u);
}

TEST(Timeout, CutsMultiBatchFilter) {
  // Ten 1024-row batches through the compiled Filter: the expired deadline
  // cuts the pull at its first boundary check, and the engine still
  // serves the same query in full afterwards.
  RunState run;
  Table big("big", Schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}}));
  for (int64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(
        big.AppendRow({Value(i), Value(static_cast<double>(i % 97))}).ok());
  }
  ASSERT_TRUE(run.db.AddTable(std::move(big)).ok());
  run.engine = std::make_unique<DaisyEngine>(&run.db, ConstraintSet{});
  ASSERT_TRUE(run.engine->Prepare().ok());

  QueryLimits limits;
  limits.timeout_ms = 0;
  Result<QueryReport> r =
      run.engine->Query("SELECT k FROM big WHERE x > 50", limits);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().termination, QueryTermination::kTimeout);
  EXPECT_FALSE(r.value().cut_node.empty());

  // Unlimited rerun on the same engine completes normally.
  Result<QueryReport> full = run.engine->Query("SELECT k FROM big WHERE x > 50");
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full.value().termination, QueryTermination::kComplete);
  EXPECT_GT(full.value().output.result.num_rows(), 0u);
}

TEST(Cancel, PresetFlagCancelsBeforeAnyWork) {
  RunState run;
  BuildBothRules(&run);
  std::atomic<bool> cancel{true};
  QueryLimits limits;
  limits.cancel = &cancel;
  Result<QueryReport> r =
      run.engine->Query("SELECT * FROM emp WHERE zip == 1", limits);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().termination, QueryTermination::kCancelled);
  EXPECT_EQ(r.value().output.result.num_rows(), 0u);
  // No rule ran before the first boundary: table content untouched.
  RunState ref;
  BuildBothRules(&ref);
  EXPECT_TRUE(TablesMatch(*GetEmp(&run.db), *GetEmp(&ref.db)));
}

// Sweeping trip_after_checks over every serial boundary of several plan
// shapes: each cut must be reported as kCancelled with the cutting node's
// label, and across the sweep the cut sites must cover every governed
// operator kind.
TEST(TripSweep, CutsEveryBoundaryAndCoversAllNodeKinds) {
  const std::vector<std::string> shapes = {
      "SELECT * FROM emp WHERE zip == 1",
      "SELECT * FROM emp WHERE salary > 1500",
      "SELECT emp.city, dept.dept_name FROM emp, dept WHERE emp.zip == dept.zip",
      "SELECT zip, COUNT(*) FROM emp WHERE tax > 0.001 GROUP BY zip",
  };
  std::set<std::string> cut_labels;
  for (const std::string& sql : shapes) {
    SCOPED_TRACE(sql);
    uint64_t total_checks = 0;
    {
      RunState probe;
      BuildBothRules(&probe);
      Result<QueryReport> full = probe.engine->Query(sql);
      ASSERT_TRUE(full.ok()) << full.status();
      EXPECT_EQ(full.value().termination, QueryTermination::kComplete);
      total_checks = full.value().resource_checks;
      ASSERT_GT(total_checks, 0u);
    }
    for (uint64_t k = 1; k <= total_checks; ++k) {
      SCOPED_TRACE("trip at check " + std::to_string(k));
      RunState run;  // fresh engine: identical boundary sequence per k
      BuildBothRules(&run);
      QueryLimits limits;
      limits.trip_after_checks = k;
      Result<QueryReport> r = run.engine->Query(sql, limits);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r.value().termination, QueryTermination::kCancelled);
      EXPECT_EQ(r.value().resource_checks, k);
      ASSERT_FALSE(r.value().cut_node.empty());
      cut_labels.insert(r.value().cut_node);
    }
  }
  // The Filter is not a boundary site: in the pull its checks live in the
  // Scan below it.
  auto covered = [&](const std::string& prefix) {
    for (const std::string& label : cut_labels) {
      if (label.compare(0, prefix.size(), prefix) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(covered("Scan ["));
  EXPECT_TRUE(covered("CleanSelect ["));
  EXPECT_TRUE(covered("HashJoin [") || covered("CleanJoin ["))
      << "no join cut site recorded";
  EXPECT_TRUE(covered("Project [") || covered("Aggregate ["))
      << "no output-node cut site recorded";
}

// A row limit truncates the output only: the cleaning state it leaves
// behind is bit-identical to the unlimited twin's, and the report says
// kRowLimit with the output node as the cut site.
TEST(RowLimit, TruncatesOutputButCompletesCleaning) {
  const std::vector<std::string> shapes = {
      "SELECT * FROM emp WHERE zip == 1",
      "SELECT emp.city, dept.dept_name FROM emp, dept WHERE emp.zip == dept.zip",
      "SELECT zip, COUNT(*) FROM emp GROUP BY zip",
  };
  for (const std::string& sql : shapes) {
    SCOPED_TRACE(sql);
    RunState limited_run;
    BuildBothRules(&limited_run);
    RunState full_run;
    BuildBothRules(&full_run);

    QueryLimits limits;
    limits.row_limit = 1;
    Result<QueryReport> limited = limited_run.engine->Query(sql, limits);
    Result<QueryReport> full = full_run.engine->Query(sql);
    ASSERT_TRUE(limited.ok()) << limited.status();
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_GT(full.value().output.result.num_rows(), 1u);

    EXPECT_EQ(limited.value().termination, QueryTermination::kRowLimit);
    EXPECT_EQ(limited.value().output.result.num_rows(), 1u);
    EXPECT_EQ(full.value().termination, QueryTermination::kComplete);

    // Identical cleaning work...
    EXPECT_EQ(limited.value().errors_fixed, full.value().errors_fixed);
    EXPECT_EQ(limited.value().rules_applied, full.value().rules_applied);
    EXPECT_EQ(limited.value().extra_tuples, full.value().extra_tuples);
    // ...and identical post-query engine state.
    ExpectEnginesEquivalent(limited_run.engine.get(), full_run.engine.get(),
                            kProbeQueries);
  }
}

// The monotone-prefix differential (see file comment). Plan rule order is
// phi then psi (rules execute in name order up the cascade), so the legal
// cut states are exactly: base, phi-cleaned, phi+psi-cleaned.
TEST(MonotonePrefix, CutStatesAreRulePrefixesAndConverge) {
  const std::string sql = "SELECT * FROM emp";

  // Reference states for the emp table content.
  RunState base_ref;
  BuildBothRules(&base_ref);  // never queried
  RunState phi_ref;
  BuildEngine(&phi_ref, {kPhi});
  ASSERT_TRUE(phi_ref.engine->Query(sql).ok());
  RunState both_ref;
  BuildBothRules(&both_ref);
  ASSERT_TRUE(both_ref.engine->Query(sql).ok());
  const std::vector<const Table*> references = {
      GetEmp(&base_ref.db), GetEmp(&phi_ref.db), GetEmp(&both_ref.db)};
  for (const Table* t : references) ASSERT_NE(t, nullptr);
  // The references are genuinely distinct — both rules repair something.
  ASSERT_FALSE(TablesMatch(*references[0], *references[1]));
  ASSERT_FALSE(TablesMatch(*references[1], *references[2]));

  uint64_t total_checks = 0;
  {
    RunState probe;
    BuildBothRules(&probe);
    Result<QueryReport> full = probe.engine->Query(sql);
    ASSERT_TRUE(full.ok()) << full.status();
    total_checks = full.value().resource_checks;
    ASSERT_GT(total_checks, 0u);
  }

  int last_match = 0;
  for (uint64_t k = 1; k <= total_checks; ++k) {
    SCOPED_TRACE("trip at check " + std::to_string(k));
    RunState run;
    BuildBothRules(&run);
    QueryLimits limits;
    limits.trip_after_checks = k;
    Result<QueryReport> r = run.engine->Query(sql, limits);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r.value().termination, QueryTermination::kCancelled);

    const Table* cut_table = GetEmp(&run.db);
    ASSERT_NE(cut_table, nullptr);
    int match = -1;
    for (size_t i = 0; i < references.size(); ++i) {
      if (TablesMatch(*cut_table, *references[i])) {
        match = static_cast<int>(i);
        break;
      }
    }
    ASSERT_GE(match, 0)
        << "cut state at boundary " << k
        << " is not a rule prefix of the full cleaning (cut at "
        << r.value().cut_node << ")";
    // Later cuts never regress to an earlier prefix.
    EXPECT_GE(match, last_match) << "cut at " << r.value().cut_node;
    last_match = match;

    // Convergence: re-running without limits lands the cut engine exactly
    // on the fully-cleaned state.
    Result<QueryReport> rerun = run.engine->Query(sql);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    EXPECT_EQ(rerun.value().termination, QueryTermination::kComplete);
    ExpectTablesEqual(*GetEmp(&run.db), *references[2]);
  }
  // The sweep reached the final prefix (a cut after psi's boundary).
  EXPECT_EQ(last_match, 2);
}

TEST(ExplainAnalyze, MarksCutNode) {
  RunState run;
  BuildBothRules(&run);
  QueryLimits limits;
  limits.timeout_ms = 0;
  Result<std::string> plan =
      run.engine->ExplainAnalyze("SELECT * FROM emp WHERE zip == 1", limits);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan.value().find("cut=timeout"), std::string::npos)
      << plan.value();

  std::atomic<bool> cancel{true};
  QueryLimits cancel_limits;
  cancel_limits.cancel = &cancel;
  Result<std::string> cancelled = run.engine->ExplainAnalyze(
      "SELECT * FROM emp WHERE zip == 1", cancel_limits);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status();
  EXPECT_NE(cancelled.value().find("cut=cancelled"), std::string::npos)
      << cancelled.value();
}

TEST(Reports, UnlimitedQueryCountsChecksButNeverCuts) {
  RunState run;
  BuildBothRules(&run);
  Result<QueryReport> r = run.engine->Query("SELECT * FROM emp WHERE zip == 1");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value().termination, QueryTermination::kComplete);
  EXPECT_TRUE(r.value().cut_node.empty());
  EXPECT_GT(r.value().resource_checks, 0u);
}

}  // namespace
}  // namespace daisy
