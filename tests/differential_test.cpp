// Differential test harness for the incremental ingest layer.
//
// A seed-driven generator produces random schemas, FD/DC rule sets, tables,
// and interleaved append/delete/query sequences. Two invariants are checked
// after every operation, across >= 100 seeds:
//
//  1. Delta-maintained detection state is bit-identical to from-scratch
//     detection: the theta-join detector's maintained violation set (kept
//     current via DetectDelta) equals a fresh DetectAll; the FD group state
//     (FdDeltaDetector) equals from-scratch grouping; its counters, dirty
//     pruning test and relaxation equal a fresh FdDeltaDetector's.
//
//  2. The detectors agree with the test oracles (detect_oracle.h): the
//     maintained theta-join set equals the ViolatedBy all-pairs set, and
//     FD detection equals the row-at-a-time grouping. A full DaisyEngine
//     driven through the same ingest + query sequence keeps its FD index
//     (groups, stats, relaxation) equal to a fresh build and the oracles
//     after every query, and finishes with CleanAllRemaining.
//
// The detector-level harness also runs with an exotic generator config
// (GenConfig::exotic): NaN, ±inf, −0.0 and nulls, int64 around 2^53,
// doubles beside wide ints and string columns, under DCs mixing order,
// cross-column and string-constant atoms — each seed with partition
// pruning on and off, through DetectAll, DetectIncremental batches and
// DetectDelta appends.
//
// A third check covers repairs: an FD-only engine's cells after the
// sequence and CleanAllRemaining equal those of a fresh engine cleaned
// over the final live rows. A fourth covers the adaptive switch: after the
// cost model fires, an engine under ingest answers like a twin that cleans
// everything before each query, and every checked row of a violating FD
// group holds the rule's record.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/rng.h"
#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "detect_oracle.h"
#include "storage/database.h"

namespace daisy {
namespace {

// ------------------------------------------------------------ generator --

/// What the generator draws. The default is the int / string scenario
/// every harness below uses. `exotic` (detector-level harness only) builds
/// the values the compiled comparisons must stay exact on: a double column
/// with ±inf, −0.0 and (on most seeds) NaN, an int column around 2^53, a
/// double column beside ints at and beyond 2^53, and two string columns,
/// all with nulls; its DCs mix order atoms on any column, cross-column
/// atoms and constant atoms, string-constant order atoms included.
struct GenConfig {
  bool exotic = false;
};

struct Scenario {
  bool exotic = false;
  bool nan = false;  ///< exotic: the double column holds NaN
  Schema schema;
  std::vector<std::string> int_cols;
  std::vector<std::string> str_cols;
  int64_t int_domain = 6;
  int64_t str_domain = 3;
  std::string fd_text;   // "phi: FD x -> y"
  std::string dc_text;   // "psi: !(t1.x < t2.x & t1.y > t2.y)"
  std::vector<std::vector<Value>> base_rows;
};

constexpr int64_t kTwo53 = int64_t{1} << 53;

// One cell of the exotic schema's column `c` (i, d, m, s, u).
Value ExoticValue(Rng* rng, const Scenario& s, size_t c) {
  if (rng->Bernoulli(0.1)) return Value::Null();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (c) {
    case 0: {
      static const int64_t kPool[] = {-3,         0,          2,
                                      7,          kTwo53 - 1, kTwo53,
                                      kTwo53 + 1, kTwo53 + 2, -kTwo53 - 1};
      return Value(kPool[rng->UniformInt(0, 8)]);
    }
    case 1: {
      if (s.nan && rng->Bernoulli(0.15)) {
        return Value(std::numeric_limits<double>::quiet_NaN());
      }
      static const double kPool[] = {-1.5, -0.0, 0.0, 2.0, 2.5, 7.0,
                                     kInf, -kInf};
      return Value(kPool[rng->UniformInt(0, 7)]);
    }
    case 2: {
      if (rng->Bernoulli(0.5)) return Value(kTwo53 + rng->UniformInt(-1, 2));
      static const double kPool[] = {0x1p53, 0x1p53 + 2, 2.5, -0.0};
      return Value(kPool[rng->UniformInt(0, 3)]);
    }
    default: {
      static const char* kPool[] = {"", "a", "b", "f", "m", "s1", "zz"};
      return Value(kPool[rng->UniformInt(0, 6)]);
    }
  }
}

std::vector<Value> RandomRow(Rng* rng, const Scenario& s) {
  std::vector<Value> row;
  for (size_t c = 0; c < s.schema.num_columns(); ++c) {
    if (s.exotic) {
      row.push_back(ExoticValue(rng, s, c));
    } else if (s.schema.column(c).type == ValueType::kInt) {
      row.push_back(Value(rng->UniformInt(0, s.int_domain)));
    } else {
      row.push_back(
          Value("s" + std::to_string(rng->UniformInt(0, s.str_domain))));
    }
  }
  return row;
}

// The exotic scenario: fixed schema, an FD over two random columns and a
// random DC whose first atom orders one column across the tuples.
Scenario MakeExoticScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.exotic = true;
  s.nan = rng.Bernoulli(0.7);
  s.schema = Schema({{"i", ValueType::kInt},
                     {"d", ValueType::kDouble},
                     {"m", ValueType::kDouble},
                     {"s", ValueType::kString},
                     {"u", ValueType::kString}});
  s.int_cols = {"i", "d", "m"};
  s.str_cols = {"s", "u"};
  static const char* kCols[] = {"i", "d", "m", "s", "u"};
  static const char* kOrder[] = {"<", "<=", ">", ">="};
  static const char* kOps[] = {"==", "!=", "<", "<=", ">", ">="};
  static const char* kConsts[] = {"'f'", "'m'", "''", "2.5", "-0.0",
                                  "9007199254740993", "0"};
  auto pick = [&](const char* const* pool, int64_t n) {
    return std::string(pool[rng.UniformInt(0, n - 1)]);
  };
  const std::string lhs = pick(kCols, 5);
  std::string rhs = pick(kCols, 5);
  while (rhs == lhs) rhs = pick(kCols, 5);
  s.fd_text = "phi: FD " + lhs + " -> " + rhs;
  const std::string x = pick(kCols, 5);
  const std::string y = pick(kCols, 5);
  const std::string z = rng.Bernoulli(0.5) ? y : pick(kCols, 5);
  s.dc_text = "psi: !(t1." + x + " " + pick(kOrder, 4) + " t2." + x +
              " & t1." + y + " " + pick(kOps, 6) + " t2." + z;
  if (rng.Bernoulli(0.6)) {
    // Half the constants are strings, on any column: string-constant
    // order atoms are the ones hash coordinates used to prune.
    s.dc_text += std::string(rng.Bernoulli(0.5) ? " & t1." : " & t2.") +
                 pick(kCols, 5) + " " + pick(kOps, 6) + " " +
                 pick(kConsts, 7);
  }
  s.dc_text += ")";
  const size_t base = static_cast<size_t>(rng.UniformInt(30, 80));
  for (size_t i = 0; i < base; ++i) s.base_rows.push_back(RandomRow(&rng, s));
  return s;
}

Scenario MakeScenario(uint64_t seed, const GenConfig& cfg = {}) {
  if (cfg.exotic) return MakeExoticScenario(seed);
  Rng rng(seed);
  Scenario s;
  const size_t num_cols = static_cast<size_t>(rng.UniformInt(3, 5));
  std::vector<Column> cols;
  for (size_t c = 0; c < num_cols; ++c) {
    // The first two columns are always ints (the order DC needs a numeric
    // pair); the rest flip a coin.
    const bool is_int = c < 2 || rng.Bernoulli(0.5);
    const std::string name = "c" + std::to_string(c);
    cols.push_back({name, is_int ? ValueType::kInt : ValueType::kString});
    (is_int ? s.int_cols : s.str_cols).push_back(name);
  }
  s.schema = Schema(cols);
  s.int_domain = rng.UniformInt(3, 12);
  s.str_domain = rng.UniformInt(1, 5);

  // FD over two distinct random columns.
  const size_t lhs = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_cols) - 1));
  size_t rhs = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(num_cols) - 2));
  if (rhs >= lhs) ++rhs;
  s.fd_text = "phi: FD " + s.schema.column(lhs).name + " -> " +
              s.schema.column(rhs).name;
  // Order DC over two distinct int columns (both are c0/c1 when only two).
  const std::string& x = s.int_cols[0];
  const std::string& y =
      s.int_cols[s.int_cols.size() > 1 ? 1 : 0] == x && s.int_cols.size() > 1
          ? s.int_cols[1]
          : s.int_cols[s.int_cols.size() > 1 ? 1 : 0];
  s.dc_text = "psi: !(t1." + x + " < t2." + x + " & t1." + y + " > t2." + y +
              ")";

  const size_t base = static_cast<size_t>(rng.UniformInt(30, 80));
  for (size_t i = 0; i < base; ++i) s.base_rows.push_back(RandomRow(&rng, s));
  return s;
}

Table BuildTable(const Scenario& s) {
  Table t("t", s.schema);
  for (const auto& row : s.base_rows) {
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

struct Op {
  enum class Kind { kAppend, kDelete, kQuery } kind = Kind::kQuery;
  std::vector<std::vector<Value>> rows;  // kAppend
  size_t delete_count = 0;               // kDelete (victims picked live)
  std::string sql;                       // kQuery
};

std::string RandomQuery(Rng* rng, const Scenario& s) {
  if (rng->Bernoulli(0.2)) return "SELECT * FROM t";
  std::string col, rhs;
  const bool use_int = s.str_cols.empty() || rng->Bernoulli(0.7);
  if (use_int) {
    col = s.int_cols[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(s.int_cols.size()) - 1))];
    rhs = std::to_string(rng->UniformInt(0, s.int_domain));
  } else {
    col = s.str_cols[static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(s.str_cols.size()) - 1))];
    rhs = "'s" + std::to_string(rng->UniformInt(0, s.str_domain)) + "'";
  }
  static const char* kOps[] = {"=", ">=", "<=", "<", ">"};
  const char* op =
      use_int ? kOps[rng->UniformInt(0, 4)] : "=";
  return "SELECT * FROM t WHERE " + col + " " + op + " " + rhs;
}

std::vector<Op> MakeOps(uint64_t seed, const Scenario& s) {
  Rng rng(seed ^ 0x5eedULL);
  std::vector<Op> ops;
  const size_t count = static_cast<size_t>(rng.UniformInt(6, 10));
  for (size_t i = 0; i < count; ++i) {
    Op op;
    const double dice = rng.UniformDouble(0, 1);
    if (dice < 0.40) {
      op.kind = Op::Kind::kAppend;
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 6));
      for (size_t j = 0; j < n; ++j) op.rows.push_back(RandomRow(&rng, s));
    } else if (dice < 0.65) {
      op.kind = Op::Kind::kDelete;
      op.delete_count = static_cast<size_t>(rng.UniformInt(1, 3));
    } else {
      op.kind = Op::Kind::kQuery;
      op.sql = RandomQuery(&rng, s);
    }
    ops.push_back(std::move(op));
  }
  // Always end with a query so the final state is exercised.
  Op last;
  last.kind = Op::Kind::kQuery;
  last.sql = "SELECT * FROM t";
  ops.push_back(std::move(last));
  return ops;
}

// Deterministic victim selection shared by every replica of a sequence.
std::vector<RowId> PickVictims(const Table& t, size_t count, uint64_t salt) {
  std::vector<RowId> live = t.AllRowIds();
  std::vector<RowId> victims;
  if (live.empty()) return victims;
  Rng rng(salt);
  count = std::min(count, live.size());
  std::vector<size_t> idx = rng.SampleWithoutReplacement(live.size(), count);
  for (size_t i : idx) victims.push_back(live[i]);
  std::sort(victims.begin(), victims.end());
  return victims;
}

// ----------------------------------------------------------- comparators --

std::vector<ViolationPair> Sorted(std::vector<ViolationPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------- detector-level differential --

// DetectIncremental over shuffled batches of the live rows: every pair a
// batch reports violates, and once every row was in a batch the reported
// and maintained sets are the oracle's.
void ExpectIncrementalBatchesExact(const Table& t, const DenialConstraint& dc,
                                   bool pruning, uint64_t salt) {
  ThetaJoinDetector inc(&t, &dc, 6);
  inc.set_pruning_enabled(pruning);
  const testutil::PairSet expected = testutil::BruteForce(t, dc);
  std::vector<RowId> live = t.AllRowIds();
  Rng rng(salt);
  rng.Shuffle(&live);
  const size_t step = std::max<size_t>(1, live.size() / 4);
  testutil::PairSet found;
  for (size_t begin = 0; begin < live.size(); begin += step) {
    std::vector<RowId> batch(
        live.begin() + begin,
        live.begin() + std::min(live.size(), begin + step));
    std::sort(batch.begin(), batch.end());
    for (const ViolationPair& v : inc.DetectIncremental(batch)) {
      found.insert({v.t1, v.t2});
    }
  }
  EXPECT_EQ(found, expected) << "incremental batches";
  EXPECT_EQ(testutil::AsSet(inc.maintained_violations()), expected);
}

// Pure detection (no repairs): maintained state vs from-scratch and vs the
// oracles, after every interleaved append/delete.
void RunDetectorDifferential(uint64_t seed, bool pruning,
                             const GenConfig& cfg = {}) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (pruning ? " pruned" : " unpruned"));
  const Scenario s = MakeScenario(seed, cfg);
  SCOPED_TRACE(s.fd_text + "; " + s.dc_text);
  Table t = BuildTable(s);
  const DenialConstraint fd =
      ParseConstraint(s.fd_text, "t", s.schema).ValueOrDie();
  const DenialConstraint dc =
      ParseConstraint(s.dc_text, "t", s.schema).ValueOrDie();
  ASSERT_TRUE(fd.IsFd());
  ASSERT_FALSE(dc.IsFd());

  ThetaJoinDetector theta(&t, &dc, 6);
  theta.set_pruning_enabled(pruning);
  EXPECT_EQ(testutil::AsSet(theta.DetectAll()), testutil::BruteForce(t, dc));
  ExpectIncrementalBatchesExact(t, dc, pruning, seed);
  FdDeltaDetector fd_state(&t, &fd);

  const std::vector<Op> ops = MakeOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    TableDelta delta;
    if (op.kind == Op::Kind::kAppend) {
      delta = t.AppendRows(op.rows).ValueOrDie();
    } else if (op.kind == Op::Kind::kDelete) {
      std::vector<RowId> victims = PickVictims(t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      delta = t.DeleteRows(victims).ValueOrDie();
    } else {
      continue;  // queries are the engine-level harness's concern
    }
    (void)theta.DetectDelta(delta);
    (void)fd_state.ApplyDelta(delta);

    // Delta-maintained == from-scratch.
    ThetaJoinDetector scratch(&t, &dc, 6);
    scratch.set_pruning_enabled(pruning);
    EXPECT_EQ(theta.maintained_violations(), Sorted(scratch.DetectAll()));
    // Detectors == oracles.
    EXPECT_EQ(testutil::AsSet(theta.maintained_violations()),
              testutil::BruteForce(t, dc));
    ExpectIncrementalBatchesExact(t, dc, pruning, seed + i);
    EXPECT_TRUE(testutil::SameFdGroups(
        fd_state.ViolatingGroups(),
        testutil::DetectFdViolationsRowPath(t, fd, t.AllRowIds(), false)));
    EXPECT_TRUE(testutil::MatchesFreshFdIndex(fd_state, t, fd, seed + i));
  }
}

// --------------------------------------------- engine-level differential --

// One full engine replays the ingest + query sequence; after every query
// its delta-maintained FD index must equal a fresh build and the oracles
// over the current data (repairs never change original values).
void RunEngineSequence(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s = MakeScenario(seed);
  Database db;
  ASSERT_TRUE(db.AddTable(BuildTable(s)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText(s.fd_text, "t", s.schema).ok());
  ASSERT_TRUE(rules.AddFromText(s.dc_text, "t", s.schema).ok());
  DaisyOptions options;
  options.mode = (seed % 2 == 0) ? DaisyOptions::Mode::kAdaptive
                                 : DaisyOptions::Mode::kIncremental;
  options.theta_partitions = 6;
  DaisyEngine engine(&db, std::move(rules), options);
  ASSERT_TRUE(engine.Prepare().ok());

  const std::vector<Op> ops = MakeOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const Op& op = ops[i];
    if (op.kind == Op::Kind::kAppend) {
      ASSERT_TRUE(engine.AppendRows("t", op.rows).ok());
    } else if (op.kind == Op::Kind::kDelete) {
      const Table* t = db.GetTable("t").ValueOrDie();
      std::vector<RowId> victims = PickVictims(*t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      ASSERT_TRUE(engine.DeleteRows("t", victims).ok());
    } else {
      ASSERT_TRUE(engine.Query(op.sql).ok()) << op.sql;
      const FdDeltaDetector* fd = engine.fd_index("phi");
      ASSERT_NE(fd, nullptr);
      EXPECT_TRUE(testutil::MatchesFreshFdIndex(
          *fd, *db.GetTable("t").ValueOrDie(),
          *engine.constraints().FindByName("phi").ValueOrDie(), seed + i))
          << op.sql;
    }
  }
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
}

// ------------------------------------- maintained == from-scratch repair --

// An FD-only engine replays the sequence and cleans everything left; every
// live cell must then equal the cell of a fresh engine loaded with the
// live rows (id order) and cleaned the same way — the candidates of a
// repair maintained across ingest are those of cleaning the final data.
void RunFdRepairSequence(uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s = MakeScenario(seed);
  Database db;
  ASSERT_TRUE(db.AddTable(BuildTable(s)).ok());
  ConstraintSet rules;
  ASSERT_TRUE(rules.AddFromText(s.fd_text, "t", s.schema).ok());
  DaisyOptions options;
  options.mode = (seed % 2 == 0) ? DaisyOptions::Mode::kAdaptive
                                 : DaisyOptions::Mode::kIncremental;
  DaisyEngine engine(&db, std::move(rules), options);
  ASSERT_TRUE(engine.Prepare().ok());
  const Table& t = *db.GetTable("t").ValueOrDie();

  const std::vector<Op> ops = MakeOps(seed, s);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::Kind::kAppend) {
      ASSERT_TRUE(engine.AppendRows("t", op.rows).ok());
    } else if (op.kind == Op::Kind::kDelete) {
      std::vector<RowId> victims = PickVictims(t, op.delete_count, seed + i);
      if (victims.empty()) continue;
      ASSERT_TRUE(engine.DeleteRows("t", victims).ok());
    } else {
      ASSERT_TRUE(engine.Query(op.sql).ok()) << op.sql;
    }
  }
  ASSERT_TRUE(engine.CleanAllRemaining().ok());

  const std::vector<RowId> live = t.AllRowIds();
  Database fresh_db;
  Table fresh_t("t", s.schema);
  for (RowId r : live) {
    std::vector<Value> row;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.cell(r, c).original());
    }
    ASSERT_TRUE(fresh_t.AppendRow(row).ok());
  }
  ASSERT_TRUE(fresh_db.AddTable(std::move(fresh_t)).ok());
  ConstraintSet fresh_rules;
  ASSERT_TRUE(fresh_rules.AddFromText(s.fd_text, "t", s.schema).ok());
  DaisyEngine fresh(&fresh_db, std::move(fresh_rules), options);
  ASSERT_TRUE(fresh.Prepare().ok());
  ASSERT_TRUE(fresh.CleanAllRemaining().ok());

  const Table& f = *fresh_db.GetTable("t").ValueOrDie();
  size_t differing = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (!(t.cell(live[i], c) == f.cell(i, c))) ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << "cells differ from a from-scratch clean";
}

// ------------------------------------ post-switch == clean-all-first --

// The checked => recorded invariant the switch sweep relies on: every
// checked live row of a violating group of FD `rule` holds its record.
void ExpectCheckedRowsRecorded(const DaisyEngine& engine, const Table& t,
                               const std::string& rule) {
  const FdDeltaDetector* fd = engine.fd_index(rule);
  const CleanSelect* op = engine.clean_select(rule);
  const ProvenanceStore* prov = engine.provenance("t");
  ASSERT_NE(fd, nullptr);
  ASSERT_NE(op, nullptr);
  ASSERT_NE(prov, nullptr);
  const size_t rhs = fd->dc().fd().rhs;
  size_t missing = 0;
  for (RowId r : t.AllRowIds()) {
    const FdDeltaDetector::Group* group = fd->GroupOf(r);
    if (op->checked(r) && group != nullptr && group->violating() &&
        !prov->HasRecord(r, rhs, rule)) {
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0u) << "checked rows of violating groups unrepaired";
}

size_t CountDifferingCells(const Table& a, const Table& b,
                           const std::vector<RowId>& rows) {
  size_t differing = 0;
  for (RowId r : rows) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.cell(r, c) == b.cell(r, c))) ++differing;
    }
  }
  return differing;
}

size_t CountDifferingAnswers(const QueryOutput& a, const QueryOutput& b) {
  if (a.result.num_rows() != b.result.num_rows()) return 1;
  std::vector<RowId> rows(a.result.num_rows());
  for (RowId r = 0; r < rows.size(); ++r) rows[r] = r;
  return CountDifferingCells(a.result, b.result, rows);
}

// One rule (the scenario's FD or its order DC) in adaptive mode, queried
// until the cost model switches to full cleaning, then 20 rounds of an
// append or delete plus a query. A twin engine runs the same operations
// but cleans everything before each query. From the switching query on,
// every answer and, at the end, every live cell must be the twin's: the
// sweep over the unchecked rows and the re-filter of the swept rows lose
// nothing a whole-table sweep and re-filter would find.
void RunPostSwitchSequence(uint64_t seed, bool fd_rule) {
  SCOPED_TRACE("seed " + std::to_string(seed) + (fd_rule ? " fd" : " dc"));
  const Scenario s = MakeScenario(seed);
  const std::string rule = fd_rule ? "phi" : "psi";
  DaisyOptions options;
  options.mode = DaisyOptions::Mode::kAdaptive;
  options.theta_partitions = 6;
  // No Algorithm 2 fallback: a DC query detects incrementally, so its rule
  // stays partly unchecked until the cost model fires.
  options.accuracy_threshold = 0.0;
  Database db;
  Database twin_db;
  ASSERT_TRUE(db.AddTable(BuildTable(s)).ok());
  ASSERT_TRUE(twin_db.AddTable(BuildTable(s)).ok());
  auto make_rules = [&]() {
    ConstraintSet rules;
    EXPECT_TRUE(
        rules.AddFromText(fd_rule ? s.fd_text : s.dc_text, "t", s.schema)
            .ok());
    return rules;
  };
  DaisyEngine engine(&db, make_rules(), options);
  DaisyEngine twin(&twin_db, make_rules(), options);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(twin.Prepare().ok());
  const Table& t = *db.GetTable("t").ValueOrDie();
  const Table& twin_t = *twin_db.GetTable("t").ValueOrDie();

  Rng rng(seed ^ 0x5717c4ULL);
  auto check_invariant = [&]() {
    if (fd_rule) ExpectCheckedRowsRecorded(engine, t, rule);
  };
  // Returns whether the query switched; compares answers once `compare`
  // (and on the switching query). A whole-table query would check every
  // row incrementally and leave the cost model nothing to switch.
  auto query = [&](bool compare) {
    std::string sql = RandomQuery(&rng, s);
    if (sql == "SELECT * FROM t") sql += " WHERE c0 = 0";
    auto report = engine.Query(sql);
    EXPECT_TRUE(report.ok()) << sql;
    EXPECT_TRUE(twin.CleanAllRemaining().ok());
    auto twin_report = twin.Query(sql);
    EXPECT_TRUE(twin_report.ok()) << sql;
    check_invariant();
    if (!report.ok() || !twin_report.ok()) return false;
    const bool switched = report.value().switched_to_full;
    if (compare || switched) {
      EXPECT_EQ(CountDifferingAnswers(report.value().output,
                                      twin_report.value().output),
                0u)
          << sql;
    }
    return switched;
  };
  auto append = [&]() {
    std::vector<std::vector<Value>> rows;
    const int64_t n = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < n; ++i) rows.push_back(RandomRow(&rng, s));
    EXPECT_TRUE(engine.AppendRows("t", rows).ok());
    EXPECT_TRUE(twin.AppendRows("t", rows).ok());
    check_invariant();
  };

  // Incremental queries (and, when a rule has checked everything, an
  // arrival to leave it work) until the cost model switches.
  bool switched = false;
  for (size_t i = 0; i < 200 && !switched; ++i) {
    if (engine.RuleFullyChecked(rule).ValueOrDie()) append();
    switched = query(/*compare=*/false);
  }
  ASSERT_TRUE(switched) << "the cost model never switched";

  for (size_t round = 0; round < 20; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (rng.Bernoulli(0.6)) {
      append();
    } else {
      std::vector<RowId> victims =
          PickVictims(t, static_cast<size_t>(rng.UniformInt(1, 2)),
                      seed * 100 + round);
      if (!victims.empty()) {
        EXPECT_TRUE(engine.DeleteRows("t", victims).ok());
        EXPECT_TRUE(twin.DeleteRows("t", victims).ok());
        check_invariant();
      }
    }
    (void)query(/*compare=*/true);
  }
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  ASSERT_TRUE(twin.CleanAllRemaining().ok());
  EXPECT_EQ(CountDifferingCells(t, twin_t, t.AllRowIds()), 0u)
      << "final cells differ from the clean-all-first twin";
}

TEST(DifferentialTest, DetectorStateAcross100Seeds) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RunDetectorDifferential(seed, /*pruning=*/true);
    RunDetectorDifferential(seed, /*pruning=*/false);
  }
}

TEST(DifferentialTest, DetectorStateExoticValuesAcross100Seeds) {
  GenConfig cfg;
  cfg.exotic = true;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RunDetectorDifferential(seed, /*pruning=*/true, cfg);
    RunDetectorDifferential(seed, /*pruning=*/false, cfg);
  }
}

TEST(DifferentialTest, EngineSequencesAcross100Seeds) {
  for (uint64_t seed = 1; seed <= 100; ++seed) RunEngineSequence(seed);
}

TEST(DifferentialTest, MaintainedFdRepairsEqualFromScratchAcross100Seeds) {
  for (uint64_t seed = 1; seed <= 100; ++seed) RunFdRepairSequence(seed);
}

TEST(DifferentialTest, PostSwitchFdEqualsCleanAllFirstAcross60Seeds) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunPostSwitchSequence(seed, /*fd_rule=*/true);
  }
}

TEST(DifferentialTest, PostSwitchDcEqualsCleanAllFirstAcross60Seeds) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunPostSwitchSequence(seed, /*fd_rule=*/false);
  }
}

}  // namespace
}  // namespace daisy
