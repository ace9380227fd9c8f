// Concurrency stress harness for the engine's reader/writer protocol.
//
// N client threads drive one DaisyEngine with a mixed workload — queries,
// AppendRows, DeleteRows — while the engine serves quiescent-plan queries
// concurrently under its shared lock and serializes everything that
// mutates cleaning state behind the writer lock. The serial-equivalence
// contract is checked exactly:
//
//  * every operation that consumed a writer slot carries its epoch (its
//    position in the writer order); every shared-path read carries the
//    epoch it observed;
//  * replaying all recorded operations on a fresh engine in epoch order
//    (readers between the writer they observed and the next) reproduces
//    every query output, every counter, every ingest delta, and the final
//    repaired table bit for bit, for thread counts 2/4/8 across >= 20
//    seeds.
//
// Plus: a TSAN-targeted mini-stress of pure shared-path readers (maximal
// read overlap, zero writers) and snapshot/epoch unit checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/rng.h"
#include "storage/database.h"

namespace daisy {
namespace {

// ------------------------------------------------------------ generator --

const Schema& TestSchema() {
  static const Schema schema({{"a", ValueType::kInt},
                              {"b", ValueType::kInt},
                              {"s", ValueType::kString}});
  return schema;
}

constexpr int64_t kIntDomain = 8;
constexpr int64_t kStrDomain = 3;

std::vector<Value> RandomRow(Rng* rng) {
  return {Value(rng->UniformInt(0, kIntDomain)),
          Value(rng->UniformInt(0, kIntDomain)),
          Value("s" + std::to_string(rng->UniformInt(0, kStrDomain)))};
}

Table BaseTable(uint64_t seed) {
  Rng rng(seed);
  Table t("t", TestSchema());
  const size_t n = static_cast<size_t>(rng.UniformInt(30, 60));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow(RandomRow(&rng)).ok());
  }
  return t;
}

std::string RandomQuery(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return "SELECT * FROM t";
    case 1:
      return "SELECT a, b FROM t WHERE a >= " +
             std::to_string(rng->UniformInt(0, kIntDomain));
    case 2:
      return "SELECT * FROM t WHERE b < " +
             std::to_string(rng->UniformInt(1, kIntDomain));
    case 3:
      return "SELECT s, b FROM t WHERE s = 's" +
             std::to_string(rng->UniformInt(0, kStrDomain)) + "'";
    default:
      return "SELECT * FROM t WHERE a = " +
             std::to_string(rng->UniformInt(0, kIntDomain));
  }
}

struct PlannedOp {
  enum class Kind { kQuery, kAppend, kDelete } kind = Kind::kQuery;
  std::string sql;
  std::vector<std::vector<Value>> rows;
  size_t delete_count = 0;
};

// Each thread's op sequence is fixed up front; only delete victims are
// resolved at runtime (a thread deletes rows it appended itself, so no two
// threads ever contend for the same victim and every ingest call succeeds).
std::vector<PlannedOp> PlanThreadOps(uint64_t seed, size_t thread_idx) {
  Rng rng(seed * 1315423911ULL + thread_idx * 2654435761ULL + 17);
  std::vector<PlannedOp> ops;
  const size_t count = static_cast<size_t>(rng.UniformInt(6, 9));
  for (size_t i = 0; i < count; ++i) {
    PlannedOp op;
    const double dice = rng.UniformDouble(0, 1);
    if (dice < 0.30) {
      op.kind = PlannedOp::Kind::kAppend;
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
      for (size_t j = 0; j < n; ++j) op.rows.push_back(RandomRow(&rng));
    } else if (dice < 0.45) {
      op.kind = PlannedOp::Kind::kDelete;
      op.delete_count = static_cast<size_t>(rng.UniformInt(1, 2));
    } else {
      op.kind = PlannedOp::Kind::kQuery;
      op.sql = RandomQuery(&rng);
    }
    ops.push_back(std::move(op));
  }
  // A tail of pure queries: once the writers settle, these overlap on the
  // shared read path.
  for (size_t i = 0; i < 3; ++i) {
    PlannedOp op;
    op.kind = PlannedOp::Kind::kQuery;
    op.sql = RandomQuery(&rng);
    ops.push_back(std::move(op));
  }
  return ops;
}

// ------------------------------------------------------------- recording --

struct Record {
  PlannedOp::Kind kind = PlannedOp::Kind::kQuery;
  std::string sql;
  std::vector<std::vector<Value>> rows;  // append payload
  std::vector<RowId> victims;            // delete payload (resolved ids)
  uint64_t epoch = 0;
  bool read_path = false;  // queries only; ingest is always a writer
  QueryReport report;      // queries
  TableDelta delta;        // ingest
};

std::unique_ptr<DaisyEngine> MakeEngine(Database* db, uint64_t seed) {
  ConstraintSet rules;
  EXPECT_TRUE(
      rules.AddFromText("phi: FD s -> b", "t", TestSchema()).ok());
  EXPECT_TRUE(rules
                  .AddFromText("psi: !(t1.a < t2.a & t1.b > t2.b)", "t",
                               TestSchema())
                  .ok());
  DaisyOptions options;
  options.mode = (seed % 2 == 0) ? DaisyOptions::Mode::kAdaptive
                                 : DaisyOptions::Mode::kIncremental;
  options.theta_partitions = 6;
  auto engine = std::make_unique<DaisyEngine>(db, std::move(rules), options);
  EXPECT_TRUE(engine->Prepare().ok());
  return engine;
}

// Worker body: no gtest assertions off the main thread — failures are
// reported through `error`.
void RunWorker(DaisyEngine* engine, const std::vector<PlannedOp>& ops,
               std::vector<Record>* out, std::string* error) {
  std::vector<RowId> my_live;  // rows this thread appended, not yet deleted
  for (const PlannedOp& op : ops) {
    Record rec;
    rec.kind = op.kind;
    if (op.kind == PlannedOp::Kind::kQuery) {
      rec.sql = op.sql;
      Result<QueryReport> r = engine->Query(op.sql);
      if (!r.ok()) {
        *error = "Query '" + op.sql + "': " + r.status().ToString();
        return;
      }
      rec.report = std::move(r).value();
      rec.epoch = rec.report.epoch;
      rec.read_path = rec.report.read_path;
    } else if (op.kind == PlannedOp::Kind::kAppend) {
      rec.rows = op.rows;
      Result<TableDelta> r = engine->AppendRows("t", op.rows);
      if (!r.ok()) {
        *error = "AppendRows: " + r.status().ToString();
        return;
      }
      rec.delta = std::move(r).value();
      rec.epoch = rec.delta.engine_epoch;
      my_live.insert(my_live.end(), rec.delta.appended.begin(),
                     rec.delta.appended.end());
    } else {
      const size_t n = std::min(op.delete_count, my_live.size());
      if (n == 0) continue;  // nothing of ours left to delete
      rec.victims.assign(my_live.begin(), my_live.begin() + n);
      my_live.erase(my_live.begin(), my_live.begin() + n);
      Result<TableDelta> r = engine->DeleteRows("t", rec.victims);
      if (!r.ok()) {
        *error = "DeleteRows: " + r.status().ToString();
        return;
      }
      rec.delta = std::move(r).value();
      rec.epoch = rec.delta.engine_epoch;
    }
    out->push_back(std::move(rec));
  }
}

// ------------------------------------------------------------ comparison --

::testing::AssertionResult SameTables(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "shape " << a.num_rows() << "x" << a.num_columns() << " vs "
           << b.num_rows() << "x" << b.num_columns();
  }
  for (RowId r = 0; r < a.num_rows(); ++r) {
    if (a.is_live(r) != b.is_live(r)) {
      return ::testing::AssertionFailure() << "liveness differs at row " << r;
    }
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (!(a.cell(r, c) == b.cell(r, c))) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << ") differs: "
               << a.cell(r, c).ToString() << " vs " << b.cell(r, c).ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

void ExpectSameReports(const QueryReport& recorded, const QueryReport& replay,
                       const std::string& sql) {
  EXPECT_TRUE(SameTables(recorded.output.result, replay.output.result)) << sql;
  EXPECT_EQ(recorded.extra_tuples, replay.extra_tuples) << sql;
  EXPECT_EQ(recorded.errors_fixed, replay.errors_fixed) << sql;
  EXPECT_EQ(recorded.tuples_scanned, replay.tuples_scanned) << sql;
  EXPECT_EQ(recorded.detect_ops, replay.detect_ops) << sql;
  EXPECT_EQ(recorded.rules_applied, replay.rules_applied) << sql;
  EXPECT_EQ(recorded.rules_pruned, replay.rules_pruned) << sql;
  EXPECT_EQ(recorded.delta_rows_checked, replay.delta_rows_checked) << sql;
  EXPECT_EQ(recorded.switched_to_full, replay.switched_to_full) << sql;
  EXPECT_EQ(recorded.used_dc_full_clean, replay.used_dc_full_clean) << sql;
  EXPECT_EQ(recorded.min_estimated_accuracy, replay.min_estimated_accuracy)
      << sql;
}

// ---------------------------------------------------------- stress + replay --

void RunStress(uint64_t seed, size_t num_threads) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", threads " +
               std::to_string(num_threads));

  // Concurrent run.
  Database db;
  ASSERT_TRUE(db.AddTable(BaseTable(seed)).ok());
  std::unique_ptr<DaisyEngine> engine = MakeEngine(&db, seed);

  std::vector<std::vector<PlannedOp>> plans;
  for (size_t t = 0; t < num_threads; ++t) {
    plans.push_back(PlanThreadOps(seed, t));
  }
  std::vector<std::vector<Record>> records(num_threads);
  std::vector<std::string> errors(num_threads);
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back(RunWorker, engine.get(), std::cref(plans[t]),
                         &records[t], &errors[t]);
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < num_threads; ++t) {
    ASSERT_EQ(errors[t], "") << "thread " << t;
  }

  // Partition the records into the writer order and per-epoch readers.
  std::vector<const Record*> writers;  // index = epoch - 1
  std::vector<const Record*> readers;
  for (const std::vector<Record>& thread_records : records) {
    for (const Record& rec : thread_records) {
      if (rec.kind == PlannedOp::Kind::kQuery && rec.read_path) {
        readers.push_back(&rec);
      } else {
        writers.push_back(&rec);
      }
    }
  }
  std::sort(writers.begin(), writers.end(),
            [](const Record* a, const Record* b) { return a->epoch < b->epoch; });
  for (size_t i = 0; i < writers.size(); ++i) {
    // Writer slots are exactly 1..W: unique and contiguous.
    ASSERT_EQ(writers[i]->epoch, i + 1);
  }
  std::stable_sort(readers.begin(), readers.end(),
                   [](const Record* a, const Record* b) {
                     return a->epoch < b->epoch;
                   });
  for (const Record* r : readers) {
    ASSERT_LE(r->epoch, writers.size());
  }

  // Serial replay in epoch order on a fresh engine.
  Database replay_db;
  ASSERT_TRUE(replay_db.AddTable(BaseTable(seed)).ok());
  std::unique_ptr<DaisyEngine> replay = MakeEngine(&replay_db, seed);

  size_t next_reader = 0;
  for (uint64_t e = 0; e <= writers.size(); ++e) {
    // Readers that observed the state after writer e: order among them is
    // irrelevant (they are pure reads), so any fixed order must reproduce
    // their outputs.
    while (next_reader < readers.size() && readers[next_reader]->epoch == e) {
      const Record* rec = readers[next_reader++];
      SCOPED_TRACE("reader after epoch " + std::to_string(e) + ": " +
                   rec->sql);
      Result<QueryReport> r = replay->Query(rec->sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r.value().read_path);
      EXPECT_EQ(r.value().epoch, e);
      ExpectSameReports(rec->report, r.value(), rec->sql);
    }
    if (e == writers.size()) break;
    const Record* w = writers[e];
    SCOPED_TRACE("writer epoch " + std::to_string(e + 1));
    if (w->kind == PlannedOp::Kind::kQuery) {
      Result<QueryReport> r = replay->Query(w->sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r.value().read_path) << w->sql;
      EXPECT_EQ(r.value().epoch, e + 1) << w->sql;
      ExpectSameReports(w->report, r.value(), w->sql);
    } else if (w->kind == PlannedOp::Kind::kAppend) {
      Result<TableDelta> r = replay->AppendRows("t", w->rows);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // Row ids are assigned by table size at commit: identical commit
      // order must hand out identical ids.
      EXPECT_EQ(r.value().appended, w->delta.appended);
      EXPECT_EQ(r.value().engine_epoch, e + 1);
    } else {
      Result<TableDelta> r = replay->DeleteRows("t", w->victims);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r.value().deleted, w->delta.deleted);
      EXPECT_EQ(r.value().engine_epoch, e + 1);
    }
  }

  // Final state: repaired table (cells and candidate sets), coverage, and
  // the delta-maintained FD index (every group and the counters) all match
  // the serial replay.
  EXPECT_TRUE(SameTables(*db.GetTable("t").ValueOrDie(),
                         *replay_db.GetTable("t").ValueOrDie()));
  for (const char* rule : {"phi", "psi"}) {
    EXPECT_EQ(engine->RuleFullyChecked(rule).ValueOrDie(),
              replay->RuleFullyChecked(rule).ValueOrDie())
        << rule;
  }
  const FdDeltaDetector* fd = engine->fd_index("phi");
  const FdDeltaDetector* replay_fd = replay->fd_index("phi");
  ASSERT_NE(fd, nullptr);
  ASSERT_NE(replay_fd, nullptr);
  const FdRuleStats stats = fd->stats();
  const FdRuleStats replay_stats = replay_fd->stats();
  EXPECT_EQ(stats.num_violating_rows, replay_stats.num_violating_rows);
  EXPECT_EQ(stats.num_violating_groups, replay_stats.num_violating_groups);
  EXPECT_EQ(stats.avg_candidates, replay_stats.avg_candidates);
  const std::vector<FdGroup> groups = fd->ViolatingGroups(true);
  const std::vector<FdGroup> replay_groups = replay_fd->ViolatingGroups(true);
  ASSERT_EQ(groups.size(), replay_groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    EXPECT_TRUE(GroupKeyEq()(groups[g].lhs_key, replay_groups[g].lhs_key))
        << "group " << g;
    EXPECT_EQ(groups[g].rows, replay_groups[g].rows) << "group " << g;
    EXPECT_EQ(groups[g].rhs_histogram, replay_groups[g].rhs_histogram)
        << "group " << g;
  }
}

TEST(ConcurrencyStressTest, SerialEquivalenceTwoThreads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) RunStress(seed, 2);
}

TEST(ConcurrencyStressTest, SerialEquivalenceFourThreads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) RunStress(seed, 4);
}

TEST(ConcurrencyStressTest, SerialEquivalenceEightThreads) {
  for (uint64_t seed = 1; seed <= 20; ++seed) RunStress(seed, 8);
}

// ------------------------------------------------- TSAN-targeted reader mix --

// Pure shared-path overlap: after CleanAllRemaining every rule is
// quiescent, so all queries (and Explain calls) must run concurrently on
// the read path without a single cleaning-state write — the case TSAN
// watches hardest. Outputs must be identical across threads.
TEST(ConcurrencyStressTest, SharedReadersAfterConvergence) {
  Database db;
  ASSERT_TRUE(db.AddTable(BaseTable(42)).ok());
  std::unique_ptr<DaisyEngine> engine = MakeEngine(&db, 42);
  ASSERT_TRUE(engine->CleanAllRemaining().ok());

  constexpr size_t kThreads = 8;
  constexpr size_t kQueriesPerThread = 25;
  const std::string sql = "SELECT * FROM t WHERE a >= 2";
  std::vector<std::string> errors(kThreads);
  std::vector<size_t> result_rows(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        if (t % 2 == 1 && i % 5 == 0) {
          Result<std::string> ex = engine->Explain(sql);
          if (!ex.ok()) {
            errors[t] = ex.status().ToString();
            return;
          }
          continue;
        }
        Result<QueryReport> r = engine->Query(sql);
        if (!r.ok()) {
          errors[t] = r.status().ToString();
          return;
        }
        if (!r.value().read_path) {
          errors[t] = "query took the writer path after convergence";
          return;
        }
        result_rows[t] = r.value().output.result.num_rows();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(errors[t], "") << "thread " << t;
  }
  for (size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(result_rows[t], result_rows[0]);
  }
}

// -------------------------------------------------------------- unit bits --

TEST(ConcurrencyUnitTest, SnapshotPinsIngestState) {
  Table t("u", TestSchema());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value(int64_t{2}),
                           Value("s0")}).ok());
  const TableSnapshot before = t.Snapshot();
  EXPECT_EQ(before.num_rows, 1u);

  ASSERT_TRUE(t.AppendRows({{Value(int64_t{3}), Value(int64_t{4}),
                             Value("s1")}}).ok());
  const TableSnapshot after_append = t.Snapshot();
  EXPECT_GT(after_append.append_version, before.append_version);
  EXPECT_GT(after_append.delta_generation, before.delta_generation);
  EXPECT_EQ(after_append.num_rows, 2u);

  ASSERT_TRUE(t.DeleteRows({0}).ok());
  const TableSnapshot after_delete = t.Snapshot();
  EXPECT_EQ(after_delete.append_version, after_append.append_version);
  EXPECT_GT(after_delete.delta_generation, after_append.delta_generation);
  EXPECT_EQ(after_delete.num_rows, 2u);  // tombstones keep their ids
}

TEST(ConcurrencyUnitTest, EpochAndReadPathLifecycle) {
  Database db;
  ASSERT_TRUE(db.AddTable(BaseTable(7)).ok());
  std::unique_ptr<DaisyEngine> engine = MakeEngine(&db, 7);

  // First touching query cleans: writer slot 1.
  QueryReport first = engine->Query("SELECT * FROM t").ValueOrDie();
  EXPECT_FALSE(first.read_path);
  EXPECT_EQ(first.epoch, 1u);

  // Same query again: everything checked, shared path, observing slot 1.
  QueryReport second = engine->Query("SELECT * FROM t").ValueOrDie();
  EXPECT_TRUE(second.read_path);
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(second.errors_fixed, 0u);

  // Ingest takes writer slot 2; the settling query takes slot 3; the next
  // read observes 3.
  Rng rng(99);
  TableDelta delta = engine->AppendRows("t", {RandomRow(&rng)}).ValueOrDie();
  EXPECT_EQ(delta.engine_epoch, 2u);
  QueryReport settling = engine->Query("SELECT * FROM t").ValueOrDie();
  EXPECT_FALSE(settling.read_path);
  EXPECT_EQ(settling.epoch, 3u);
  QueryReport settled = engine->Query("SELECT * FROM t").ValueOrDie();
  EXPECT_TRUE(settled.read_path);
  EXPECT_EQ(settled.epoch, 3u);
}

}  // namespace
}  // namespace daisy
