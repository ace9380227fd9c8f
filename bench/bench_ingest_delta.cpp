// Ingest-delta bench, two legs.
//
// Theta-join leg: delta detection vs full re-detection. A 50k-row
// salary/tax relation under the order DC
// ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax), fully checked, then an
// append batch of {100, 1k, 10k} rows. A full re-detection pays the
// theta-join over n+d rows; DetectDelta pays only the new x old + new x
// new partial theta-join with pairwise partition pruning. Both paths must
// produce the identical violation set (checked here per batch).
//
// FD settle leg: the cost of settling a small delta as the table grows.
// t(k int, v int, x double) under FD k -> v with 1% dirty rhs is cleaned
// in full, then 40 times: append 10 in-domain rows carrying one violation,
// then a point query on k (a writer query: it settles the delta). At 20k,
// 80k and 320k rows it reports the median append and settling-query times,
// the same point query with nothing left to settle (its full scan is the
// part that grows with the table), and the column-cache rows maintained per
// iteration (daisy_storage_cache_rows_maintained_total, deterministic):
// candidate-only repairs patch the cache in place and appends extend it, so
// the settling work stays O(delta) whatever the table size. It also reports
// the rows the compiled filter evaluates per settling query
// (daisy_plan_filter_rows_evaluated_total, deterministic): the point
// query's full scan, so about the table size, plus cleanσ's re-filters.
//
// Switched FD settle leg: the same settle loop on an engine whose
// cost-model switch to full cleaning has already fired (a query over half
// the keys trips it instead of CleanAllRemaining). Every settling query
// leaves arrivals outside its answer unchecked, so the switch fires again
// on each one; rows_swept_per_query (daisy_clean_rows_swept_total) counts
// the rows each such sweep hands to repair: the unchecked rows, about the
// delta, not the table.
//
// Output: one line per batch size or table size.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "constraints/constraint_set.h"
#include "detect/theta_join.h"

using namespace daisy;
using namespace daisy::bench;

namespace {

constexpr size_t kBaseRows = 50000;
constexpr size_t kPartitions = 64;
constexpr double kErrorFraction = 0.001;

void FillRow(Rng* rng, std::vector<Value>* row) {
  const double salary = rng->UniformDouble(1000, 100000);
  double tax = salary / 200000.0;
  if (rng->Bernoulli(kErrorFraction)) tax += rng->UniformDouble(0.1, 0.5);
  row->clear();
  row->push_back(Value(salary));
  row->push_back(Value(tax));
}

Table BaseTable(uint64_t seed) {
  Rng rng(seed);
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  t.Reserve(kBaseRows);
  std::vector<Value> row;
  for (size_t i = 0; i < kBaseRows; ++i) {
    FillRow(&rng, &row);
    CheckOk(t.AppendRow(row), "append base row");
  }
  return t;
}

std::vector<std::vector<Value>> Batch(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows(n);
  for (size_t i = 0; i < n; ++i) FillRow(&rng, &rows[i]);
  return rows;
}

std::vector<ViolationPair> Sorted(std::vector<ViolationPair> v) {
  std::sort(v.begin(), v.end());
  return v;
}

constexpr size_t kSettleLoops = 40;
constexpr size_t kSettleBatch = 10;
constexpr size_t kRowsPerKey = 10;
constexpr double kDirtyRhs = 0.01;

// The clean rhs of key k; a dirty cell holds another key's rhs.
int64_t CleanRhs(int64_t k) { return (k * 7919) % 100003; }

std::vector<Value> SettleRow(Rng* rng, int64_t keys, bool dirty) {
  const int64_t k = rng->UniformInt(0, keys - 1);
  const int64_t other = (k + 1 + rng->UniformInt(0, keys - 2)) % keys;
  const int64_t v = CleanRhs(dirty ? other : k);
  return {Value(k), Value(v), Value(rng->UniformDouble(0, 1))};
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// `switched`: trip the adaptive switch with a wide query instead of
// cleaning everything up front, and report the rows each settling
// query's switch sweeps.
BenchResult FdSettle(size_t rows, bool switched) {
  const int64_t keys = static_cast<int64_t>(rows / kRowsPerKey);
  Rng rng(rows);
  Database db;
  Table t("t", Schema({{"k", ValueType::kInt},
                       {"v", ValueType::kInt},
                       {"x", ValueType::kDouble}}));
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    CheckOk(t.AppendRow(SettleRow(&rng, keys, rng.Bernoulli(kDirtyRhs))),
            "append base row");
  }
  CheckOk(db.AddTable(std::move(t)), "add table");
  ConstraintSet rules;
  CheckOk(rules.AddFromText("phi: FD k -> v", "t",
                            UnwrapOrDie(db.GetTable("t"), "table")->schema()),
          "parse rule");
  DaisyEngine engine(&db, std::move(rules));
  CheckOk(engine.Prepare(), "prepare");
  if (!switched) {
    CheckOk(engine.CleanAllRemaining(), "clean all");
  } else if (!UnwrapOrDie(engine.Query("SELECT * FROM t WHERE k < " +
                                       std::to_string(keys / 2)),
                          "switching query")
                  .switched_to_full) {
    std::fprintf(stderr, "[bench] the wide query did not switch\n");
    std::exit(1);
  }

  auto point_query = [&](int64_t key) {
    Timer timer;
    UnwrapOrDie(engine.Query("SELECT * FROM t WHERE k = " + std::to_string(key)),
                "point query");
    return timer.ElapsedSeconds() * 1e3;
  };
  (void)point_query(0);  // first build of the scanned column, not measured

  std::vector<double> append_ms;
  std::vector<double> query_ms;
  RegistryCounterDelta maintained;
  for (size_t loop = 0; loop < kSettleLoops; ++loop) {
    std::vector<std::vector<Value>> batch;
    for (size_t i = 0; i < kSettleBatch; ++i) {
      batch.push_back(SettleRow(&rng, keys, i == 0));
    }
    const int64_t dirty_key = batch[0][0].as_int();
    Timer append_timer;
    UnwrapOrDie(engine.AppendRows("t", std::move(batch)), "append batch");
    append_ms.push_back(append_timer.ElapsedSeconds() * 1e3);
    Timer query_timer;
    const QueryReport report = UnwrapOrDie(
        engine.Query("SELECT * FROM t WHERE k = " + std::to_string(dirty_key)),
        "settling query");
    query_ms.push_back(query_timer.ElapsedSeconds() * 1e3);
    if (report.read_path) {
      std::fprintf(stderr, "[bench] settling query took the read path\n");
      std::exit(1);
    }
    if (report.switched_to_full != switched) {
      std::fprintf(stderr, "[bench] settling query %s\n",
                   switched ? "did not switch" : "switched");
      std::exit(1);
    }
  }
  const double per_query =
      static_cast<double>(
          maintained.Delta("daisy_storage_cache_rows_maintained_total")) /
      kSettleLoops;
  const double swept_per_query =
      static_cast<double>(maintained.Delta("daisy_clean_rows_swept_total")) /
      kSettleLoops;
  const double filtered_per_query =
      static_cast<double>(
          maintained.Delta("daisy_plan_filter_rows_evaluated_total")) /
      kSettleLoops;
  double total_ms = 0;
  for (double ms : query_ms) total_ms += ms;
  // The same point query with nothing left to settle: the scan's share of
  // query_ms, which grows with the table on any path.
  std::vector<double> idle_ms;
  for (size_t loop = 0; loop < kSettleLoops; ++loop) {
    idle_ms.push_back(point_query(rng.UniformInt(0, keys - 1)));
  }

  std::printf("  %-8zu %12.3f %12.3f %12.3f %14.1f %10.1f %12.1f\n", rows,
              Median(append_ms), Median(query_ms), Median(idle_ms),
              per_query, swept_per_query, filtered_per_query);
  BenchResult result;
  result.name = (switched ? "fd_settle_switched_" : "fd_settle_") +
                std::to_string(rows);
  result.wall_ms = total_ms;
  result.counters = {{"append_ms", Median(append_ms)},
                     {"query_ms", Median(query_ms)},
                     {"idle_query_ms", Median(idle_ms)},
                     {"rows_maintained_per_query", per_query},
                     {"filter_rows_per_query", filtered_per_query}};
  if (switched) {
    result.counters.push_back({"rows_swept_per_query", swept_per_query});
  }
  result.config = {{"loops", std::to_string(kSettleLoops)},
                   {"batch_rows", std::to_string(kSettleBatch)},
                   {"rule", "FD k -> v"}};
  return result;
}

}  // namespace

int main() {
  WarmupHeap();
  BenchJsonWriter json("ingest_delta");
  std::printf("# Ingest delta: DetectDelta vs full re-detection "
              "(base=%zu rows, p=%zu, dc=salary/tax)\n",
              kBaseRows, kPartitions);
  std::printf("# %-8s %12s %12s %14s %14s %9s\n", "append", "delta_s",
              "full_s", "delta_pairs", "full_pairs", "speedup");

  const char* kRule = "dc: !(t1.salary < t2.salary & t1.tax > t2.tax)";
  for (size_t batch_size : {size_t{100}, size_t{1000}, size_t{10000}}) {
    // Delta path: warm detector over the base, then pay only the batch.
    Table delta_table = BaseTable(7);
    Schema schema = delta_table.schema();
    auto dc = UnwrapOrDie(ParseConstraint(kRule, "emp", schema), "parse dc");
    ThetaJoinDetector maintained(&delta_table, &dc, kPartitions);
    (void)maintained.DetectAll();
    TableDelta delta = UnwrapOrDie(
        delta_table.AppendRows(Batch(100 + batch_size, batch_size)),
        "append batch");

    Timer delta_timer;
    (void)maintained.DetectDelta(delta);
    const double delta_s = delta_timer.ElapsedSeconds();
    const size_t delta_pairs = maintained.pairs_checked();

    // Full path: what the pre-delta engine paid — re-detection from
    // scratch over the grown table.
    Table full_table = delta_table;
    ThetaJoinDetector scratch(&full_table, &dc, kPartitions);
    Timer full_timer;
    std::vector<ViolationPair> full = scratch.DetectAll();
    const double full_s = full_timer.ElapsedSeconds();
    const size_t full_pairs = scratch.pairs_checked();

    // Identical violation sets or the comparison is meaningless.
    if (maintained.maintained_violations() != Sorted(std::move(full))) {
      std::fprintf(stderr, "[bench] violation sets diverged at d=%zu\n",
                   batch_size);
      return 1;
    }

    std::printf("  %-8zu %12.4f %12.4f %14zu %14zu %8.1fx\n", batch_size,
                delta_s, full_s, delta_pairs, full_pairs,
                delta_s > 0 ? full_s / delta_s : 0.0);

    BenchResult result;
    result.name = "append_" + std::to_string(batch_size);
    result.wall_ms = delta_s * 1e3;
    result.counters = {{"full_ms", full_s * 1e3},
                       {"delta_pairs", static_cast<double>(delta_pairs)},
                       {"full_pairs", static_cast<double>(full_pairs)},
                       {"speedup", delta_s > 0 ? full_s / delta_s : 0.0}};
    result.config = {{"base_rows", std::to_string(kBaseRows)},
                     {"partitions", std::to_string(kPartitions)},
                     {"rule", kRule}};
    json.Add(std::move(result));
  }

  std::printf("# FD settle: %zu x (append %zu rows with one violation, "
              "point query), dirty rhs %.0f%%\n",
              kSettleLoops, kSettleBatch, kDirtyRhs * 100);
  std::printf("# %-8s %12s %12s %12s %14s %10s %12s\n", "rows", "append_ms",
              "query_ms", "idle_q_ms", "maintained/q", "swept/q",
              "filtered/q");
  for (bool switched : {false, true}) {
    if (switched) std::printf("# switched: the cost model has fired\n");
    for (size_t rows : {size_t{20000}, size_t{80000}, size_t{320000}}) {
      json.Add(FdSettle(rows, switched));
    }
  }
  return 0;
}
