// Operator-level microbenchmarks (google-benchmark): relaxation, FD
// detection, theta-join detection with/without partition pruning
// (ablation), FD repair, probabilistic filtering, and provenance merging.

#include <benchmark/benchmark.h>

#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "datagen/ssb.h"
#include "detect/fd_delta.h"
#include "detect/theta_join.h"
#include "plan/compiled_filter.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "repair/fd_repair.h"
#include "storage/database.h"

namespace daisy {
namespace {

Table MakeLineorder(size_t rows, size_t orderkeys, size_t suppkeys) {
  SsbConfig config;
  config.num_rows = rows;
  config.distinct_orderkeys = orderkeys;
  config.distinct_suppkeys = suppkeys;
  return GenerateLineorder(config).dirty;
}

DenialConstraint OrderFd(const Table& t) {
  return ParseConstraint("phi: FD orderkey -> suppkey", t.name(), t.schema())
      .ValueOrDie();
}

void BM_RelaxFdResult(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeLineorder(rows, rows / 20, 50);
  DenialConstraint dc = OrderFd(t);
  std::vector<RowId> answer;
  for (RowId r = 0; r < rows / 50; ++r) answer.push_back(r);
  // Built once per rule in production; each query only relaxes.
  const FdDeltaDetector index(&t, &dc);
  for (auto _ : state) {
    RelaxResult res = index.Relax(answer);
    benchmark::DoNotOptimize(res.extra.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_RelaxFdResult)->Arg(1000)->Arg(10000)->Arg(50000);

// FD detection: the index's grouping pass over the live rows, then its
// violating groups.
void BM_FdDetection(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeLineorder(rows, rows / 20, 50);
  DenialConstraint dc = OrderFd(t);
  for (auto _ : state) {
    const FdDeltaDetector index(&t, &dc);
    auto groups = index.ViolatingGroups();
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_FdDetection)->Arg(1000)->Arg(10000)->Arg(50000);

Table MakeSalaryTable(size_t rows, double error_fraction) {
  Rng rng(99);
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(error_fraction)) tax += rng.UniformDouble(0.1, 0.4);
    (void)t.AppendRow({Value(salary), Value(tax)});
  }
  return t;
}

// Ablation: partitioned theta-join with and without boundary pruning.
void BM_ThetaJoinDetectAll(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const bool pruning = state.range(1) != 0;
  Table t = MakeSalaryTable(rows, 0.02);
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t.schema())
                .ValueOrDie();
  for (auto _ : state) {
    ThetaJoinDetector detector(&t, &dc, 32);
    detector.set_pruning_enabled(pruning);
    auto v = detector.DetectAll();
    benchmark::DoNotOptimize(v.size());
  }
  state.SetLabel(pruning ? "pruned" : "unpruned");
}
BENCHMARK(BM_ThetaJoinDetectAll)
    ->Args({500, 1})
    ->Args({500, 0})
    ->Args({2000, 1})
    ->Args({2000, 0});

void BM_ThetaJoinIncremental(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeSalaryTable(rows, 0.02);
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t.schema())
                .ValueOrDie();
  std::vector<RowId> result;
  for (RowId r = 0; r < rows / 10; ++r) result.push_back(r);
  for (auto _ : state) {
    ThetaJoinDetector detector(&t, &dc, 32);
    auto v = detector.DetectIncremental(result);
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_ThetaJoinIncremental)->Arg(1000)->Arg(4000);

// The 50k-row theta-join workload: one incremental detection pass (a
// 1k-row query answer against the unseen rest) with pair checks through
// the compiled flat arrays.
void BM_ThetaJoin50kIncremental(benchmark::State& state) {
  const size_t rows = 50000;
  Table t = MakeSalaryTable(rows, 0.02);
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t.schema())
                .ValueOrDie();
  std::vector<RowId> result;
  for (RowId r = 0; r < rows / 50; ++r) result.push_back(r);
  (void)t.columns().column(0);
  (void)t.columns().column(1);
  size_t pairs = 0;
  for (auto _ : state) {
    ThetaJoinDetector detector(&t, &dc, 32);
    auto v = detector.DetectIncremental(result);
    benchmark::DoNotOptimize(v.size());
    pairs = detector.pairs_checked();
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_ThetaJoin50kIncremental)->Unit(benchmark::kMillisecond);

// Estimate_Errors: binary-searched range counts over the per-partition
// sorted projections (was a linear partition rescan per atom pair).
void BM_EstimateErrors(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeSalaryTable(rows, 0.1);
  auto dc = ParseConstraint("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t.schema())
                .ValueOrDie();
  for (auto _ : state) {
    ThetaJoinDetector detector(&t, &dc, 64);
    const auto& est = detector.EstimateErrors();
    benchmark::DoNotOptimize(est.size());
  }
}
BENCHMARK(BM_EstimateErrors)->Arg(10000)->Arg(50000);

// FD repair of the whole table off a built index (CleanAll's repair).
void BM_FdRepair(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Table t = MakeLineorder(rows, rows / 20, 50);
    DenialConstraint dc = OrderFd(t);
    const FdDeltaDetector index(&t, &dc);
    ProvenanceStore prov;
    state.ResumeTiming();
    auto stats = RepairFdViolations(&t, index, t.AllRowIds(), &prov);
    benchmark::DoNotOptimize(stats.tuples_repaired);
  }
}
BENCHMARK(BM_FdRepair)->Arg(1000)->Arg(10000);

// The compiled filter over an FD-repaired table (its candidate cells take
// the per-cell path): one compile plus one Filter call over every row.
void BM_ProbabilisticFilter(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeLineorder(rows, rows / 20, 50);
  DenialConstraint dc = OrderFd(t);
  ProvenanceStore prov;
  (void)RepairFdViolations(&t, FdDeltaDetector(&t, &dc), t.AllRowIds(), &prov);
  auto stmt =
      ParseQuery("SELECT * FROM lineorder WHERE suppkey >= 10 AND suppkey <= 20")
          .ValueOrDie();
  const std::vector<RowId> all = t.AllRowIds();
  for (auto _ : state) {
    auto filter = CompiledFilter::Compile(t, *stmt.where);
    auto rows_out = filter.ValueOrDie().Filter(all);
    benchmark::DoNotOptimize(rows_out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ProbabilisticFilter)->Arg(1000)->Arg(10000);

// The plan layer's filter/scan: a 50k-row SP workload (range predicate
// over most-probable-dense columns) executed through the Planner with the
// compiled ColumnCache filter.
void BM_PlanFilterScan50k(benchmark::State& state) {
  const size_t rows = 50000;
  Database db;
  (void)db.AddTable(MakeLineorder(rows, rows / 20, 50));
  auto stmt = ParseQuery(
                  "SELECT orderkey, suppkey FROM lineorder "
                  "WHERE suppkey >= 10 AND suppkey <= 20 AND orderkey != 77")
                  .ValueOrDie();
  Planner planner(&db);
  // Build the column cache once outside the timed region.
  Table* lineorder = db.GetTable("lineorder").ValueOrDie();
  const Schema& schema = lineorder->schema();
  for (const char* name : {"orderkey", "suppkey"}) {
    (void)lineorder->columns().column(schema.ColumnIndex(name).ValueOrDie());
  }
  size_t out_rows = 0;
  for (auto _ : state) {
    auto plan = planner.PlanQuery(stmt).ValueOrDie();
    auto out = plan.Execute().ValueOrDie();
    benchmark::DoNotOptimize(out.result.num_rows());
    out_rows = out.result.num_rows();
  }
  state.counters["rows_out"] = static_cast<double>(out_rows);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_PlanFilterScan50k)->Unit(benchmark::kMillisecond);

// The per-rule FD index build DaisyEngine::Prepare runs: lhs groups, rhs
// buckets and the ε / p counters in one pass over the live rows.
void BM_FdIndexBuild(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Table t = MakeLineorder(rows, rows / 20, 50);
  DenialConstraint dc = OrderFd(t);
  for (auto _ : state) {
    FdDeltaDetector index(&t, &dc);
    benchmark::DoNotOptimize(index.stats().num_violating_rows);
  }
}
BENCHMARK(BM_FdIndexBuild)->Arg(1000)->Arg(10000);

// A Q2-shaped join and GROUP BY over cleaned tables. lineorder's
// FD-repaired suppkey cells share one candidate set per violating orderkey
// group (about 1000 sets), and each probes a 500-row supplier whose
// repaired suppkey cells carry candidates too. The GROUP BY reads part and
// lineorder, never supplier, so one probe row's supplier partners are one
// run of the same group.
void BM_JoinAggregateSharedCandidates(benchmark::State& state) {
  SsbConfig config;
  config.num_rows = 20000;
  config.distinct_orderkeys = 1000;
  config.distinct_suppkeys = 100;
  Database db;
  (void)db.AddTable(GenerateLineorder(config).dirty);
  (void)db.AddTable(GenerateSupplier(500, 100, 0.5, 0.3, 5).dirty);
  (void)db.AddTable(GeneratePart(config.distinct_partkeys, 3));
  ProvenanceStore prov;
  for (const auto& [table, rule] :
       {std::pair<const char*, const char*>{"lineorder",
                                            "phi: FD orderkey -> suppkey"},
        {"supplier", "psi: FD address -> suppkey"}}) {
    Table* t = db.GetTable(table).ValueOrDie();
    DenialConstraint dc =
        ParseConstraint(rule, t->name(), t->schema()).ValueOrDie();
    (void)RepairFdViolations(t, FdDeltaDetector(t, &dc), t->AllRowIds(),
                             &prov);
  }
  const Table& lineorder = *db.GetTable("lineorder").ValueOrDie();
  const size_t suppkey = lineorder.schema().ColumnIndex("suppkey").ValueOrDie();
  std::unordered_set<const CandidateSet*> sets;
  for (RowId r = 0; r < lineorder.num_rows(); ++r) {
    const CandidateSet* set = lineorder.cell(r, suppkey).candidate_set().get();
    if (set != nullptr) sets.insert(set);
  }
  auto stmt = ParseQuery(
                  "SELECT part.brand, SUM(lineorder.revenue) AS rev "
                  "FROM lineorder, supplier, part "
                  "WHERE lineorder.suppkey = supplier.suppkey AND "
                  "lineorder.partkey = part.partkey "
                  "GROUP BY part.brand")
                  .ValueOrDie();
  Planner planner(&db);
  size_t groups = 0;
  size_t joined = 0;
  for (auto _ : state) {
    auto out = planner.PlanQuery(stmt).ValueOrDie().Execute().ValueOrDie();
    benchmark::DoNotOptimize(out.result.num_rows());
    groups = out.result.num_rows();
    joined = out.lineage.size();
  }
  state.counters["shared_sets"] = static_cast<double>(sets.size());
  state.counters["joined_tuples"] = static_cast<double>(joined);
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_JoinAggregateSharedCandidates)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace daisy

BENCHMARK_MAIN();
