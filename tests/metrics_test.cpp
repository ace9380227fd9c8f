// Unit + integration tests for the observability layer (common/metrics.h,
// common/logger.h):
//
//   * histogram bucket-boundary semantics and bound saturation;
//   * snapshot determinism (two snapshots of identical state compare
//     equal) and the Prometheus text-exposition golden;
//   * an 8-thread concurrent-increment exactness test (the TSAN leg runs
//     this binary under the "concurrency" label);
//   * the structured logger's ring-buffer tail and JSON escaping;
//   * an engine-level integration test pinning EXACT counter values for a
//     known single-threaded workload — queries served, WAL fsyncs, rows
//     appended — via the deterministic-snapshot API.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/logger.h"
#include "common/metrics.h"
#include "persist_test_util.h"
#include "storage/database.h"
#include "storage/table.h"

namespace daisy {
namespace {

using testutil::TempDir;

// ---------------------------------------------------------------- units --

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("daisy_test_h_us", /*first_bound=*/4,
                                  /*num_buckets=*/3);
  ASSERT_EQ(h->num_buckets(), 3u);
  EXPECT_EQ(h->bound(0), 4u);
  EXPECT_EQ(h->bound(1), 8u);
  EXPECT_EQ(h->bound(2), 16u);

  h->Observe(1);   // <= 4
  h->Observe(4);   // == bound is inclusive
  h->Observe(5);   // (4, 8]
  h->Observe(16);  // (8, 16]
  h->Observe(17);  // above the last bound -> overflow (+Inf)

  EXPECT_EQ(h->BucketCount(0), 2u);
  EXPECT_EQ(h->BucketCount(1), 1u);
  EXPECT_EQ(h->BucketCount(2), 1u);
  EXPECT_EQ(h->OverflowCount(), 1u);
  EXPECT_EQ(h->TotalCount(), 5u);
  EXPECT_EQ(h->Sum(), 43u);
}

TEST(Histogram, BucketCountCapsAndBoundsSaturate) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("daisy_test_wide_us", /*first_bound=*/1,
                                  /*num_buckets=*/80);
  EXPECT_EQ(h->num_buckets(), Histogram::kMaxBuckets);
  EXPECT_EQ(h->bound(0), 1u);
  EXPECT_EQ(h->bound(23), uint64_t{1} << 23);

  // A huge first bound saturates instead of wrapping.
  Histogram* s = reg.GetHistogram("daisy_test_sat_us",
                                  /*first_bound=*/UINT64_MAX - 1,
                                  /*num_buckets=*/3);
  EXPECT_EQ(s->bound(0), UINT64_MAX - 1);
  EXPECT_EQ(s->bound(1), UINT64_MAX);
  EXPECT_EQ(s->bound(2), UINT64_MAX);
}

TEST(MetricsRegistry, GetReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("daisy_test_ops_total");
  Counter* b = reg.GetCounter("daisy_test_ops_total");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(b->Value(), 7u);
}

TEST(MetricsRegistry, SnapshotIsDeterministic) {
  MetricsRegistry reg;
  reg.GetCounter("daisy_test_ops_total")->Increment(5);
  reg.GetGauge("daisy_test_depth")->Set(-3);
  reg.GetHistogram("daisy_test_lat_us", 2, 4)->Observe(3);

  const MetricsRegistry::Snapshot s1 = reg.TakeSnapshot();
  const MetricsRegistry::Snapshot s2 = reg.TakeSnapshot();
  EXPECT_EQ(s1.counters, s2.counters);
  EXPECT_EQ(s1.gauges, s2.gauges);
  ASSERT_EQ(s1.histograms.size(), s2.histograms.size());
  const auto& h1 = s1.histograms.at("daisy_test_lat_us");
  const auto& h2 = s2.histograms.at("daisy_test_lat_us");
  EXPECT_EQ(h1.bounds, h2.bounds);
  EXPECT_EQ(h1.bucket_counts, h2.bucket_counts);
  EXPECT_EQ(h1.overflow, h2.overflow);
  EXPECT_EQ(h1.count, h2.count);
  EXPECT_EQ(h1.sum, h2.sum);

  // The rendered page is a pure function of the snapshot state.
  EXPECT_EQ(reg.RenderPrometheus(), reg.RenderPrometheus());

  EXPECT_EQ(s1.counters.at("daisy_test_ops_total"), 5u);
  EXPECT_EQ(s1.gauges.at("daisy_test_depth"), -3);
  EXPECT_EQ(h1.count, 1u);
  EXPECT_EQ(h1.sum, 3u);
}

TEST(MetricsRegistry, PrometheusRenderingGolden) {
  MetricsRegistry reg;
  reg.GetCounter("daisy_test_ops_total", "Operations.")->Increment(3);
  reg.GetCounter("daisy_test_ops_total{kind=\"write\"}")->Increment(2);
  reg.GetGauge("daisy_test_queue_depth")->Set(-4);
  Histogram* h =
      reg.GetHistogram("daisy_test_latency_us", 4, 3, "Latency.");
  h->Observe(4);
  h->Observe(8);
  h->Observe(17);

  const std::string kGolden =
      "# HELP daisy_test_ops_total Operations.\n"
      "# TYPE daisy_test_ops_total counter\n"
      "daisy_test_ops_total 3\n"
      "daisy_test_ops_total{kind=\"write\"} 2\n"
      "# TYPE daisy_test_queue_depth gauge\n"
      "daisy_test_queue_depth -4\n"
      "# HELP daisy_test_latency_us Latency.\n"
      "# TYPE daisy_test_latency_us histogram\n"
      "daisy_test_latency_us_bucket{le=\"4\"} 1\n"
      "daisy_test_latency_us_bucket{le=\"8\"} 2\n"
      "daisy_test_latency_us_bucket{le=\"16\"} 2\n"
      "daisy_test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "daisy_test_latency_us_sum 29\n"
      "daisy_test_latency_us_count 3\n";
  EXPECT_EQ(reg.RenderPrometheus(), kGolden);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsPointers) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("daisy_test_ops_total");
  Histogram* h = reg.GetHistogram("daisy_test_lat_us", 2, 4);
  c->Increment(9);
  h->Observe(1);
  reg.ResetForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->TotalCount(), 0u);
  EXPECT_EQ(h->Sum(), 0u);
  EXPECT_EQ(reg.GetCounter("daisy_test_ops_total"), c);
}

// ----------------------------------------------------------- concurrency --

// Exactness under contention: relaxed atomic adds lose nothing. Runs in
// the TSAN CI leg (this binary carries the "concurrency" CTest label).
TEST(MetricsConcurrency, EightThreadIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("daisy_test_contended_total");
  Gauge* g = reg.GetGauge("daisy_test_contended_depth");
  Histogram* h = reg.GetHistogram("daisy_test_contended_us", 1, 8);

  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Increment();
        g->Increment();
        h->Observe(t);  // thread t always lands in the same bucket
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c->Value(), kThreads * kPerThread);
  EXPECT_EQ(g->Value(), static_cast<int64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->TotalCount(), kThreads * kPerThread);
  // sum of per-thread observed values: 100k * (0+1+...+7)
  EXPECT_EQ(h->Sum(), kPerThread * 28);
}

// ---------------------------------------------------------------- logger --

TEST(Logger, TailKeepsStructuredJsonLines) {
  Logger& log = Logger::Global();
  const bool was_enabled = true;  // default; restored below
  log.set_stderr_enabled(false);
  log.Log(LogLevel::kInfo, "metrics_test", "hello",
          {{"k", "v"}, {"quote", "a\"b"}});
  log.set_stderr_enabled(was_enabled);

  const std::vector<std::string> tail = Logger::Global().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const std::string& line = tail[0];
  EXPECT_NE(line.find("\"level\":\"info\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"metrics_test\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"msg\":\"hello\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"k\":\"v\""), std::string::npos) << line;
  // JSON escaping of embedded quotes.
  EXPECT_NE(line.find("\"quote\":\"a\\\"b\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts_us\":"), std::string::npos) << line;
}

// ------------------------------------------------------------ integration --

// Pins EXACT process-global counter deltas for a fixed single-threaded
// workload against a persisted engine. No cleaning rules are installed,
// so every query is quiescent (read path) and only the explicit write
// operations touch the WAL — the expected values below are derived from
// the operation list alone (a
// single-threaded writer always commits a batch of one: one record, one
// fsync per operation).
TEST(MetricsIntegration, ExactCountersForKnownWorkload) {
  TempDir tmp;
  Database db;
  Table t("emp",
          Schema({{"salary", ValueType::kDouble}, {"tax", ValueType::kDouble}}));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(1000.0 * (i + 1)), Value(0.01 * (i + 1))}).ok());
  }
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());

  DaisyEngine engine(&db, ConstraintSet());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(tmp.Sub("state")).ok());

  const MetricsRegistry::Snapshot before =
      MetricsRegistry::Global().TakeSnapshot();

  // The known workload: 3 read queries, 2 appends (2 + 3 rows), 1 delete.
  for (int i = 0; i < 3; ++i) {
    Result<QueryReport> r = engine.Query("SELECT * FROM emp WHERE salary > 0");
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_TRUE(r.value().read_path);
  }
  ASSERT_TRUE(engine
                  .AppendRows("emp", {{Value(9000.0), Value(0.05)},
                                      {Value(9100.0), Value(0.06)}})
                  .ok());
  ASSERT_TRUE(engine
                  .AppendRows("emp", {{Value(9200.0), Value(0.07)},
                                      {Value(9300.0), Value(0.08)},
                                      {Value(9400.0), Value(0.09)}})
                  .ok());
  Result<TableDelta> deleted = engine.DeleteRows("emp", {0});
  ASSERT_TRUE(deleted.ok()) << deleted.status();

  const MetricsRegistry::Snapshot after =
      MetricsRegistry::Global().TakeSnapshot();

  auto counter_delta = [&](const std::string& name) -> uint64_t {
    const auto b = before.counters.find(name);
    const auto a = after.counters.find(name);
    const uint64_t bv = b == before.counters.end() ? 0 : b->second;
    const uint64_t av = a == after.counters.end() ? 0 : a->second;
    return av - bv;
  };

  // Queries served: all three on the read path, none on the writer path.
  EXPECT_EQ(counter_delta("daisy_engine_queries_total{path=\"read\"}"), 3u);
  EXPECT_EQ(counter_delta("daisy_engine_queries_total{path=\"write\"}"), 0u);

  // Rows appended/deleted through the engine write API.
  EXPECT_EQ(counter_delta("daisy_engine_rows_appended_total"), 5u);
  EXPECT_EQ(counter_delta("daisy_engine_rows_deleted_total"), 1u);

  // WAL traffic: one record + one fsync per write operation (2 appends +
  // 1 delete), single-threaded so every group-commit batch has size one.
  EXPECT_EQ(counter_delta("daisy_persist_wal_records_total"), 3u);
  EXPECT_EQ(counter_delta("daisy_persist_wal_fsyncs_total"), 3u);

  // The epoch gauge tracks the engine's write epoch (the delete was the
  // last write, so its delta carries the current epoch).
  EXPECT_EQ(after.gauges.at("daisy_engine_epoch"),
            static_cast<int64_t>(deleted.value().engine_epoch));

  // And the rendered page carries all three layers' families.
  const std::string page = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(page.find("daisy_engine_queries_total"), std::string::npos);
  EXPECT_NE(page.find("daisy_persist_wal_fsyncs_total"), std::string::npos);
}

// A checkpoint reports three stages and no total: snapshot encode, the
// atomic file write, and the WAL rotation. Each observes once per
// checkpoint, and together they fit inside the caller's wall time.
TEST(MetricsIntegration, CheckpointStagesSumToTheCheckpoint) {
  TempDir tmp;
  Database db;
  Table t("emp", Schema({{"salary", ValueType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(1000.0)}).ok());
  ASSERT_TRUE(db.AddTable(std::move(t)).ok());
  DaisyEngine engine(&db, ConstraintSet());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(tmp.Sub("state")).ok());
  const std::vector<std::string> kStages = {
      "daisy_persist_checkpoint_stage_us{stage=\"encode\"}",
      "daisy_persist_checkpoint_stage_us{stage=\"write\"}",
      "daisy_persist_checkpoint_stage_us{stage=\"rotate\"}"};

  auto sample = [&] {
    std::vector<std::pair<uint64_t, uint64_t>> out;  // (count, sum)
    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::Global().TakeSnapshot();
    for (const std::string& name : kStages) {
      const auto it = snap.histograms.find(name);
      out.emplace_back(it == snap.histograms.end() ? 0 : it->second.count,
                       it == snap.histograms.end() ? 0 : it->second.sum);
    }
    return out;
  };
  const auto before = sample();
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(engine.Checkpoint().ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  const auto after = sample();
  uint64_t staged_us = 0;
  for (size_t i = 0; i < kStages.size(); ++i) {
    EXPECT_EQ(after[i].first - before[i].first, 2u) << kStages[i];
    staged_us += after[i].second - before[i].second;
  }
  EXPECT_LE(staged_us, wall_us);
  const MetricsRegistry::Snapshot snap =
      MetricsRegistry::Global().TakeSnapshot();
  EXPECT_EQ(snap.histograms.count("daisy_persist_checkpoint_duration_us"), 0u);
  const std::string page = MetricsRegistry::Global().RenderPrometheus();
  EXPECT_NE(
      page.find("daisy_persist_checkpoint_stage_us_count{stage=\"write\"}"),
      std::string::npos);
}

}  // namespace
}  // namespace daisy
