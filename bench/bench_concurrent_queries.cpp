// Concurrent query serving: read-path throughput at 1/2/4/8 client
// threads.
//
// Setup: a 50k-row salary/tax relation under one order DC and one FD,
// prepared and fully cleaned, so every measured query is quiescent and
// served under the engine's shared reader lock. The first leg hammers the
// engine from N client threads and reports queries/sec (the 1-thread row
// is the no-regression baseline against the pre-concurrency engine: same
// plan, one uncontended shared-lock acquire per query). Each query runs on
// its client's thread; parallelism comes only from concurrent clients.
//
// Wall-clock scaling requires physical cores; on a 1-CPU container the
// rows stay flat but the protocol overhead is still visible in the
// 1-thread row.
//
// Two robustness legs ride along (emitted to BENCH_concurrent_queries.json
// with everything else): degraded-read-only serving — the same read mix
// against an engine whose persistence failed mid-checkpoint, which must
// serve at essentially healthy throughput since reads never touch the I/O
// layer — and the WAL-append Env indirection overhead, comparing ingest
// through the default POSIX Env against the counting FaultInjectingEnv
// with no faults armed (the virtual-dispatch + accounting cost; the ratio
// should be ~1).
//
// The writer legs measure group commit: N client threads issue single-row
// appends against a persistence-backed rule-free table through the shared
// batching queue. Each row reports ops/sec, fsyncs/op and records/batch
// from per-leg deltas of the daisy_persist_* metrics registry counters
// (the same instruments the Metrics RPC exposes); concurrent writers push
// records/batch above 1, since ops share one fsync instead of queueing for
// their own. A durability audit closes the section: group-commit writers
// race injected fsync failures at several schedule points, and every op
// acked before the engine degraded must be present exactly once after
// reopening from disk (acked_but_lost is asserted zero, not just
// reported).

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "persist/fault_env.h"

using namespace daisy;
using namespace daisy::bench;

namespace {

constexpr size_t kRows = 50000;
constexpr size_t kQueriesPerThread = 40;

Table BaseTable(uint64_t seed) {
  Rng rng(seed);
  Table t("emp", Schema({{"salary", ValueType::kDouble},
                         {"tax", ValueType::kDouble},
                         {"dept", ValueType::kInt}}));
  t.Reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(0.001)) tax += rng.UniformDouble(0.1, 0.5);
    CheckOk(t.AppendRow({Value(salary), Value(tax),
                         Value(rng.UniformInt(0, 50))}),
            "append base row");
  }
  return t;
}

std::unique_ptr<DaisyEngine> MakeCleanEngine(Database* db) {
  ConstraintSet rules;
  const Table* t = UnwrapOrDie(
      static_cast<const Database*>(db)->GetTable("emp"), "get emp");
  CheckOk(rules.AddFromText("dc: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                            "emp", t->schema()),
          "parse dc");
  DaisyOptions options;
  options.theta_partitions = 64;
  auto engine = std::make_unique<DaisyEngine>(db, std::move(rules), options);
  CheckOk(engine->Prepare(), "Prepare");
  CheckOk(engine->CleanAllRemaining(), "CleanAllRemaining");
  return engine;
}

std::string QueryFor(size_t i) {
  // Rotating selectivities so the result sizes vary like a real read mix.
  static const char* kThresholds[] = {"25000", "50000", "75000", "90000"};
  return std::string("SELECT salary, tax FROM emp WHERE salary >= ") +
         kThresholds[i % 4];
}

void ClientThread(DaisyEngine* engine, size_t* served) {
  for (size_t i = 0; i < kQueriesPerThread; ++i) {
    QueryReport report =
        UnwrapOrDie(engine->Query(QueryFor(i)), "read query");
    if (!report.read_path) {
      std::fprintf(stderr, "[bench] query left the shared read path\n");
      std::exit(1);
    }
    ++*served;
  }
}

/// Fresh /tmp scratch directory for the persistence-backed legs.
std::string ScratchDir() {
  char tmpl[] = "/tmp/daisy_bench_concurrent_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "[bench] mkdtemp failed\n");
    std::exit(1);
  }
  return std::string(dir);
}

}  // namespace

int main() {
  WarmupHeap();
  BenchJsonWriter json("concurrent_queries");

  std::printf("# Concurrent read serving: %zu-row table, fully cleaned, "
              "%zu queries/thread\n",
              kRows, kQueriesPerThread);
  std::printf("# %-16s %10s %10s %12s %9s\n", "clients", "queries",
              "wall_s", "queries/s", "speedup");
  double base_qps = 0;
  for (size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Database db;
    CheckOk(db.AddTable(BaseTable(7)), "add table");
    std::unique_ptr<DaisyEngine> engine = MakeCleanEngine(&db);
    // One warm query so the first measured one pays no cold output path.
    (void)UnwrapOrDie(engine->Query(QueryFor(0)), "warm query");

    std::vector<size_t> served(clients, 0);
    Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      pool.emplace_back(ClientThread, engine.get(), &served[c]);
    }
    for (std::thread& t : pool) t.join();
    const double wall = timer.ElapsedSeconds();
    size_t total = 0;
    for (size_t s : served) total += s;
    const double qps = static_cast<double>(total) / wall;
    if (clients == 1) base_qps = qps;
    std::printf("  %-16zu %10zu %10.3f %12.1f %8.2fx\n", clients, total,
                wall, qps, qps / base_qps);
    BenchResult r;
    r.name = "read_serving_clients_" + std::to_string(clients);
    r.wall_ms = wall * 1000;
    r.counters = {{"queries", static_cast<double>(total)},
                  {"queries_per_s", qps},
                  {"speedup_vs_1", qps / base_qps}};
    json.Add(std::move(r));
  }

  // ----------------------------------------- degraded-read-only serving --
  // Persistence dies mid-checkpoint (injected fsync failure), the engine
  // degrades to read-only, and the same read mix keeps hammering it: reads
  // never touch the Env, so throughput should track the healthy 1-thread
  // row. The health gate is one branch per query.
  std::printf("\n# Degraded-read-only serving: reads after a failed "
              "checkpoint (writers rejected)\n");
  std::printf("# %-16s %10s %12s %14s\n", "clients", "wall_s", "queries/s",
              "vs_healthy_1t");
  for (size_t clients : {size_t{1}, size_t{4}}) {
    Database db;
    CheckOk(db.AddTable(BaseTable(7)), "add table");
    persist::FaultInjectingEnv fenv;  // must outlive the engine's WAL file
    std::unique_ptr<DaisyEngine> engine = MakeCleanEngine(&db);
    CheckOk(engine->EnablePersistence(ScratchDir() + "/state", &fenv),
            "enable persistence");
    fenv.FailNthSync(fenv.syncs() + 1, EIO);
    if (engine->Checkpoint().ok()) {
      std::fprintf(stderr, "[bench] checkpoint survived injected fault\n");
      return 1;
    }
    if (engine->Health().state != EngineHealth::kDegradedReadOnly) {
      std::fprintf(stderr, "[bench] engine did not degrade\n");
      return 1;
    }
    (void)UnwrapOrDie(engine->Query(QueryFor(0)), "warm query");

    std::vector<size_t> served(clients, 0);
    Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      pool.emplace_back(ClientThread, engine.get(), &served[c]);
    }
    for (std::thread& t : pool) t.join();
    const double wall = timer.ElapsedSeconds();
    size_t total = 0;
    for (size_t s : served) total += s;
    const double qps = static_cast<double>(total) / wall;
    std::printf("  %-16zu %10.3f %12.1f %13.2fx\n", clients, wall, qps,
                qps / base_qps);
    BenchResult r;
    r.name = "degraded_read_only_clients_" + std::to_string(clients);
    r.wall_ms = wall * 1000;
    r.counters = {{"queries_per_s", qps},
                  {"ratio_vs_healthy_1t", qps / base_qps}};
    r.config = {{"health", "degraded-read-only"}};
    json.Add(std::move(r));
  }

  // -------------------------------------- WAL-append Env indirection -----
  // Ingest through the default POSIX Env vs the counting FaultInjectingEnv
  // with no faults armed. The table has no rules, so each AppendRows is
  // table mutation + WAL encode/append/fsync — the leg isolates the I/O
  // path the indirection wrapped.
  std::printf("\n# WAL-append Env indirection: %d appends x %d rows, "
              "rule-free table\n", 400, 32);
  std::printf("# %-16s %10s %12s %9s\n", "env", "wall_s", "appends/s",
              "ratio");
  constexpr size_t kAppendBatches = 400;
  constexpr size_t kAppendBatchRows = 32;
  double default_env_aps = 0;
  for (const bool faulting : {false, true}) {
    Database db;
    Table t("log", Schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}}));
    CheckOk(db.AddTable(std::move(t)), "add log table");
    persist::FaultInjectingEnv fenv;  // must outlive the engine's WAL file
    auto engine =
        std::make_unique<DaisyEngine>(&db, ConstraintSet{}, DaisyOptions{});
    CheckOk(engine->Prepare(), "prepare");
    CheckOk(engine->EnablePersistence(ScratchDir() + "/state",
                                      faulting ? &fenv : nullptr),
            "enable persistence");
    Rng rng(11);
    Timer timer;
    for (size_t i = 0; i < kAppendBatches; ++i) {
      std::vector<std::vector<Value>> rows;
      rows.reserve(kAppendBatchRows);
      for (size_t j = 0; j < kAppendBatchRows; ++j) {
        rows.push_back({Value(static_cast<int64_t>(i * kAppendBatchRows + j)),
                        Value(rng.UniformDouble(0, 1))});
      }
      (void)UnwrapOrDie(engine->AppendRows("log", std::move(rows)),
                        "append batch");
    }
    const double wall = timer.ElapsedSeconds();
    const double aps = static_cast<double>(kAppendBatches) / wall;
    if (!faulting) default_env_aps = aps;
    std::printf("  %-16s %10.3f %12.1f %8.2fx\n",
                faulting ? "fault_env" : "posix_default", wall, aps,
                aps / default_env_aps);
    BenchResult r;
    r.name = std::string("wal_append_env_") +
             (faulting ? "fault_counting" : "posix_default");
    r.wall_ms = wall * 1000;
    r.counters = {{"appends_per_s", aps},
                  {"ratio_vs_default", aps / default_env_aps}};
    json.Add(std::move(r));
  }

  // ------------------------------------------ group-commit writer ops ----
  // N client threads append one row each per op against a rule-free
  // persistence-backed table: the op is WAL encode + enqueue + shared
  // fsync, i.e. exactly what daisyd does per Append frame. fsyncs/op and
  // records/batch come from per-leg deltas of the process metrics registry
  // (snapshot before the workload, subtract after — the same
  // daisy_persist_wal_* counters the Metrics RPC serves), so the
  // amortization is visible in the JSON, not just inferred from wall time.
  std::printf("\n# Group-commit writers: single-row appends, rule-free "
              "table, %zu ops/client\n", size_t{200});
  std::printf("# %-8s %10s %12s %11s %14s\n", "clients", "wall_s", "ops/s",
              "fsyncs/op", "records/batch");
  constexpr size_t kWriterOps = 200;  // per client
  for (size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    Database db;
    Table t("log",
            Schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}}));
    CheckOk(db.AddTable(std::move(t)), "add log table");
    auto engine =
        std::make_unique<DaisyEngine>(&db, ConstraintSet{}, DaisyOptions{});
    CheckOk(engine->Prepare(), "prepare");
    CheckOk(engine->EnablePersistence(ScratchDir() + "/state", nullptr),
            "enable persistence");

    // Snapshot after EnablePersistence so recovery/bootstrap I/O stays
    // out of the leg's delta; only the measured appends remain.
    RegistryCounterDelta reg;
    Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&engine, c] {
        for (size_t i = 0; i < kWriterOps; ++i) {
          std::vector<std::vector<Value>> rows;
          rows.push_back(
              {Value(static_cast<int64_t>(c * kWriterOps + i)), Value(0.5)});
          (void)UnwrapOrDie(engine->AppendRows("log", std::move(rows)),
                            "writer append");
        }
      });
    }
    for (std::thread& th : pool) th.join();
    const double wall = timer.ElapsedSeconds();

    const uint64_t syncs = reg.Delta("daisy_persist_wal_fsyncs_total");
    const uint64_t records = reg.Delta("daisy_persist_wal_records_total");
    const uint64_t batches = reg.Delta("daisy_persist_wal_batches_total");
    const double ops = static_cast<double>(clients * kWriterOps);
    const double ops_per_s = ops / wall;
    const double fsyncs_per_op = static_cast<double>(syncs) / ops;
    const double records_per_batch =
        batches == 0 ? 0.0
                     : static_cast<double>(records) /
                           static_cast<double>(batches);
    std::printf("  %-8zu %10.3f %12.1f %11.3f %14.2f\n", clients, wall,
                ops_per_s, fsyncs_per_op, records_per_batch);
    BenchResult r;
    r.name = "group_commit_writers_" + std::to_string(clients);
    r.wall_ms = wall * 1000;
    r.counters = {{"ops", ops},
                  {"ops_per_s", ops_per_s},
                  {"fsyncs_per_op", fsyncs_per_op},
                  {"wal_syncs", static_cast<double>(syncs)},
                  {"wal_records", static_cast<double>(records)},
                  {"wal_batches", static_cast<double>(batches)},
                  {"records_per_batch", records_per_batch}};
    json.Add(std::move(r));
  }

  // --------------------------- durability audit: acked ops vs faults -----
  // Group-commit writers race an injected fsync failure at several points
  // in the sync schedule. An op whose AppendRows returned OK was acked
  // durable; after the engine degrades, the store is reopened from disk
  // and every acked key must be present exactly once. acked_but_lost is a
  // correctness counter — any nonzero value fails the bench outright.
  std::printf("\n# Durability audit: acked group-commit ops vs injected "
              "sync failures\n");
  std::printf("# %-10s %10s %12s %14s\n", "fail_sync", "acked",
              "recovered", "acked_but_lost");
  size_t total_acked = 0;
  size_t total_lost = 0;
  for (const uint64_t fail_at : {uint64_t{4}, uint64_t{17}, uint64_t{61}}) {
    const std::string dir = ScratchDir() + "/state";
    persist::FaultInjectingEnv fenv;
    std::set<int64_t> acked;
    std::mutex acked_mu;
    {
      Database db;
      Table t("log",
              Schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}}));
      CheckOk(db.AddTable(std::move(t)), "add log table");
      auto engine =
          std::make_unique<DaisyEngine>(&db, ConstraintSet{}, DaisyOptions{});
      CheckOk(engine->Prepare(), "prepare");
      CheckOk(engine->EnablePersistence(dir, &fenv), "enable persistence");
      fenv.FailNthSync(fenv.syncs() + fail_at, EIO);

      constexpr size_t kAuditClients = 4;
      constexpr size_t kAuditOps = 50;
      std::vector<std::thread> pool;
      pool.reserve(kAuditClients);
      for (size_t c = 0; c < kAuditClients; ++c) {
        pool.emplace_back([&engine, &acked, &acked_mu, c] {
          for (size_t i = 0; i < kAuditOps; ++i) {
            const int64_t key = static_cast<int64_t>(c * kAuditOps + i);
            std::vector<std::vector<Value>> rows;
            rows.push_back({Value(key), Value(0.5)});
            if (!engine->AppendRows("log", std::move(rows)).ok()) break;
            std::lock_guard<std::mutex> lock(acked_mu);
            acked.insert(key);
          }
        });
      }
      for (std::thread& th : pool) th.join();
    }

    Database recovered_db;
    std::unique_ptr<DaisyEngine> reopened = UnwrapOrDie(
        DaisyEngine::Open(dir, &recovered_db), "reopen after fault");
    QueryReport report =
        UnwrapOrDie(reopened->Query("SELECT k FROM log"), "audit query");
    std::multiset<int64_t> recovered;
    for (size_t row = 0; row < report.output.result.num_rows(); ++row) {
      recovered.insert(
          report.output.result.cell(row, 0).MostProbable().as_int());
    }
    size_t lost = 0;
    for (const int64_t key : acked) {
      if (recovered.count(key) != 1) ++lost;
    }
    std::printf("  %-10zu %10zu %12zu %14zu\n",
                static_cast<size_t>(fail_at), acked.size(), recovered.size(),
                lost);
    total_acked += acked.size();
    total_lost += lost;
    BenchResult r;
    r.name = "group_commit_fault_audit_sync_" + std::to_string(fail_at);
    r.counters = {{"acked_ops", static_cast<double>(acked.size())},
                  {"recovered_rows", static_cast<double>(recovered.size())},
                  {"acked_but_lost", static_cast<double>(lost)}};
    json.Add(std::move(r));
  }
  if (total_lost != 0) {
    std::fprintf(stderr, "[bench] %zu acked ops lost across the fault "
                 "sweep (of %zu acked)\n", total_lost, total_acked);
    return 1;
  }
  return 0;
}
