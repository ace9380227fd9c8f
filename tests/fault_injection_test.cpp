// Fault-schedule sweeps over the injectable I/O layer (persist/fault_env.h)
// and the engine health machine they drive.
//
// The core harness runs one fixed ingest + writer-query + checkpoint
// workload against a persisted engine once with no faults to learn the
// exact Env call/sync/byte trace, then re-runs it once per schedule point
// with a fault armed there: EIO at every call index, a simulated crash at
// every call index, EIO at every fsync ordinal, and ENOSPC at swept byte
// budgets (torn frames). After every faulted run the engine must either
// have completed all operations or sit in degraded-read-only — reads still
// serving, writers rejected with kDegraded — and reopening the directory
// with a clean Env must yield an engine observably bit-identical to a
// never-persisted reference that executed exactly the acknowledged
// operations (plus, when the failing record itself became durable before
// its fsync failed, that one in-flight operation — the classic
// crash-consistency ambiguity, resolved deterministically via the engine
// epoch).
//
// Satellites covered here too: orphan *.tmp sweeping in Open and
// Checkpoint, TryRecover() semantics (service restoration, durability of
// the op that degraded the engine, capped-backoff gating), the health
// transition counters and log lines, and the cut-query volatility
// contract (a timed-out writer query is never WAL-logged).

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/logger.h"
#include "common/metrics.h"
#include "persist/fault_env.h"
#include "persist/format.h"
#include "persist/io_util.h"
#include "persist_test_util.h"
#include "storage/database.h"

namespace daisy {
namespace {

using testutil::ExpectEnginesEquivalent;
using testutil::TempDir;
using testutil::WalCounts;

Schema EmpSchema() {
  return Schema({{"zip", ValueType::kInt},
                 {"city", ValueType::kString},
                 {"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble}});
}

// Deliberate violations: zip 1 carries two cities (FD phi), row 5 breaks
// the salary/tax monotonicity against row 6 (DC psi).
std::vector<std::vector<Value>> BaseRows() {
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

ConstraintSet EmpRules() {
  ConstraintSet rules;
  const Schema schema = EmpSchema();
  EXPECT_TRUE(rules.AddFromText("phi: FD zip -> city", "emp", schema).ok());
  EXPECT_TRUE(rules
                  .AddFromText(
                      "psi: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                      "emp", schema)
                  .ok());
  return rules;
}

/// Database + engine with matched lifetimes (engine destroyed first).
struct RunState {
  Database db;
  std::unique_ptr<DaisyEngine> engine;
};

/// emp (under rules) plus `plain` — a rule-free table whose queries are
/// always quiescent pure reads: probing it reports the engine epoch
/// without mutating or logging anything.
void BuildEngine(RunState* run, DaisyOptions options = {}) {
  Table emp("emp", EmpSchema());
  for (const std::vector<Value>& row : BaseRows()) {
    ASSERT_TRUE(emp.AppendRow(row).ok());
  }
  ASSERT_TRUE(run->db.AddTable(std::move(emp)).ok());
  Table plain("plain", Schema({{"k", ValueType::kInt}}));
  ASSERT_TRUE(plain.AppendRow({Value(int64_t{7})}).ok());
  ASSERT_TRUE(run->db.AddTable(std::move(plain)).ok());
  run->engine = std::make_unique<DaisyEngine>(&run->db, EmpRules(), options);
  ASSERT_TRUE(run->engine->Prepare().ok());
}

uint64_t EngineEpoch(DaisyEngine* engine) {
  Result<QueryReport> r = engine->Query("SELECT k FROM plain");
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok()) return ~0ULL;
  EXPECT_TRUE(r.value().read_path);
  return r.value().epoch;
}

struct Op {
  enum class Kind { kAppend, kDelete, kQuery, kCleanAll, kCheckpoint };
  Kind kind;
  std::vector<std::vector<Value>> rows;
  std::vector<RowId> ids;
  std::string sql;
};

Op AppendOp(std::vector<std::vector<Value>> rows) {
  Op op;
  op.kind = Op::Kind::kAppend;
  op.rows = std::move(rows);
  return op;
}

Op DeleteOp(std::vector<RowId> ids) {
  Op op;
  op.kind = Op::Kind::kDelete;
  op.ids = std::move(ids);
  return op;
}

Op QueryOp(std::string sql) {
  Op op;
  op.kind = Op::Kind::kQuery;
  op.sql = std::move(sql);
  return op;
}

Op CleanAllOp() {
  Op op;
  op.kind = Op::Kind::kCleanAll;
  return op;
}

Op CheckpointOp() {
  Op op;
  op.kind = Op::Kind::kCheckpoint;
  return op;
}

/// The fixed workload: appends (with fresh violations), writer and
/// read-path queries, a mid-workload checkpoint rotation, a delete, and a
/// CleanAllRemaining — every WAL record kind plus the rotation path.
std::vector<Op> MakeOps() {
  std::vector<Op> ops;
  ops.push_back(AppendOp(
      {{Value(int64_t{2}), Value("SF"), Value(2200.0), Value(0.011)},
       {Value(int64_t{1}), Value("LA"), Value(1300.0), Value(0.3)}}));
  ops.push_back(QueryOp("SELECT zip, city FROM emp WHERE zip == 1"));
  ops.push_back(QueryOp("SELECT city FROM emp WHERE salary > 1500"));
  ops.push_back(CheckpointOp());
  ops.push_back(AppendOp(
      {{Value(int64_t{3}), Value("SEA"), Value(3600.0), Value(0.018)}}));
  ops.push_back(DeleteOp({RowId{2}}));
  ops.push_back(QueryOp(
      "SELECT zip, COUNT(*) FROM emp WHERE tax > 0.001 GROUP BY zip"));
  ops.push_back(CleanAllOp());
  ops.push_back(AppendOp(
      {{Value(int64_t{4}), Value("PDX"), Value(4100.0), Value(0.0205)}}));
  ops.push_back(QueryOp("SELECT * FROM emp WHERE zip == 4"));
  return ops;
}

Status ApplyOp(DaisyEngine* engine, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAppend:
      return engine->AppendRows("emp", op.rows).status();
    case Op::Kind::kDelete:
      return engine->DeleteRows("emp", op.ids).status();
    case Op::Kind::kQuery:
      return engine->Query(op.sql).status();
    case Op::Kind::kCleanAll:
      return engine->CleanAllRemaining();
    case Op::Kind::kCheckpoint:
      return engine->Checkpoint();
  }
  return Status::Internal("unreachable");
}

const std::vector<std::string> kProbeQueries = {
    "SELECT * FROM emp WHERE zip == 1",
    "SELECT city FROM emp WHERE salary > 1800",
    "SELECT zip, COUNT(*) FROM emp GROUP BY zip",
    "SELECT * FROM emp WHERE tax > 0.3",
    "SELECT k FROM plain",
};

/// Clean-run Env trace: schedule points are expressed against these.
struct CleanTrace {
  uint64_t setup_calls = 0;  ///< calls consumed by EnablePersistence
  uint64_t total_calls = 0;
  uint64_t setup_syncs = 0;
  uint64_t total_syncs = 0;
  uint64_t setup_bytes = 0;
  uint64_t total_bytes = 0;
};

CleanTrace MeasureCleanRun() {
  CleanTrace trace;
  TempDir tmp;
  persist::FaultInjectingEnv fenv;
  RunState run;
  BuildEngine(&run);
  EXPECT_TRUE(run.engine->EnablePersistence(tmp.Sub("state"), &fenv).ok());
  trace.setup_calls = fenv.calls();
  trace.setup_syncs = fenv.syncs();
  trace.setup_bytes = fenv.bytes_written();
  for (const Op& op : MakeOps()) {
    EXPECT_TRUE(ApplyOp(run.engine.get(), op).ok());
  }
  trace.total_calls = fenv.calls();
  trace.total_syncs = fenv.syncs();
  trace.total_bytes = fenv.bytes_written();
  EXPECT_EQ(fenv.faults_fired(), 0u);
  return trace;
}

/// Runs the workload with `arm` configuring the fault schedule right after
/// EnablePersistence, then verifies the degradation contract and the
/// recovery differential. Every schedule point must leave the engine
/// either fully complete or degraded-read-only — never failed, never with
/// torn recoverable state.
/// Sets *fault_fired when the armed schedule injected at least one error
/// and *degraded when the engine entered read-only because of it. Every
/// schedule point the sweeps pass lies inside the measured clean trace, so
/// the fault always fires; whether it degrades depends on whether it hit a
/// best-effort call (old-generation cleanup, tmp sweeps) whose failure is
/// absorbed.
void RunFaultedWorkloadAndVerify(
    const std::function<void(persist::FaultInjectingEnv*)>& arm,
    const std::string& label, bool* fault_fired, bool* degraded) {
  SCOPED_TRACE(label);
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  persist::FaultInjectingEnv fenv;
  RunState run;
  BuildEngine(&run);
  ASSERT_TRUE(run.engine->EnablePersistence(dir, &fenv).ok());
  arm(&fenv);

  const std::vector<Op> ops = MakeOps();
  int failed_op = -1;
  Status fail_status = Status::OK();
  std::vector<size_t> acked_prefix;  // acked ops before the first failure
  for (size_t i = 0; i < ops.size(); ++i) {
    const Status s = ApplyOp(run.engine.get(), ops[i]);
    if (s.ok()) {
      if (failed_op < 0) acked_prefix.push_back(i);
    } else if (failed_op < 0) {
      failed_op = static_cast<int>(i);
      fail_status = s;
    }
  }

  if (failed_op >= 0) {
    // Graceful degradation: the failing operation surfaced a typed
    // kDegraded status, the health machine moved to read-only, reads keep
    // serving without touching the Env, and writers are rejected.
    EXPECT_EQ(fail_status.code(), StatusCode::kDegraded) << fail_status;
    const EngineHealthInfo health = run.engine->Health();
    EXPECT_EQ(health.state, EngineHealth::kDegradedReadOnly);
    EXPECT_FALSE(health.cause.ok());
    EXPECT_TRUE(run.engine->Query("SELECT k FROM plain").ok());
    const Status writer = run.engine
                              ->AppendRows("emp", {{Value(int64_t{9}),
                                                    Value("LA"), Value(1.0),
                                                    Value(0.0)}})
                              .status();
    EXPECT_EQ(writer.code(), StatusCode::kDegraded) << writer;
    EXPECT_EQ(run.engine->Checkpoint().code(), StatusCode::kDegraded);
  } else {
    EXPECT_EQ(run.engine->Health().state, EngineHealth::kHealthy);
  }
  run.engine.reset();

  // Restart against the real filesystem: the on-disk state must recover
  // into an engine equivalent to a never-persisted reference executing
  // exactly the acknowledged prefix — plus the one in-flight operation iff
  // its WAL record became durable before the fault (fsync failed after the
  // frame landed). The engine epoch of the recovered state decides that
  // ambiguity deterministically.
  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();

  RunState ref;
  BuildEngine(&ref);
  for (size_t i : acked_prefix) {
    if (ops[i].kind == Op::Kind::kCheckpoint) continue;  // no logical effect
    ASSERT_TRUE(ApplyOp(ref.engine.get(), ops[i]).ok());
  }
  const uint64_t rec_epoch = EngineEpoch(recovered.value().get());
  if (rec_epoch != EngineEpoch(ref.engine.get())) {
    ASSERT_GE(failed_op, 0);
    ASSERT_NE(ops[failed_op].kind, Op::Kind::kCheckpoint);
    ASSERT_TRUE(ApplyOp(ref.engine.get(), ops[failed_op]).ok());
    ASSERT_EQ(rec_epoch, EngineEpoch(ref.engine.get()));
  }
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
  *fault_fired = fenv.faults_fired() > 0;
  *degraded = failed_op >= 0;
}

TEST(FaultSweep, EioAtEveryCallIndex) {
  const CleanTrace trace = MeasureCleanRun();
  ASSERT_GT(trace.total_calls, trace.setup_calls);
  for (uint64_t idx = trace.setup_calls; idx < trace.total_calls; ++idx) {
    bool fired = false, degraded = false;
    RunFaultedWorkloadAndVerify(
        [idx](persist::FaultInjectingEnv* env) { env->FailCallAt(idx, EIO); },
        "EIO at call " + std::to_string(idx), &fired, &degraded);
    EXPECT_TRUE(fired) << "EIO at call " << idx << " never fired";
  }
}

TEST(FaultSweep, CrashAtEveryCallIndex) {
  const CleanTrace trace = MeasureCleanRun();
  for (uint64_t idx = trace.setup_calls; idx < trace.total_calls; ++idx) {
    bool fired = false, degraded = false;
    RunFaultedWorkloadAndVerify(
        [idx](persist::FaultInjectingEnv* env) { env->CrashAtCall(idx); },
        "crash at call " + std::to_string(idx), &fired, &degraded);
    // A crash fails every call from idx on, and the workload always makes
    // a later durability-critical call — so a crash must degrade.
    EXPECT_TRUE(degraded) << "crash at call " << idx << " did not degrade";
  }
}

TEST(FaultSweep, EioAtEveryFsync) {
  const CleanTrace trace = MeasureCleanRun();
  ASSERT_GT(trace.total_syncs, trace.setup_syncs);
  for (uint64_t n = trace.setup_syncs + 1; n <= trace.total_syncs; ++n) {
    bool fired = false, degraded = false;
    RunFaultedWorkloadAndVerify(
        [n](persist::FaultInjectingEnv* env) { env->FailNthSync(n, EIO); },
        "EIO at fsync " + std::to_string(n), &fired, &degraded);
    EXPECT_TRUE(fired) << "EIO at fsync " << n << " never fired";
  }
}

TEST(FaultSweep, EnospcAtSweptWriteBudgets) {
  const CleanTrace trace = MeasureCleanRun();
  ASSERT_GT(trace.total_bytes, trace.setup_bytes);
  const uint64_t span = trace.total_bytes - trace.setup_bytes;
  const uint64_t step = span / 24 == 0 ? 1 : span / 24;
  for (uint64_t budget = trace.setup_bytes; budget < trace.total_bytes;
       budget += step) {
    // Budgets that land mid-frame produce short writes — the torn-tail
    // rule of the WAL reader is what keeps recovery exact.
    bool fired = false, degraded = false;
    RunFaultedWorkloadAndVerify(
        [budget](persist::FaultInjectingEnv* env) {
          env->SetWriteBudget(budget);
        },
        "ENOSPC past byte " + std::to_string(budget), &fired, &degraded);
    // Every write in the trace is durability-critical, so a budget below
    // the clean run's byte count must degrade the engine.
    EXPECT_TRUE(degraded) << "budget " << budget << " never exhausted";
  }
}

void PlantFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "partial atomic write leftovers";
  ASSERT_EQ(std::fwrite(junk, 1, sizeof(junk), f), sizeof(junk));
  ASSERT_EQ(std::fclose(f), 0);
}

bool AnyTmpEntry(const std::string& dir) {
  Result<std::vector<std::string>> names = persist::ListDirectory(dir);
  EXPECT_TRUE(names.ok()) << names.status();
  if (!names.ok()) return true;
  for (const std::string& name : names.value()) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      return true;
    }
  }
  return false;
}

// Regression: a crash between an atomic write's temp-file creation and its
// rename used to leave `*.tmp` litter forever; Open now sweeps it.
TEST(OrphanTmp, SweptOnOpen) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  {
    RunState live;
    BuildEngine(&live);
    ASSERT_TRUE(live.engine->EnablePersistence(dir).ok());
    ASSERT_TRUE(live.engine
                    ->AppendRows("emp", {{Value(int64_t{2}), Value("NY"),
                                          Value(2500.0), Value(0.0125)}})
                    .ok());
  }
  PlantFile(dir + "/snapshot-000001.dsnap.tmp");
  PlantFile(dir + "/garbage.tmp");
  ASSERT_TRUE(AnyTmpEntry(dir));

  Database db;
  Result<std::unique_ptr<DaisyEngine>> recovered = DaisyEngine::Open(dir, &db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(AnyTmpEntry(dir));
  EXPECT_TRUE(recovered.value()->Query("SELECT * FROM emp WHERE zip == 2").ok());
}

TEST(OrphanTmp, SweptOnCheckpoint) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir).ok());
  PlantFile(dir + "/stale.tmp");
  ASSERT_TRUE(AnyTmpEntry(dir));
  ASSERT_TRUE(live.engine->Checkpoint().ok());
  EXPECT_FALSE(AnyTmpEntry(dir));
}

TEST(TryRecover, RestoresServiceAndDurability) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  persist::FaultInjectingEnv fenv;
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir, &fenv).ok());

  // Fail the next fsync: the WAL record of the append lands but is not
  // durable — the op applies in memory, returns kDegraded, and the engine
  // goes read-only.
  const std::vector<std::vector<Value>> first = {
      {Value(int64_t{2}), Value("SF"), Value(2300.0), Value(0.0115)}};
  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  const Status degraded = live.engine->AppendRows("emp", first).status();
  EXPECT_EQ(degraded.code(), StatusCode::kDegraded) << degraded;
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kDegradedReadOnly);
  EXPECT_TRUE(live.engine->Query("SELECT k FROM plain").ok());
  EXPECT_EQ(live.engine->CleanAllRemaining().code(), StatusCode::kDegraded);

  // TryRecover with the fault cleared: fresh generation, healthy again,
  // and the append whose durability failed is now snapshotted — durable.
  fenv.ClearFaults();
  ASSERT_TRUE(live.engine->TryRecover().ok());
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kHealthy);
  EXPECT_TRUE(live.engine->Health().cause.ok());

  const std::vector<std::vector<Value>> second = {
      {Value(int64_t{3}), Value("SEA"), Value(3700.0), Value(0.0185)}};
  ASSERT_TRUE(live.engine->AppendRows("emp", second).ok());
  live.engine.reset();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunState ref;
  BuildEngine(&ref);
  ASSERT_TRUE(ref.engine->AppendRows("emp", first).ok());
  ASSERT_TRUE(ref.engine->AppendRows("emp", second).ok());
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

TEST(TryRecover, OnHealthyEngineIsRejected) {
  RunState live;
  BuildEngine(&live);
  EXPECT_EQ(live.engine->TryRecover().code(), StatusCode::kInvalidArgument);
}

TEST(TryRecover, BackoffGatesRetries) {
  TempDir tmp;
  persist::FaultInjectingEnv fenv;
  RunState live;
  DaisyOptions options;
  options.recover_backoff_ms = 30000;  // deliberately huge: the second
  options.recover_backoff_max_ms = 60000;  // attempt must land inside it
  BuildEngine(&live, options);
  ASSERT_TRUE(live.engine->EnablePersistence(tmp.Sub("state"), &fenv).ok());

  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  ASSERT_FALSE(live.engine
                   ->AppendRows("emp", {{Value(int64_t{2}), Value("NY"),
                                         Value(2500.0), Value(0.0125)}})
                   .ok());
  ASSERT_EQ(live.engine->Health().state, EngineHealth::kDegradedReadOnly);

  // Keep the I/O layer broken: the first (always-admitted) attempt fails
  // and opens the backoff window.
  fenv.ClearFaults();
  fenv.CrashAtCall(fenv.calls());
  const Status first = live.engine->TryRecover();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.code(), StatusCode::kResourceExhausted) << first;
  EXPECT_EQ(live.engine->Health().recover_attempts, 1u);

  // Inside the window: rejected as kResourceExhausted WITHOUT touching the
  // Env — even after the fault is cleared, time gates the retry.
  fenv.ClearFaults();
  const uint64_t calls_before = fenv.calls();
  const Status second = live.engine->TryRecover();
  EXPECT_EQ(second.code(), StatusCode::kResourceExhausted) << second;
  EXPECT_EQ(fenv.calls(), calls_before);
  EXPECT_EQ(live.engine->Health().recover_attempts, 1u);
  EXPECT_GT(live.engine->Health().backoff_remaining_ms, 0);
}

TEST(TryRecover, SucceedsAfterBackoffWindow) {
  TempDir tmp;
  persist::FaultInjectingEnv fenv;
  RunState live;
  DaisyOptions options;
  options.recover_backoff_ms = 1;
  options.recover_backoff_max_ms = 4;
  BuildEngine(&live, options);
  ASSERT_TRUE(live.engine->EnablePersistence(tmp.Sub("state"), &fenv).ok());

  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  ASSERT_FALSE(live.engine
                   ->AppendRows("emp", {{Value(int64_t{2}), Value("NY"),
                                         Value(2500.0), Value(0.0125)}})
                   .ok());
  fenv.CrashAtCall(fenv.calls());
  ASSERT_FALSE(live.engine->TryRecover().ok());  // opens the 1 ms window
  fenv.ClearFaults();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(live.engine->TryRecover().ok());
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kHealthy);
  EXPECT_TRUE(live.engine
                  ->AppendRows("emp", {{Value(int64_t{3}), Value("SEA"),
                                        Value(3600.0), Value(0.018)}})
                  .ok());
}

TEST(HealthMachine, TransitionLogRecordsRoundTrip) {
  TempDir tmp;
  persist::FaultInjectingEnv fenv;
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(tmp.Sub("state"), &fenv).ok());
  ASSERT_EQ(live.engine->Health().state, EngineHealth::kHealthy);

  // Each transition is recorded outside the engine: one by-target-state
  // counter increment and one structured log line. The marker line bounds
  // the log lines this test produced.
  const MetricsRegistry::Snapshot before =
      MetricsRegistry::Global().TakeSnapshot();
  const std::string marker = "transition round trip start";
  LogInfo("fault_injection_test", marker);

  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  ASSERT_FALSE(live.engine
                   ->AppendRows("emp", {{Value(int64_t{2}), Value("NY"),
                                         Value(2500.0), Value(0.0125)}})
                   .ok());
  fenv.ClearFaults();
  ASSERT_TRUE(live.engine->TryRecover().ok());
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kHealthy);

  const MetricsRegistry::Snapshot after =
      MetricsRegistry::Global().TakeSnapshot();
  auto transitions_to = [&](const char* state) -> uint64_t {
    const std::string name =
        std::string("daisy_engine_health_transitions_total{to=\"") + state +
        "\"}";
    const auto b = before.counters.find(name);
    const auto a = after.counters.find(name);
    return (a == after.counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
  };
  EXPECT_EQ(transitions_to("degraded-read-only"), 1u);
  EXPECT_EQ(transitions_to("healthy"), 1u);
  EXPECT_EQ(transitions_to("failed"), 0u);

  std::vector<std::string> logged;
  bool after_marker = false;
  for (const std::string& line : Logger::Global().Tail()) {
    if (line.find(marker) != std::string::npos) {
      after_marker = true;
      logged.clear();
    } else if (after_marker &&
               line.find("\"msg\":\"health transition\"") !=
                   std::string::npos) {
      logged.push_back(line);
    }
  }
  ASSERT_TRUE(after_marker);
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_NE(logged[0].find("\"to\":\"degraded-read-only\""),
            std::string::npos)
      << logged[0];
  EXPECT_NE(logged[0].find("fault injection"), std::string::npos)
      << logged[0];
  EXPECT_NE(logged[1].find("\"from\":\"degraded-read-only\""),
            std::string::npos)
      << logged[1];
  EXPECT_NE(logged[1].find("\"to\":\"healthy\""), std::string::npos)
      << logged[1];
}

// The durability half of the monotone-prefix contract: a timed-out writer
// query keeps its (valid, partial) cleaning volatile — the WAL never
// records it, so a restart recovers the pre-query state exactly.
TEST(CutQueries, StayVolatileAcrossRestart) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir).ok());

  QueryLimits limits;
  limits.timeout_ms = 0;
  Result<QueryReport> cut =
      live.engine->Query("SELECT zip, city FROM emp WHERE zip == 1", limits);
  ASSERT_TRUE(cut.ok()) << cut.status();
  EXPECT_EQ(cut.value().termination, QueryTermination::kTimeout);
  live.engine.reset();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunState ref;  // never ran the cut query at all
  BuildEngine(&ref);
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

// ---------------------------------------------------------------------
// Group commit under faults. The queue's hold hook makes the batch
// deterministic: three writer threads enqueue their records, the test
// arms the fault, releases the hold, and exactly one leader commits all
// three records with one write + one fsync.

struct BatchAppendResult {
  Status status = Status::OK();
};

/// Launches one AppendRows("plain", {k}) per entry of `keys`, in order —
/// thread i+1 only starts once record i is pending, so the batch's queue
/// (and epoch, and replay) order is exactly `keys`. Returns with every
/// record pending and the commits held.
void LaunchHeldAppends(DaisyEngine* engine, std::vector<int64_t> keys,
                       std::vector<BatchAppendResult>* results,
                       std::vector<std::thread>* threads) {
  persist::GroupCommitQueue* queue = engine->wal_queue_for_test();
  ASSERT_NE(queue, nullptr);
  queue->TestHoldCommits(true);
  results->resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int64_t key = keys[i];
    threads->emplace_back([engine, results, i, key] {
      (*results)[i].status =
          engine->AppendRows("plain", {{Value(key)}}).status();
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (queue->TestPendingDepth() < i + 1) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "append " << i << " never reached the commit queue";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

/// Reference that executed the recovered WAL's records (in file order —
/// the order the batch actually committed) on top of the base state.
void ExpectRecoveredEqualsWalReference(const std::string& dir,
                                       uint64_t generation) {
  char wal_name[32];
  std::snprintf(wal_name, sizeof(wal_name), "/wal-%06llu.dwal",
                static_cast<unsigned long long>(generation));
  Result<persist::WalContents> wal = persist::ReadWal(dir + wal_name);
  ASSERT_TRUE(wal.ok()) << wal.status();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();

  RunState ref;
  BuildEngine(&ref);
  for (const std::string& payload : wal.value().payloads) {
    Result<persist::WalRecord> record = persist::DecodeWalRecord(payload);
    ASSERT_TRUE(record.ok()) << record.status();
    ASSERT_EQ(record.value().type, persist::kWalAppendRows);
    ASSERT_TRUE(ref.engine
                    ->AppendRows(record.value().table,
                                 std::move(record.value().rows))
                    .ok());
  }
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

// FailNthSync hits the batched commit: every op in the batch reports
// kDegraded, none is acked, and a clean-env reopen equals a reference
// that executed exactly the acked prefix — here empty — plus whatever
// records provably landed in the log before the failed fsync (the batch
// frame was written; only its durability failed). The WAL file itself is
// the deterministic arbiter of that crash-consistency ambiguity.
TEST(GroupCommitFaults, FailedBatchedSyncDegradesAllAcksNone) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  persist::FaultInjectingEnv fenv;
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir, &fenv).ok());

  std::vector<BatchAppendResult> results;
  std::vector<std::thread> threads;
  LaunchHeldAppends(live.engine.get(), {101, 102, 103}, &results, &threads);
  // All three records are pending and no I/O is in flight: the next fsync
  // is the batch's shared one.
  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  live.engine->wal_queue_for_test()->TestHoldCommits(false);
  for (std::thread& t : threads) t.join();

  ASSERT_GT(fenv.faults_fired(), 0u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kDegraded)
        << "op " << i << ": " << results[i].status;
  }
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kDegradedReadOnly);
  // Reads keep serving; a fresh writer is rejected, and so is a writer
  // enqueued against the poisoned queue (no record may land behind the
  // failed batch until rotation).
  EXPECT_TRUE(live.engine->Query("SELECT k FROM plain").ok());
  EXPECT_EQ(live.engine
                ->AppendRows("plain", {{Value(int64_t{104})}})
                .status()
                .code(),
            StatusCode::kDegraded);
  live.engine.reset();

  ExpectRecoveredEqualsWalReference(dir, /*generation=*/1);
}

// The crash variant: the batch's write() itself fails and nothing lands.
// The clean-env reopen must equal the base state exactly — zero of the
// unacked ops may survive.
TEST(GroupCommitFaults, CrashedBatchWriteLosesWholeBatch) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  persist::FaultInjectingEnv fenv;
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir, &fenv).ok());

  std::vector<BatchAppendResult> results;
  std::vector<std::thread> threads;
  LaunchHeldAppends(live.engine.get(), {201, 202, 203}, &results, &threads);
  fenv.CrashAtCall(fenv.calls());  // next Env call (the batch write) fails
  live.engine->wal_queue_for_test()->TestHoldCommits(false);
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].status.code(), StatusCode::kDegraded)
        << "op " << i << ": " << results[i].status;
  }
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kDegradedReadOnly);
  live.engine.reset();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunState ref;  // no op was acked; the reference executes none
  BuildEngine(&ref);
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

// The happy path of the same harness: a held batch of three commits with
// one write + one fsync, every op acks, and recovery replays the batch in
// its WAL order.
TEST(GroupCommitFaults, HeldBatchCommitsTogetherAndRecovers) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir).ok());

  const WalCounts before = WalCounts::Now();
  std::vector<BatchAppendResult> results;
  std::vector<std::thread> threads;
  LaunchHeldAppends(live.engine.get(), {301, 302, 303}, &results, &threads);
  live.engine->wal_queue_for_test()->TestHoldCommits(false);
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].status.ok()) << "op " << i << ": "
                                        << results[i].status;
  }

  const WalCounts delta = WalCounts::Now() - before;
  EXPECT_EQ(delta.records, 3u);
  EXPECT_EQ(delta.batches, 1u);
  EXPECT_EQ(delta.fsyncs, 1u);
  live.engine.reset();

  ExpectRecoveredEqualsWalReference(dir, /*generation=*/1);
}

// TryRecover after a failed batched commit: rotation resets the queue's
// poison, the engine re-arms on a fresh generation, and the previously
// failed (unacked, in-memory) ops become durable via the new snapshot —
// the same semantics the single-op TryRecover contract pins.
TEST(GroupCommitFaults, TryRecoverResetsPoisonedQueue) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  persist::FaultInjectingEnv fenv;
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir, &fenv).ok());

  std::vector<BatchAppendResult> results;
  std::vector<std::thread> threads;
  LaunchHeldAppends(live.engine.get(), {401, 402}, &results, &threads);
  fenv.FailNthSync(fenv.syncs() + 1, EIO);
  live.engine->wal_queue_for_test()->TestHoldCommits(false);
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(live.engine->Health().state, EngineHealth::kDegradedReadOnly);

  fenv.ClearFaults();
  ASSERT_TRUE(live.engine->TryRecover().ok());
  EXPECT_EQ(live.engine->Health().state, EngineHealth::kHealthy);
  // The queue is re-armed on the fresh WAL: new writers commit again.
  ASSERT_TRUE(live.engine->AppendRows("plain", {{Value(int64_t{403})}}).ok());
  live.engine.reset();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunState ref;
  BuildEngine(&ref);
  // The recovery snapshot captured the in-memory effects of the failed
  // batch (lock order: 401 before 402) plus the post-recovery append.
  ASSERT_TRUE(ref.engine->AppendRows("plain", {{Value(int64_t{401})}}).ok());
  ASSERT_TRUE(ref.engine->AppendRows("plain", {{Value(int64_t{402})}}).ok());
  ASSERT_TRUE(ref.engine->AppendRows("plain", {{Value(int64_t{403})}}).ok());
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

// Row-limited queries complete their cleaning (the limit only truncates
// output), so they ARE logged and replay to the same state.
TEST(CutQueries, RowLimitedQueriesReplayDurably) {
  TempDir tmp;
  const std::string dir = tmp.Sub("state");
  RunState live;
  BuildEngine(&live);
  ASSERT_TRUE(live.engine->EnablePersistence(dir).ok());

  QueryLimits limits;
  limits.row_limit = 1;
  Result<QueryReport> limited =
      live.engine->Query("SELECT zip, city FROM emp WHERE zip == 1", limits);
  ASSERT_TRUE(limited.ok()) << limited.status();
  EXPECT_EQ(limited.value().termination, QueryTermination::kRowLimit);
  EXPECT_EQ(limited.value().output.result.num_rows(), 1u);
  live.engine.reset();

  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir, &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  RunState ref;
  BuildEngine(&ref);
  // The replayed statement runs unlimited, but the row limit never changed
  // cleaning state — only the returned rows — so the states agree.
  ASSERT_TRUE(
      ref.engine->Query("SELECT zip, city FROM emp WHERE zip == 1").ok());
  ExpectEnginesEquivalent(recovered.value().get(), ref.engine.get(),
                          kProbeQueries);
}

}  // namespace
}  // namespace daisy
