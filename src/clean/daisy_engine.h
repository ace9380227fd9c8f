// DaisyEngine — the public entry point of the library.
//
// A DaisyEngine wraps a dirty Database plus a ConstraintSet and executes
// SPJ / group-by queries whose plans are augmented with cleaning operators
// (Section 6). Each query incrementally repairs the data it touches,
// turning the dataset into a probabilistic dataset; the per-rule cost model
// can decide mid-workload to clean the remaining dirty part wholesale.
//
// Typical use:
//
//   Database db; ... load tables ...
//   ConstraintSet rules;
//   rules.AddFromText("phi: FD zip -> city", "cities", schema);
//   DaisyEngine daisy(&db, std::move(rules), DaisyOptions{});
//   daisy.Prepare();
//   auto report = daisy.Query("SELECT zip FROM cities WHERE city = 'LA'");

#ifndef DAISY_CLEAN_DAISY_ENGINE_H_
#define DAISY_CLEAN_DAISY_ENGINE_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clean/clean_operators.h"
#include "clean/cost_model.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "constraints/constraint_set.h"
#include "detect/fd_delta.h"
#include "persist/group_commit.h"
#include "plan/planner.h"
#include "query/executor.h"
#include "storage/database.h"

namespace daisy {

namespace persist {
class Env;
struct EngineSnapshot;
}  // namespace persist

/// Engine configuration.
struct DaisyOptions {
  enum class Mode {
    kIncremental,  ///< always clean on demand (Daisy w/o cost model)
    kAdaptive,     ///< cost model may switch to full cleaning (Daisy)
  };
  Mode mode = Mode::kAdaptive;
  /// DC estimated-accuracy threshold (Algorithm 2 fallback).
  double accuracy_threshold = 0.5;
  /// Theta-join matrix partitions (p).
  size_t theta_partitions = 16;
  /// Cost-based optimizer pass (src/plan/optimizer.h): DP join ordering
  /// and cleanσ placement between Planner lowering and execution. Off =
  /// the syntactic left-deep plan. Outputs
  /// are bit-identical either way; cleanσ deferral may leave *less*
  /// checked-coverage behind (it cleans join survivors instead of the full
  /// qualifying set — the query-driven ideal), so the flag is
  /// semantics-affecting for WAL replay and persisted with snapshots.
  bool optimizer = true;
  /// TryRecover() backoff: first retry is admitted `recover_backoff_ms`
  /// after a failed attempt, doubling per failure up to the cap. The first
  /// attempt after entering degraded mode is always admitted.
  uint32_t recover_backoff_ms = 100;
  uint32_t recover_backoff_max_ms = 10000;
};

/// CI ablation hook: when the environment variable DAISY_OPTIMIZER
/// ("0"/"1"/"true"/"false") is set, it overrides `optimizer` so the whole
/// test suite can run under the FROM-order plan (see the ablation leg in
/// .github/workflows). A no-op when the variable is unset. A malformed
/// value is rejected with a structured-log warning naming the variable and
/// the bad value; the option keeps its previous setting (the one parser is
/// ApplyOptimizerEnv in plan/planner.h). Applied by the DaisyEngine
/// constructor.
void ApplyEnvOverrides(DaisyOptions* options);

/// Engine health state machine (see docs/architecture.md). Transitions are
/// one-way except via TryRecover():
///
///   kHealthy ──(WAL append / checkpoint / rotation failure)──► kDegradedReadOnly
///   kDegradedReadOnly ──(TryRecover() succeeds)──► kHealthy
///   any ──(partial ingest application: table mutated but rule state
///          update failed — memory no longer matches any replayable
///          history)──► kFailed (terminal)
///
/// Degraded-read-only keeps serving quiescent-rule reads under the shared
/// lock (the in-memory state is intact — only durability is gone); every
/// writer operation returns kDegraded without mutating anything.
enum class EngineHealth : uint8_t {
  kHealthy = 0,
  kDegradedReadOnly = 1,
  kFailed = 2,
};

const char* EngineHealthToString(EngineHealth health);

/// Snapshot of the health machine for introspection/monitoring. Each
/// transition is recorded as a structured log line (common/logger.h) and
/// in the `daisy_engine_health_transitions_total{to=...}` counter.
struct EngineHealthInfo {
  EngineHealth state = EngineHealth::kHealthy;
  /// Root cause of the current degraded/failed state (OK when healthy).
  Status cause = Status::OK();
  /// TryRecover() attempts since the engine last degraded.
  uint64_t recover_attempts = 0;
  /// Milliseconds a TryRecover() call would wait before being admitted
  /// (0 = admitted now). Only meaningful while degraded.
  int64_t backoff_remaining_ms = 0;
};

/// Per-query resource limits (alias of the plan-layer struct): wall-clock
/// timeout, output row limit, cooperative cancel flag, and the
/// deterministic trip_after_checks test hook. Default-constructed =
/// unlimited.
using QueryLimits = ExecLimits;

/// Per-query execution report: the corrected output plus the cleaning
/// counters the benches plot (inherited from the plan's CleaningExecStats).
struct QueryReport : CleaningExecStats {
  QueryOutput output;
  /// Serial position in the engine's writer order: a query that mutated
  /// cleaning state (or could have) owns slot `epoch` — the epoch-th writer
  /// — while a shared-path read observed the state after writer `epoch`
  /// committed. Replaying all operations in epoch order (readers after the
  /// writer they observed) reproduces every output and the final state bit
  /// for bit — the serial-equivalence contract the concurrency stress test
  /// checks.
  uint64_t epoch = 0;
  /// True when the query was served concurrently under the shared reader
  /// lock (every overlapping rule quiescent; no cleaning-state mutation).
  bool read_path = false;
  /// How execution ended. kComplete and kRowLimit queries ran all their
  /// cleaning to completion (a row limit only truncates the output) and
  /// are WAL-logged; a kTimeout/kCancelled query's cleaning stopped at a
  /// rule boundary — a valid monotone prefix — and is NOT logged: its
  /// side effects are volatile and converge again on the next touching
  /// query (cleaning is idempotent and confluent).
  QueryTermination termination = QueryTermination::kComplete;
  /// Label of the plan node where execution was cut (empty if complete).
  std::string cut_node;
  /// Serial resource-boundary checks performed (the domain swept by
  /// QueryLimits::trip_after_checks).
  uint64_t resource_checks = 0;
};

/// Query-driven cleaning engine.
///
/// Thread safety: N client threads may call Query / Explain /
/// ExplainAnalyze / AppendRows / DeleteRows concurrently after Prepare().
/// A reader/writer protocol serializes everything that mutates cleaning
/// state behind one writer at a time, while queries whose overlapping
/// rules are all quiescent (fully checked, no pending ingest work) execute
/// concurrently under a shared lock — pure plan execution over
/// already-clean regions, scaling with reader threads. Every operation's
/// result is bit-identical to a serial replay in epoch order (see
/// QueryReport::epoch). Writer sections refresh all derived state (column
/// caches, detector partitions) before unlocking, so shared-path readers
/// never build or rebuild anything.
class DaisyEngine {
 public:
  /// `db` must outlive the engine. Constraints are moved in.
  DaisyEngine(Database* db, ConstraintSet constraints,
              DaisyOptions options = {});
  ~DaisyEngine();
  DaisyEngine(DaisyEngine&&) noexcept;
  DaisyEngine& operator=(DaisyEngine&&) noexcept;

  /// Builds the per-rule state (an FD rule's FdDeltaDetector, a general
  /// DC's ThetaJoinDetector) and operators. Must be called before Query().
  Status Prepare();

  /// Parses and executes `sql`, weaving cleanσ/clean⋈ into the plan.
  Result<QueryReport> Query(const std::string& sql);
  Result<QueryReport> Query(const SelectStmt& stmt);

  /// Resource-governed execution: same as Query() but the plan is cut
  /// cooperatively when the deadline passes, the cancel flag is set, or
  /// the output reaches the row limit. A cut query succeeds with
  /// QueryReport::termination recording how and where it stopped; cleaning
  /// performed before the cut stays as a valid monotone prefix (and is
  /// kept volatile — not WAL-logged — for kTimeout/kCancelled).
  Result<QueryReport> Query(const std::string& sql, const QueryLimits& limits);
  Result<QueryReport> Query(const SelectStmt& stmt, const QueryLimits& limits);

  /// Governed execution that emits the result rows into `sink` instead of
  /// materializing them: the returned report's `output` holds no result
  /// and no lineage. The sink is fed under the engine lock, and never for
  /// a cut query. daisyd encodes wire frames this way.
  Result<QueryReport> Query(const std::string& sql, const QueryLimits& limits,
                            ResultSink* sink);

  /// Deterministic text rendering of the cleaning-augmented plan for `sql`
  /// without executing it (cleanσ nodes per overlapping rule, clean⋈ over
  /// cleaned sides, statistics-pruned rules dropped).
  Result<std::string> Explain(const std::string& sql);

  /// Executes `sql` exactly like Query() (cleaning side effects included)
  /// and returns the plan tree annotated with runtime counters — cleanσ
  /// nodes that settled ingested rows carry "delta rows checked: N" —
  /// followed by a `trace:` section with per-operator wall time and row
  /// counts (open_us/next_us/rows; see docs/architecture.md).
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Governed ExplainAnalyze: the rendered tree marks the node where the
  /// plan was cut with "cut=<reason>".
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const QueryLimits& limits);

  /// Transactional ingest: appends `rows` to `table` and folds the delta
  /// into every dependent rule's state in O(delta) — an FD rule's groups,
  /// rhs buckets and counters, checked coverage; general-DC rules
  /// queue the batch for a DetectDelta pass on the next touching query, so
  /// a post-ingest query pays new x old instead of a full re-detection.
  /// Must be called after Prepare().
  Result<TableDelta> AppendRows(const std::string& table,
                                std::vector<std::vector<Value>> rows);

  /// Transactional ingest: tombstones `ids` in `table`, prunes their
  /// violations/provenance, and updates each FD rule's detector — a rule
  /// whose last violation disappears re-engages statistics pruning.
  Result<TableDelta> DeleteRows(const std::string& table,
                                std::vector<RowId> ids);

  /// Cleans every remaining dirty tuple for all rules (manual switch).
  Status CleanAllRemaining();

  /// Merges previously recorded repairs (e.g. from an earlier session with
  /// a different rule set) into this engine's provenance for `table`,
  /// rebuilding the affected cells. Call after Prepare().
  Status ImportProvenance(const std::string& table,
                          const ProvenanceStore& store);

  /// True once `rule` has checked every tuple of its table.
  Result<bool> RuleFullyChecked(const std::string& rule) const;

  // --- Durable persistence (src/persist/, implemented in
  // persist/engine_persist.cc). The cleaning investment every query makes
  // (coverage, repairs, provenance) survives a restart: snapshots hold the
  // full engine state, a write-ahead log makes each committed operation
  // durable before its call returns, and Open() resumes with detector
  // coverage and static pruning already warm.

  /// Attaches a persistence directory to a prepared engine: creates it if
  /// needed, writes the initial snapshot of the current state, and starts
  /// the write-ahead log. From here on every committed writer operation
  /// (ingest, writer queries, CleanAllRemaining, provenance imports) is
  /// fsync'd to the log before the call returns. Fails if the directory
  /// already holds a daisy snapshot (use Open() for that). All file
  /// operations go through `env` (null = the real filesystem); tests pass
  /// a persist::FaultInjectingEnv to exercise failure paths.
  Status EnablePersistence(const std::string& dir,
                           persist::Env* env = nullptr);

  /// Writes a fresh snapshot of the current state under the writer lock,
  /// rotates the WAL (the new log starts empty), and deletes the previous
  /// generation. Bounds recovery time: replay cost is proportional to the
  /// operations since the last Checkpoint.
  Status Checkpoint();

  /// Recovers an engine from a persistence directory: loads the newest
  /// valid snapshot into `db` (which must be empty and outlive the
  /// engine), prepares the engine, restores the persisted cleaning state,
  /// replays the WAL through the regular ingest/query machinery, truncates
  /// any torn tail, and reopens the log for appending. The recovered
  /// engine is bit-identical — outputs, counters, EXPLAIN, provenance —
  /// to one that executed the same committed operations without
  /// restarting. The semantics-affecting options (mode, accuracy
  /// threshold, partitions, optimizer) are adopted from the snapshot so
  /// the replay runs under the config that produced the log; only
  /// `options`' recovery-backoff fields take effect. A snapshot whose
  /// meta section records statistics or theta-join pruning as off (written
  /// by an engine that still had those switches) is rejected with a
  /// ParseError: its log cannot replay bit-identically here.
  /// Open also sweeps orphaned `*.tmp` files (leftovers of an atomic
  /// write that crashed before its rename) from the directory. All file
  /// operations of the opened engine go through `env` (null = the real
  /// filesystem).
  static Result<std::unique_ptr<DaisyEngine>> Open(const std::string& dir,
                                                   Database* db,
                                                   DaisyOptions options = {},
                                                   persist::Env* env = nullptr);

  /// Attempts to re-arm persistence after the engine degraded to
  /// read-only: sweeps partial files, writes a fresh snapshot of the
  /// current in-memory state under a new generation, starts a fresh WAL,
  /// and returns the engine to healthy. The in-memory state — including
  /// the operation whose durability failure caused the degradation — is
  /// what gets snapshotted, so a successful recovery makes it durable.
  /// Attempts are rate-limited by capped exponential backoff
  /// (DaisyOptions::recover_backoff_ms/..._max_ms): a call inside the
  /// backoff window returns kResourceExhausted without touching the
  /// filesystem. Returns kInvalidArgument when the engine is healthy
  /// (nothing to recover) and kInternal when it is kFailed
  /// (unrecoverable).
  Status TryRecover();

  /// Health-machine snapshot: state, root cause, recovery attempt/backoff
  /// counters. Thread-safe (takes the shared lock).
  EngineHealthInfo Health() const;

  /// Test hook: the group-commit queue (null while memory-only). The
  /// fault-injection tests use its hold/pending hooks to force multi-op
  /// batches deterministically.
  persist::GroupCommitQueue* wal_queue_for_test() { return wal_queue_.get(); }

  /// Catalog snapshot for remote introspection (the daisyd Schema
  /// request): per-table name, live row count and schema copy, taken
  /// under the shared lock so it never tears against a concurrent
  /// writer. Thread-safe.
  struct TableSummary {
    std::string name;
    size_t live_rows = 0;
    Schema schema;
  };
  std::vector<TableSummary> TableSummaries() const;

  // Introspection accessors. The lookup itself is locked, but the
  // returned reference/pointer is NOT protected afterwards: concurrent
  // writer operations mutate the pointed-to state (repairs append
  // provenance records, writer queries feed the cost model, ingest patches
  // the FD detectors). Only read through these while no concurrent writers
  // run — single-threaded use, a quiesced workload, or caller-side
  // serialization.
  const ConstraintSet& constraints() const { return constraints_; }
  const CostModel* cost_model(const std::string& rule) const;
  /// The FD rule's delta-maintained index (groups, rhs buckets, ε / p
  /// counters); nullptr for unknown or non-FD rules.
  const FdDeltaDetector* fd_index(const std::string& rule) const;
  /// The rule's cleanσ operator (its checked bookkeeping); nullptr for
  /// unknown rules.
  const CleanSelect* clean_select(const std::string& rule) const;
  const ProvenanceStore* provenance(const std::string& table) const;
  Database* database() { return db_; }
  const DaisyOptions& options() const { return options_; }

 private:
  struct RuleState {
    const DenialConstraint* dc = nullptr;
    Table* table = nullptr;
    std::unique_ptr<ThetaJoinDetector> theta;  ///< general DCs only
    std::unique_ptr<FdDeltaDetector> fd_delta;  ///< FD rules only
    std::unique_ptr<CleanSelect> op;
    CostModel cost;
  };

  Status ApplyDeltaToRules(const std::string& table_name,
                           const TableDelta& delta) DAISY_REQUIRES(*mu_);
  Result<Plan> MakePlan(const SelectStmt& stmt) DAISY_REQUIRES_SHARED(*mu_);
  /// The statement protocol behind Query and ExplainAnalyze: a shared-lock
  /// attempt when the plan is quiescent, else the writer lock, a re-plan
  /// and (unless the plan became quiescent meanwhile) an epoch slot, the
  /// execution, the derived-state refresh and the WAL record of an uncut
  /// run, whose durability is awaited after unlocking. The result rows go
  /// to `sink`. A non-null `trace` receives the plan's ExplainWithTrace()
  /// rendering, taken under the same lock as the execution.
  Result<QueryReport> ExecuteStatement(const SelectStmt& stmt,
                                       const QueryLimits& limits,
                                       ResultSink* sink, std::string* trace);
  /// Executes `plan` into `sink` and assembles the report, rendering the
  /// executed plan into a non-null `trace` (caller holds mu_ in the
  /// matching mode; a shared hold suffices — writer callers hold it
  /// exclusively, which implies shared).
  Result<QueryReport> ExecutePlanLocked(Plan* plan, bool read_path,
                                        uint64_t epoch, ResultSink* sink,
                                        std::string* trace)
      DAISY_REQUIRES_SHARED(*mu_);
  /// Rebuilds every stale column projection and resyncs every DC detector.
  /// Called at the end of each writer section, before mu_ is released, so
  /// the shared read path only ever reads fresh derived state.
  void RefreshDerivedState() DAISY_REQUIRES(*mu_);

  // Persistence internals (persist/engine_persist.cc). All run with the
  // caller holding mu_ exclusively, except RestorePersistedState's WAL
  // replay which re-enters the public operations.
  /// The bytes of a snapshot of the current state.
  Result<std::string> EncodeSnapshotLocked() DAISY_REQUIRES(*mu_);
  Status RestoreEngineState(const persist::EngineSnapshot& snap);
  /// Queues one encoded record on the group-commit queue, if a WAL is
  /// attached and this is not a replay. Called at the end of a successful
  /// writer section, still under the exclusive lock — enqueue order is
  /// epoch order. Returns a ticket to pass to AwaitWalTicket() *after*
  /// releasing the lock (null = nothing to await: memory-only or replay).
  persist::GroupCommitQueue::TicketPtr LogWalLocked(
      const std::string& payload) DAISY_REQUIRES(*mu_);
  /// Second half of the commit: waits for the ticket's batch to become
  /// durable. Must be called without mu_ held (the engine stays available
  /// to other ops during the shared fsync). A failed batch degrades the
  /// engine — every op in the batch gets the failure, none is acked.
  Status AwaitWalTicket(const persist::GroupCommitQueue::TicketPtr& ticket)
      DAISY_EXCLUDES(*mu_);
  /// Gate checked before any writer mutation: returns kDegraded /
  /// kInternal when the engine is not healthy. After a durability failure
  /// the in-memory state is ahead of the durable log, so no further
  /// mutation may be accepted until TryRecover() re-arms persistence on a
  /// fresh generation.
  Status CheckWritableLocked() const DAISY_REQUIRES_SHARED(*mu_);
  /// Records a health transition (a structured log line and a counter
  /// increment). `cause` becomes the machine's root cause for non-healthy
  /// targets.
  void TransitionLocked(EngineHealth to, const Status& cause)
      DAISY_REQUIRES(*mu_);
  /// kHealthy → kDegradedReadOnly on a durability failure; returns a
  /// kDegraded status wrapping the root cause for the caller to surface.
  Status DegradeLocked(const Status& cause) DAISY_REQUIRES(*mu_);
  /// Removes orphaned `*.tmp` files from the persistence directory
  /// (leftovers of atomic writes that crashed before their rename).
  /// Best-effort.
  void SweepOrphanTmpFilesLocked() DAISY_REQUIRES(*mu_);
  /// Shared by Checkpoint and TryRecover: writes snapshot generation
  /// `next` and starts its empty WAL. On success the engine serves from
  /// the new generation; old-generation files are deleted best-effort
  /// (an orphaned old generation is harmless — Open prefers the newest
  /// parseable snapshot). Fills `stages`, when given, with the wall time
  /// of each step; the three sum to the rotation.
  struct CheckpointStages {
    uint64_t encode_us = 0;  ///< building the snapshot bytes in memory
    uint64_t write_us = 0;   ///< WriteFileAtomic: write, fsync, rename,
                             ///< directory sync
    uint64_t rotate_us = 0;  ///< group-commit drain, WAL N+1, old-gen cleanup
  };
  Status RotateGenerationLocked(CheckpointStages* stages = nullptr)
      DAISY_REQUIRES(*mu_);

  // Members NOT annotated GUARDED_BY(mu_), deliberately: db_, options_ and
  // constraints_ are handed out through unlocked inline accessors under
  // the caller-side serialization contract documented above them, and
  // every persistence field (persist_dir_ ... wal_replay_) is written by
  // the static Open() path before the engine is shared and read by
  // unlocked accessors afterwards. Annotating them would force
  // locks onto paths whose protocol is "single-threaded by construction",
  // which the analysis cannot express.
  Database* db_;
  ConstraintSet constraints_;
  DaisyOptions options_;
  /// Engine-wide reader/writer lock: exclusive for anything that may
  /// mutate cleaning state (writer queries, ingest, CleanAllRemaining,
  /// ImportProvenance, Prepare), shared for quiescent-plan queries and
  /// Explain. Heap-held so the engine stays movable (moving an engine
  /// while other threads use it is invalid anyway; the analysis treats
  /// the smart pointer like the capability itself).
  std::unique_ptr<SharedMutex> mu_ = std::make_unique<SharedMutex>();
  std::map<std::string, RuleState> rules_ DAISY_GUARDED_BY(*mu_);
  std::map<std::string, ProvenanceStore> provenance_
      DAISY_GUARDED_BY(*mu_);  ///< by table name
  /// Planner side-inputs pointing into rules_; rebuilt by Prepare().
  std::unique_ptr<CleaningPlanContext> plan_context_ DAISY_GUARDED_BY(*mu_);
  bool prepared_ DAISY_GUARDED_BY(*mu_) = false;
  /// Committed writer count; written under the exclusive lock, read under
  /// the shared lock. Reset by Prepare().
  uint64_t epoch_ DAISY_GUARDED_BY(*mu_) = 0;

  // Persistence state. Empty/null while the engine is memory-only.
  std::string persist_dir_;
  uint64_t persist_seq_ = 0;  ///< current (snapshot, wal) generation
  std::unique_ptr<persist::WalWriter> wal_;
  /// Group-commit queue over wal_ (null exactly when wal_ is). Rotation
  /// Flush()es and Reset()s it.
  std::unique_ptr<persist::GroupCommitQueue> wal_queue_;
  /// File-operation environment for all persistence I/O. Never null once
  /// persistence is attached; points at persist::Env::Default() unless
  /// the caller supplied one (fault injection).
  persist::Env* env_ = nullptr;
  /// True while Open() replays the log: the replayed operations must not
  /// be appended to it again.
  bool wal_replay_ = false;

  // Health machine (guarded by mu_ like the rest of the engine state).
  EngineHealth health_ DAISY_GUARDED_BY(*mu_) = EngineHealth::kHealthy;
  Status health_cause_ DAISY_GUARDED_BY(*mu_) = Status::OK();
  uint64_t recover_attempts_ DAISY_GUARDED_BY(*mu_) = 0;
  /// Earliest steady-clock time a TryRecover() attempt is admitted; the
  /// first attempt after degrading is always admitted.
  std::chrono::steady_clock::time_point next_recover_at_
      DAISY_GUARDED_BY(*mu_){};
  /// next window on failure (doubles)
  uint32_t recover_backoff_ms_ DAISY_GUARDED_BY(*mu_) = 0;
};

}  // namespace daisy

#endif  // DAISY_CLEAN_DAISY_ENGINE_H_
