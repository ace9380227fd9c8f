#include "clean/daisy_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logger.h"
#include "common/metrics.h"
#include "persist/wal.h"
#include "plan/planner.h"
#include "query/parser.h"
#include "repair/dc_repair.h"
#include "repair/fd_repair.h"

namespace daisy {

namespace {

// Cached instrument pointers for the engine hot paths — one registry
// lookup per process, one relaxed atomic add per event thereafter.
struct EngineMetrics {
  Counter* queries_read;
  Counter* queries_write;
  Counter* detect_ops;
  Counter* repairs;
  Counter* delta_rows_checked;
  Counter* rows_appended;
  Counter* rows_deleted;
  Gauge* epoch;

  static EngineMetrics& Get() {
    static EngineMetrics* const m = new EngineMetrics();
    return *m;
  }

  EngineMetrics() {
    MetricsRegistry& r = MetricsRegistry::Global();
    queries_read = r.GetCounter(
        "daisy_engine_queries_total{path=\"read\"}",
        "Queries served, by shared-read vs exclusive-writer path");
    queries_write =
        r.GetCounter("daisy_engine_queries_total{path=\"write\"}");
    detect_ops = r.GetCounter("daisy_engine_detect_ops_total",
                              "Violation-check comparisons performed");
    repairs = r.GetCounter("daisy_engine_repairs_total",
                           "Tuples repaired by cleaning operators");
    delta_rows_checked =
        r.GetCounter("daisy_engine_delta_rows_checked_total",
                     "Ingested rows settled by later queries");
    rows_appended = r.GetCounter("daisy_engine_rows_appended_total",
                                 "Rows ingested via AppendRows");
    rows_deleted = r.GetCounter("daisy_engine_rows_deleted_total",
                                "Rows tombstoned via DeleteRows");
    epoch = r.GetGauge("daisy_engine_epoch",
                       "Committed writer count (serial order high water)");
  }
};

}  // namespace

void ApplyEnvOverrides(DaisyOptions* options) {
  // The override silently replacing explicitly passed options would be a
  // debugging trap outside CI (e.g. the variable left exported from
  // reproducing the ablation leg locally) — announce it once per process.
  if (ApplyOptimizerEnv(&options->optimizer)) {
    static const bool announced = [] {
      LogInfo("engine",
              "DAISY_OPTIMIZER set: overriding DaisyOptions (CI ablation "
              "hook)");
      return true;
    }();
    (void)announced;
  }
}

const char* EngineHealthToString(EngineHealth health) {
  switch (health) {
    case EngineHealth::kHealthy:
      return "healthy";
    case EngineHealth::kDegradedReadOnly:
      return "degraded-read-only";
    case EngineHealth::kFailed:
      return "failed";
  }
  return "unknown";
}

DaisyEngine::DaisyEngine(Database* db, ConstraintSet constraints,
                         DaisyOptions options)
    : db_(db), constraints_(std::move(constraints)), options_(options) {
  ApplyEnvOverrides(&options_);
}

void DaisyEngine::TransitionLocked(EngineHealth to, const Status& cause) {
  if (health_ == to) return;
  // The log line and the counter are the only transition record; Health()
  // reports just the current state.
  Logger::Global().Log(
      to == EngineHealth::kHealthy ? LogLevel::kInfo : LogLevel::kWarn,
      "engine", "health transition",
      {{"from", EngineHealthToString(health_)},
       {"to", EngineHealthToString(to)},
       {"cause", cause.ok() ? std::string("recovered") : cause.ToString()}});
  MetricsRegistry::Global()
      .GetCounter(std::string("daisy_engine_health_transitions_total{to=\"") +
                      EngineHealthToString(to) + "\"}",
                  "Health-machine transitions, by target state")
      ->Increment();
  health_ = to;
  health_cause_ = to == EngineHealth::kHealthy ? Status::OK() : cause;
  if (to == EngineHealth::kHealthy) {
    recover_attempts_ = 0;
    recover_backoff_ms_ = 0;
    next_recover_at_ = std::chrono::steady_clock::time_point{};
  }
}

Status DaisyEngine::DegradeLocked(const Status& cause) {
  // A kFailed engine never un-fails; don't let a later durability error
  // mask the original torn-state cause.
  if (health_ != EngineHealth::kFailed) {
    TransitionLocked(EngineHealth::kDegradedReadOnly, cause);
    // The first TryRecover() after degrading is always admitted.
    recover_backoff_ms_ = 0;
    next_recover_at_ = std::chrono::steady_clock::time_point{};
  }
  return Status::Degraded(
      "engine is read-only after a durability failure (TryRecover() to "
      "re-arm): " +
      cause.ToString());
}

Status DaisyEngine::CheckWritableLocked() const {
  switch (health_) {
    case EngineHealth::kHealthy:
      return Status::OK();
    case EngineHealth::kDegradedReadOnly:
      return Status::Degraded(
          "engine is degraded to read-only (TryRecover() to re-arm): " +
          health_cause_.ToString());
    case EngineHealth::kFailed:
      return Status::Internal("engine failed (unrecoverable): " +
                              health_cause_.ToString());
  }
  return Status::Internal("unreachable");
}

EngineHealthInfo DaisyEngine::Health() const {
  ReaderLock lock(&*mu_);
  EngineHealthInfo info;
  info.state = health_;
  info.cause = health_cause_;
  info.recover_attempts = recover_attempts_;
  if (health_ == EngineHealth::kDegradedReadOnly) {
    const auto now = std::chrono::steady_clock::now();
    if (next_recover_at_ > now) {
      info.backoff_remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              next_recover_at_ - now)
              .count();
    }
  }
  return info;
}

std::vector<DaisyEngine::TableSummary> DaisyEngine::TableSummaries() const {
  ReaderLock lock(&*mu_);
  std::vector<TableSummary> out;
  for (const std::string& name : db_->TableNames()) {
    Result<const Table*> table =
        static_cast<const Database*>(db_)->GetTable(name);
    if (!table.ok()) continue;
    TableSummary summary;
    summary.name = name;
    summary.live_rows = table.value()->num_live_rows();
    summary.schema = table.value()->schema();
    out.push_back(std::move(summary));
  }
  return out;
}

Status DaisyEngine::Prepare() {
  WriterLock lock(&*mu_);
  epoch_ = 0;
  rules_.clear();
  provenance_.clear();
  for (const DenialConstraint& dc : constraints_.all()) {
    DAISY_ASSIGN_OR_RETURN(Table * table, db_->GetTable(dc.table()));
    RuleState state;
    state.dc = &dc;
    state.table = table;
    ProvenanceStore* prov = &provenance_[dc.table()];
    if (!dc.IsFd()) {
      state.theta = std::make_unique<ThetaJoinDetector>(
          table, &dc, options_.theta_partitions);
    } else {
      state.fd_delta = std::make_unique<FdDeltaDetector>(table, &dc);
    }
    state.op = std::make_unique<CleanSelect>(
        table, &dc, prov, state.fd_delta.get(), state.theta.get());
    rules_.emplace(dc.name(), std::move(state));
  }

  // Bind the per-rule operator state for the planner: every query lowers
  // through the shared plan layer with these side-inputs.
  plan_context_ = std::make_unique<CleaningPlanContext>();
  plan_context_->constraints = &constraints_;
  plan_context_->options.accuracy_threshold = options_.accuracy_threshold;
  plan_context_->adaptive = options_.mode == DaisyOptions::Mode::kAdaptive;
  for (auto& [name, state] : rules_) {
    CleaningRuleBinding binding;
    binding.dc = state.dc;
    binding.table = state.table;
    binding.op = state.op.get();
    binding.cost = &state.cost;
    binding.theta = state.theta.get();
    binding.fd = state.fd_delta.get();
    plan_context_->rules.emplace(name, binding);
  }
  prepared_ = true;
  RefreshDerivedState();
  return Status::OK();
}

void DaisyEngine::RefreshDerivedState() {
  // Caches first (a rebuild may reallocate the arrays the detectors point
  // into), detectors second (their EnsureFresh re-points at the fresh
  // arrays). After this, the shared read path finds every *built*
  // projection and every detector fresh: column() takes its lock-free
  // fast path and EnsureFresh is a pure read — "no rebuild under a
  // reader". Never-touched columns stay lazy; a reader that is the first
  // ever to compile a filter on one builds it cold under the cache's
  // build mutex, which is safe because no pointers into it can predate it.
  for (const std::string& name : db_->TableNames()) {
    Result<Table*> table = db_->GetTable(name);
    if (!table.ok()) continue;
    table.value()->columns().RefreshBuilt();
  }
  for (auto& [name, state] : rules_) {
    (void)name;
    if (state.theta != nullptr) state.theta->Refresh();
  }
}

Result<QueryReport> DaisyEngine::Query(const std::string& sql) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  return Query(stmt);
}

Result<QueryReport> DaisyEngine::Query(const std::string& sql,
                                       const QueryLimits& limits) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  return Query(stmt, limits);
}

Result<QueryReport> DaisyEngine::Query(const SelectStmt& stmt) {
  return Query(stmt, QueryLimits{});
}

Result<QueryReport> DaisyEngine::Query(const SelectStmt& stmt,
                                       const QueryLimits& limits) {
  QueryOutput output;
  TableSink sink(&output);
  DAISY_ASSIGN_OR_RETURN(QueryReport report,
                         ExecuteStatement(stmt, limits, &sink,
                                          /*trace=*/nullptr));
  output.rows_scanned = report.output.rows_scanned;
  report.output = std::move(output);
  return report;
}

Result<QueryReport> DaisyEngine::Query(const std::string& sql,
                                       const QueryLimits& limits,
                                       ResultSink* sink) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  return ExecuteStatement(stmt, limits, sink, /*trace=*/nullptr);
}

Result<Plan> DaisyEngine::MakePlan(const SelectStmt& stmt) {
  if (!prepared_) {
    return Status::Internal("DaisyEngine::Prepare() must be called first");
  }
  Planner planner(db_, options_.optimizer);
  return planner.PlanQuery(stmt, plan_context_.get());
}

Result<QueryReport> DaisyEngine::ExecutePlanLocked(Plan* plan, bool read_path,
                                                   uint64_t epoch,
                                                   ResultSink* sink,
                                                   std::string* trace) {
  QueryReport report;
  DAISY_RETURN_IF_ERROR(plan->Execute(sink));
  report.output.rows_scanned = plan->rows_scanned();
  static_cast<CleaningExecStats&>(report) = plan->cleaning_stats();
  report.epoch = epoch;
  report.read_path = read_path;
  report.termination = plan->termination();
  report.cut_node = plan->cut_node();
  report.resource_checks = plan->resource_checks();
  if (trace != nullptr) *trace = plan->ExplainWithTrace();

  // Every query execution funnels through here (Query and ExplainAnalyze,
  // both paths): account it once, with relaxed adds only.
  EngineMetrics& m = EngineMetrics::Get();
  (read_path ? m.queries_read : m.queries_write)->Increment();
  if (report.detect_ops > 0) m.detect_ops->Increment(report.detect_ops);
  if (report.errors_fixed > 0) m.repairs->Increment(report.errors_fixed);
  if (report.delta_rows_checked > 0) {
    m.delta_rows_checked->Increment(report.delta_rows_checked);
  }
  if (!read_path) m.epoch->Set(static_cast<int64_t>(epoch));
  return report;
}

Result<QueryReport> DaisyEngine::ExecuteStatement(const SelectStmt& stmt,
                                                  const QueryLimits& limits,
                                                  ResultSink* sink,
                                                  std::string* trace) {
  {
    // Shared read path: when every cleanσ of the plan is quiescent,
    // execution is a pure read (Run() takes its pruned fast paths, which
    // the quiescence guards keep write-free) and may overlap with other
    // readers. Quiescence cannot be broken by a concurrent reader, and
    // writers are excluded, so the check stays valid for the whole shared
    // section.
    ReaderLock lock(&*mu_);
    if (health_ == EngineHealth::kFailed) {
      return Status::Internal("engine failed (unrecoverable): " +
                              health_cause_.ToString());
    }
    if (prepared_) {
      DAISY_ASSIGN_OR_RETURN(Plan plan, MakePlan(stmt));
      if (plan.CleaningQuiescent()) {
        plan.set_limits(limits);
        return ExecutePlanLocked(&plan, /*read_path=*/true, epoch_, sink,
                                 trace);
      }
    }
  }
  // Writer path: cleaning-state mutation (relaxation, repairs, coverage
  // accrual, delta drains) runs one at a time. The plan is rebuilt — the
  // state may have advanced while waiting for the lock; if another writer
  // made the plan quiescent meanwhile, the query is semantically a read:
  // it mutates nothing and consumes no writer slot, keeping the epoch
  // order reproducible by a serial replay.
  persist::GroupCommitQueue::TicketPtr ticket;
  Result<QueryReport> report = Status::Internal("unset");
  {
    WriterLock lock(&*mu_);
    if (health_ == EngineHealth::kFailed) {
      return Status::Internal("engine failed (unrecoverable): " +
                              health_cause_.ToString());
    }
    DAISY_ASSIGN_OR_RETURN(Plan plan, MakePlan(stmt));
    plan.set_limits(limits);
    if (plan.CleaningQuiescent()) {
      return ExecutePlanLocked(&plan, /*read_path=*/true, epoch_, sink, trace);
    }
    DAISY_RETURN_IF_ERROR(CheckWritableLocked());
    const uint64_t slot = ++epoch_;
    report = ExecutePlanLocked(&plan, /*read_path=*/false, slot, sink, trace);
    RefreshDerivedState();
    // A writer query mutated cleaning state (repairs, coverage, cost
    // ledger): make it durable before acknowledging. Read-path queries are
    // deliberately never logged — they have no state to replay. A cut
    // query (timeout/cancel) is not logged either: its cleaning stopped at
    // a rule boundary — a valid monotone prefix whose effects are volatile
    // by contract and converge again on the next touching query; logging
    // the statement would make the replay clean MORE than this execution
    // did.
    const bool cut =
        report.ok() &&
        (report.value().termination == QueryTermination::kTimeout ||
         report.value().termination == QueryTermination::kCancelled);
    if (report.ok() && !cut && wal_ != nullptr && !wal_replay_) {
      ticket = LogWalLocked(persist::EncodeWalQuery(stmt));
    }
  }
  // Ack only after durability; the lock is released so concurrent writer
  // ops can queue into the same batch and share the fsync.
  DAISY_RETURN_IF_ERROR(AwaitWalTicket(ticket));
  return report;
}

Result<std::string> DaisyEngine::Explain(const std::string& sql) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  // Planning never mutates engine state: always shared.
  ReaderLock lock(&*mu_);
  DAISY_ASSIGN_OR_RETURN(Plan plan, MakePlan(stmt));
  return plan.Explain();
}

Result<std::string> DaisyEngine::ExplainAnalyze(const std::string& sql) {
  return ExplainAnalyze(sql, QueryLimits{});
}

Result<std::string> DaisyEngine::ExplainAnalyze(const std::string& sql,
                                                const QueryLimits& limits) {
  DAISY_ASSIGN_OR_RETURN(SelectStmt stmt, ParseQuery(sql));
  // Query's protocol and side effects; the analyze rendering is a pure
  // read on top of the execution, so the result rows are only counted.
  std::string rendered;
  CountingSink sink;
  DAISY_RETURN_IF_ERROR(
      ExecuteStatement(stmt, limits, &sink, &rendered).status());
  return rendered;
}

Result<TableDelta> DaisyEngine::AppendRows(
    const std::string& table, std::vector<std::vector<Value>> rows) {
  persist::GroupCommitQueue::TicketPtr ticket;
  TableDelta delta;
  {
    WriterLock lock(&*mu_);
    if (!prepared_) return Status::Internal("Prepare() must be called first");
    DAISY_RETURN_IF_ERROR(CheckWritableLocked());
    DAISY_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
    // Encoded before the move empties `rows`; appended only after the
    // batch committed (a rejected batch must not replay).
    std::string wal_payload;
    if (wal_ != nullptr && !wal_replay_) {
      wal_payload = persist::EncodeWalAppendRows(table, rows);
    }
    DAISY_ASSIGN_OR_RETURN(delta, t->AppendRows(std::move(rows)));
    if (Status applied = ApplyDeltaToRules(table, delta); !applied.ok()) {
      // The table took the batch but the rule state did not: memory no
      // longer matches any replayable operation history — terminal.
      TransitionLocked(EngineHealth::kFailed, applied);
      return applied;
    }
    delta.engine_epoch = ++epoch_;
    EngineMetrics::Get().rows_appended->Increment(delta.appended.size());
    EngineMetrics::Get().epoch->Set(static_cast<int64_t>(epoch_));
    RefreshDerivedState();
    if (!wal_payload.empty()) {
      ticket = LogWalLocked(wal_payload);
    }
  }
  DAISY_RETURN_IF_ERROR(AwaitWalTicket(ticket));
  return delta;
}

Result<TableDelta> DaisyEngine::DeleteRows(const std::string& table,
                                           std::vector<RowId> ids) {
  persist::GroupCommitQueue::TicketPtr ticket;
  TableDelta delta;
  {
    WriterLock lock(&*mu_);
    if (!prepared_) return Status::Internal("Prepare() must be called first");
    DAISY_RETURN_IF_ERROR(CheckWritableLocked());
    DAISY_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
    std::string wal_payload;
    if (wal_ != nullptr && !wal_replay_) {
      wal_payload = persist::EncodeWalDeleteRows(table, ids);
    }
    DAISY_ASSIGN_OR_RETURN(delta, t->DeleteRows(std::move(ids)));
    if (Status applied = ApplyDeltaToRules(table, delta); !applied.ok()) {
      // Same torn-state rule as AppendRows: tombstones landed but the
      // rule state did not absorb them.
      TransitionLocked(EngineHealth::kFailed, applied);
      return applied;
    }
    delta.engine_epoch = ++epoch_;
    EngineMetrics::Get().rows_deleted->Increment(delta.deleted.size());
    EngineMetrics::Get().epoch->Set(static_cast<int64_t>(epoch_));
    RefreshDerivedState();
    if (!wal_payload.empty()) {
      ticket = LogWalLocked(wal_payload);
    }
  }
  DAISY_RETURN_IF_ERROR(AwaitWalTicket(ticket));
  return delta;
}

Status DaisyEngine::ApplyDeltaToRules(const std::string& table_name,
                                      const TableDelta& delta) {
  if (!delta.deleted.empty()) {
    auto prov = provenance_.find(table_name);
    if (prov != provenance_.end()) prov->second.DropRows(delta.deleted);
  }
  for (auto& [name, state] : rules_) {
    if (state.dc->table() != table_name) continue;
    std::vector<RowId> stale_rows;
    if (state.fd_delta != nullptr) {
      FdDeltaEffect effect = state.fd_delta->ApplyDelta(delta);
      stale_rows = std::move(effect.stale_rows);
      // The batch changed these rows' violating groups, so their earlier
      // fixes no longer cover the data (Lemma 1 assumed a static relation):
      // drop this rule's records and let the next touching query re-derive
      // them from the updated groups.
      ProvenanceStore& prov = provenance_[table_name];
      for (RowId r : stale_rows) {
        prov.DropRuleRecords(state.table, r, name);
      }
      // The rows still repaired keep their P(rhs | lhs) (their groups are
      // unchanged), but their P(lhs | rhs) reads the whole rhs bucket:
      // re-derive it in place for every bucket the batch changed. Their
      // checked status stands — the fix is complete again.
      RefreshFdLhsCandidates(state.table, *state.fd_delta, effect.changed_rhs,
                             &prov);
    } else if (state.theta != nullptr && !delta.deleted.empty()) {
      // A deletion that retracts violating pairs invalidates the repairs
      // derived from them. DC pair evidence accumulates per cell and is
      // not separable per pair, so re-derive this rule's fixes wholesale
      // from the surviving maintained set — exactly what cleaning the
      // post-delete data from scratch would produce.
      if (state.theta->ConsumeRetractions() > 0) {
        ProvenanceStore& prov = provenance_[table_name];
        prov.DropRule(state.table, name);
        const std::vector<ViolationPair>& surviving =
            state.theta->maintained_violations();
        if (!surviving.empty()) {
          DAISY_RETURN_IF_ERROR(
              RepairDcViolations(state.table, *state.dc, surviving, &prov)
                  .status());
        }
      }
    }
    state.op->ApplyDelta(delta, stale_rows);
  }
  return Status::OK();
}

Status DaisyEngine::CleanAllRemaining() {
  persist::GroupCommitQueue::TicketPtr ticket;
  {
    WriterLock lock(&*mu_);
    if (!prepared_) return Status::Internal("Prepare() must be called first");
    DAISY_RETURN_IF_ERROR(CheckWritableLocked());
    for (auto& [name, state] : rules_) {
      if (state.op->fully_checked()) continue;
      // The per-rule counters are only reported on the query path; a
      // manual full clean wants the side effects (repairs + coverage),
      // not the report.
      DAISY_RETURN_IF_ERROR(state.op->CleanRemaining().status());
    }
    ++epoch_;
    RefreshDerivedState();
    ticket = LogWalLocked(persist::EncodeWalCleanAll());
  }
  return AwaitWalTicket(ticket);
}

Status DaisyEngine::ImportProvenance(const std::string& table,
                                     const ProvenanceStore& store) {
  persist::GroupCommitQueue::TicketPtr ticket;
  {
    WriterLock lock(&*mu_);
    if (!prepared_) return Status::Internal("Prepare() must be called first");
    DAISY_RETURN_IF_ERROR(CheckWritableLocked());
    DAISY_ASSIGN_OR_RETURN(Table * t, db_->GetTable(table));
    provenance_[table].MergeFrom(store, t);
    ++epoch_;
    RefreshDerivedState();
    if (wal_ != nullptr && !wal_replay_) {
      ticket = LogWalLocked(
          persist::EncodeWalImportProvenance(table, store.records()));
    }
  }
  return AwaitWalTicket(ticket);
}

Result<bool> DaisyEngine::RuleFullyChecked(const std::string& rule) const {
  ReaderLock lock(&*mu_);
  auto it = rules_.find(rule);
  if (it == rules_.end()) return Status::NotFound("no rule '" + rule + "'");
  return it->second.op->fully_checked();
}

const CostModel* DaisyEngine::cost_model(const std::string& rule) const {
  ReaderLock lock(&*mu_);
  auto it = rules_.find(rule);
  return it == rules_.end() ? nullptr : &it->second.cost;
}

const FdDeltaDetector* DaisyEngine::fd_index(const std::string& rule) const {
  ReaderLock lock(&*mu_);
  auto it = rules_.find(rule);
  return it == rules_.end() ? nullptr : it->second.fd_delta.get();
}

const CleanSelect* DaisyEngine::clean_select(const std::string& rule) const {
  ReaderLock lock(&*mu_);
  auto it = rules_.find(rule);
  return it == rules_.end() ? nullptr : it->second.op.get();
}

const ProvenanceStore* DaisyEngine::provenance(
    const std::string& table) const {
  ReaderLock lock(&*mu_);
  auto it = provenance_.find(table);
  return it == provenance_.end() ? nullptr : &it->second;
}

}  // namespace daisy
