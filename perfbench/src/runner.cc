#include "runner.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

using daisy::Result;
using daisy::Status;

namespace {

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One query with its client-observed latency.
void TimedQuery(Conn* conn, const std::string& sql, RoundRecord* rec) {
  ++rec->attempted;
  Result<QueryOutcome> r = conn->Query(sql);
  if (!r.ok()) {
    rec->Fail("query: " + r.status().ToString());
    return;
  }
  rec->query_ms.push_back(r.value().elapsed_ms);
  rec->rows_streamed += r.value().rows;
  rec->outcomes.back().push_back(r.value());
}

/// warm_serving: every connection runs its own mix in a closed loop.
RoundRecord RunParallelMixes(const Inputs& inputs,
                             std::vector<std::unique_ptr<Conn>>* conns) {
  std::vector<RoundRecord> parts(conns->size());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load()) std::this_thread::yield();
      parts[c].outcomes.emplace_back();
      for (const std::string& sql : inputs.queries[c]) {
        TimedQuery((*conns)[c].get(), sql, &parts[c]);
      }
    });
  }
  const auto t0 = Clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();
  RoundRecord rec;
  rec.workload_s = MillisBetween(t0, Clock::now()) / 1e3;
  for (RoundRecord& p : parts) rec.Absorb(std::move(p));
  return rec;
}

/// ingest_mixed: an open-loop appender, an analyst paced by the appends,
/// and a checkpointer triggered by append count. The round ends when all
/// three are done.
RoundRecord RunIngest(const WorkloadSpec& spec, const Inputs& inputs,
                      std::vector<std::unique_ptr<Conn>>* conns) {
  RoundRecord appender, analyst, checkpointer;
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;  // appends answered (acked or failed), under mu
  const auto t0 = Clock::now();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.appends_per_s));

  std::thread append_thread([&] {
    Conn* conn = (*conns)[0].get();
    for (size_t i = 0; i < inputs.batches.size(); ++i) {
      const auto due = t0 + interval * static_cast<int64_t>(i);
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      appender.late_ms_max =
          std::max(appender.late_ms_max, MillisBetween(due, sent));
      ++appender.attempted;
      const Status st = conn->Append("lineorder", inputs.batches[i]);
      appender.append_ms.push_back(MillisBetween(due, Clock::now()));
      if (st.ok()) {
        for (size_t r = 0; r < inputs.batches[i].size(); ++r) {
          appender.acked_ids.push_back(
              kFirstAppendId +
              static_cast<int64_t>(i * spec.rows_per_append + r));
        }
      } else {
        appender.Fail("append: " + st.ToString());
      }
      std::lock_guard<std::mutex> lock(mu);
      ++completed;
      cv.notify_all();
    }
  });
  std::thread checkpoint_thread([&] {
    Conn* conn = (*conns)[2].get();
    for (size_t k = 1; k * spec.checkpoint_every <= inputs.batches.size();
         ++k) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return completed >= k * spec.checkpoint_every; });
      }
      ++checkpointer.attempted;
      const auto c0 = Clock::now();
      const Status st = conn->Checkpoint();
      checkpointer.checkpoint_ms.push_back(MillisBetween(c0, Clock::now()));
      if (!st.ok()) checkpointer.Fail("checkpoint: " + st.ToString());
    }
  });
  std::thread analyst_thread([&] {
    // Query j waits for j * appends / queries answered appends, then runs
    // at once: a closed loop with no think time whose queries each settle
    // a fixed share of the stream. A free-running analyst made the delta
    // each query settles, and with it the engine's cleaning trajectory,
    // depend on timing; rounds of one seed then differed by 2x.
    analyst.outcomes.emplace_back();
    const std::vector<std::string>& list = inputs.queries[0];
    for (size_t j = 0; j < list.size(); ++j) {
      {
        const size_t due = j * inputs.batches.size() / list.size();
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return completed >= due; });
      }
      TimedQuery((*conns)[1].get(), list[j], &analyst);
    }
  });
  append_thread.join();
  checkpoint_thread.join();
  analyst_thread.join();

  RoundRecord rec;
  rec.workload_s = MillisBetween(t0, Clock::now()) / 1e3;
  rec.Absorb(std::move(appender));
  rec.Absorb(std::move(checkpointer));
  rec.Absorb(std::move(analyst));
  return rec;
}

}  // namespace

void RoundRecord::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void RoundRecord::Absorb(RoundRecord&& part) {
  auto append = [](auto* dst, auto& src) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(&query_ms, part.query_ms);
  append(&append_ms, part.append_ms);
  append(&checkpoint_ms, part.checkpoint_ms);
  append(&acked_ids, part.acked_ids);
  for (const std::string& e : part.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
  late_ms_max = std::max(late_ms_max, part.late_ms_max);
  attempted += part.attempted;
  failed += part.failed;
  rows_streamed += part.rows_streamed;
  for (auto& o : part.outcomes) outcomes.push_back(std::move(o));
}

Result<std::vector<std::unique_ptr<Conn>>> OpenConnections(
    System* system, const WorkloadSpec& spec) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < spec.connections; ++c) {
    DAISY_ASSIGN_OR_RETURN(std::unique_ptr<Conn> conn, system->Connect());
    conns.push_back(std::move(conn));
  }
  return conns;
}

RoundRecord RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     std::vector<std::unique_ptr<Conn>>* conns) {
  if (spec.appends > 0) return RunIngest(spec, inputs, conns);
  return RunParallelMixes(inputs, conns);
}

Status VerifyAcked(Conn* conn, const std::vector<int64_t>& acked_ids) {
  DAISY_ASSIGN_OR_RETURN(
      QueryOutcome got,
      conn->Query("SELECT lineorder.linenumber FROM lineorder WHERE "
                  "lineorder.linenumber >= " +
                  std::to_string(kFirstAppendId)));
  uint64_t want = 0;
  for (int64_t id : acked_ids) want += RowChecksum({daisy::Value(id)});
  if (got.rows != acked_ids.size() || got.checksum != want) {
    return Status::Internal(
        "acked appends not present exactly once: " +
        std::to_string(got.rows) + " appended rows returned, " +
        std::to_string(acked_ids.size()) + " acked (checksum " +
        (got.checksum == want ? "equal" : "differs") + ")");
  }
  return Status::OK();
}

}  // namespace perfbench
