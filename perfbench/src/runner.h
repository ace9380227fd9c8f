// Drives one round of a workload's fixed operation sequence over already
// open connections and records what the clients observed.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "system.h"

namespace perfbench {

struct RoundRecord {
  double workload_s = 0;
  std::vector<double> query_ms;       ///< client round trip incl. streaming
  std::vector<double> append_ms;      ///< ack time minus due time
  std::vector<double> checkpoint_ms;  ///< client-observed Checkpoint RPC
  double late_ms_max = 0;             ///< how late the open loop sent
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failures
  /// outcomes[c][i]: connection c's i-th query (explore_cold and
  /// warm_serving).
  std::vector<std::vector<QueryOutcome>> outcomes;
  std::vector<int64_t> acked_ids;  ///< ingest_mixed: linenumbers acked
  uint64_t rows_streamed = 0;

  void Fail(const std::string& what);
  /// Pools another record's samples and counts into this one (workload_s
  /// is left alone).
  void Absorb(RoundRecord&& part);
};

/// Opens the connections a round needs (part of set-up).
daisy::Result<std::vector<std::unique_ptr<Conn>>> OpenConnections(
    System* system, const WorkloadSpec& spec);

/// Runs one round: explore_cold's ladder, warm_serving's per-connection
/// mixes, or ingest_mixed's appender/analyst/checkpointer.
RoundRecord RunRound(const WorkloadSpec& spec, const Inputs& inputs,
                     std::vector<std::unique_ptr<Conn>>* conns);

/// ingest_mixed: every acked append present exactly once. Compares the
/// row count and order-insensitive checksum of the appended linenumbers
/// the system returns with those of the acked set.
daisy::Status VerifyAcked(Conn* conn, const std::vector<int64_t>& acked_ids);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
