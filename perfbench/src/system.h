// The two systems a workload runs against, behind one connection
// interface: a real daisyd process driven through DaisyClient over a unix
// socket (the measured run), and an in-process DaisyEngine (the reference
// and the traced run). The traced in-process run records spans around the
// public calls into each layer.

#ifndef PERFBENCH_SYSTEM_H_
#define PERFBENCH_SYSTEM_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/status.h"
#include "loadgen.h"
#include "stats.h"
#include "storage/database.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock since `epoch`.
double MicrosSince(Clock::time_point epoch);

/// What a query returned, as both systems can report it.
struct QueryOutcome {
  /// Wall time of the query call alone (for daisyd: DaisyClient::Query,
  /// row streaming included), without the benchmark's own checksumming.
  double elapsed_ms = 0;
  uint64_t rows = 0;
  /// Order-insensitive: the sum of per-row hashes of the most-probable
  /// values.
  uint64_t checksum = 0;
  uint64_t errors_fixed = 0;
  bool read_path = false;
  // Known only in-process (QueryReport):
  bool switched_to_full = false;
  uint64_t tuples_scanned = 0;
  uint64_t extra_tuples = 0;
};

/// Hash of one result row's values, in column order.
class RowHasher {
 public:
  void Add(const daisy::Value& v);
  uint64_t Finish() const { return h_ ^ (h_ >> 31); }

 private:
  uint64_t h_ = 0x243f6a8885a308d3ull;
};
uint64_t RowChecksum(const std::vector<daisy::Value>& row);

/// One session. Not thread-safe: one per thread.
class Conn {
 public:
  virtual ~Conn() = default;
  virtual daisy::Result<QueryOutcome> Query(const std::string& sql) = 0;
  virtual daisy::Status Append(const std::string& table,
                               std::vector<std::vector<daisy::Value>> rows) = 0;
  virtual daisy::Status Checkpoint() = 0;
  virtual daisy::Status CleanAll() = 0;
};

class System {
 public:
  virtual ~System() = default;
  virtual daisy::Result<std::unique_ptr<Conn>> Connect() = 0;
  /// The Prometheus text page of the system's metrics registry.
  virtual daisy::Result<std::string> Scrape() = 0;
};

/// A daisyd child process. Started with the generated CSVs, the rules and
/// a data directory (so the WAL is live); stopped with SIGTERM. The socket
/// and data directory are removed when the object dies, on every path.
class Daisyd : public System {
 public:
  /// Must be called from the main thread: the child is tied to it with
  /// PR_SET_PDEATHSIG, so it dies with the benchmark.
  static daisy::Result<std::unique_ptr<Daisyd>> Start(
      const std::string& binary, const Inputs& inputs, const std::string& dir,
      size_t workers);
  ~Daisyd() override;
  Daisyd(const Daisyd&) = delete;
  Daisyd& operator=(const Daisyd&) = delete;

  daisy::Result<std::unique_ptr<Conn>> Connect() override;
  daisy::Result<std::string> Scrape() override;
  /// VmHWM of the child from /proc, in MiB (0 if unreadable).
  double PeakRssMb() const;
  /// SIGTERM, wait for exit, remove socket and data directory. Returns
  /// false if the child did not exit cleanly.
  bool Stop();

 private:
  Daisyd() = default;
  pid_t pid_ = -1;
  std::string socket_;
  std::string data_dir_;
};

/// Spans of an in-process run, gathered from every connection.
struct Trace {
  std::vector<Span> spans;
  /// op -> 1 writer path, 0 read path (queries whose path was
  /// unambiguous).
  std::map<uint32_t, int> query_path;
  uint64_t operator_rows = 0;
  uint64_t result_rows = 0;
  size_t unparsed_traces = 0;
};

/// The engine in this process, loaded from the same CSV files and rules
/// as daisyd, with persistence in its own directory. Every connection
/// records one root span per operation into trace(); with `traced`, also
/// the layer spans beneath it.
class LocalEngine : public System {
 public:
  static daisy::Result<std::unique_ptr<LocalEngine>> Start(
      const Inputs& inputs, const std::string& data_dir, bool traced);
  ~LocalEngine() override;

  daisy::Result<std::unique_ptr<Conn>> Connect() override;
  daisy::Result<std::string> Scrape() override;

  /// Valid once every connection is destroyed.
  const Trace& trace() const { return trace_; }

 private:
  friend class LocalConn;
  LocalEngine() = default;
  void Merge(std::vector<Span> spans, const std::map<uint32_t, int>& paths,
             uint64_t operator_rows, uint64_t result_rows, size_t unparsed);

  daisy::Database db_;
  std::unique_ptr<daisy::DaisyEngine> engine_;
  std::string data_dir_;
  bool traced_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::mutex trace_mu_;
  Trace trace_;
  std::atomic<uint32_t> next_op_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SYSTEM_H_
