// Structured, leveled logging (docs/architecture.md, Observability).
//
// Every log record is one JSON line on stderr:
//
//   {"ts_us":152340,"level":"warn","component":"engine",
//    "msg":"health transition","from":"healthy","to":"degraded-read-only"}
//
// `ts_us` is a monotonic (steady-clock) microsecond offset from process
// start — orderable and diffable, never jumps with wall-clock changes.
// `component` names the emitting layer (engine, persist, server, tool);
// arbitrary key=value context rides along as extra string fields, e.g. a
// query or session id. The last kRingCapacity rendered lines are kept in
// an in-process ring buffer (Tail()) so tests and postmortem dumps can
// read recent history without scraping stderr.
//
// This is the ONLY place in the tree allowed to write to stderr — the
// daisy_lint `raw-stderr` rule confines std::cerr / fprintf(stderr, ...)
// to logger.cc. Logging is for rare, human-relevant events (transitions,
// startup, failures); per-operation accounting belongs in
// common/metrics.h, whose hot path is lock-free.

#ifndef DAISY_COMMON_LOGGER_H_
#define DAISY_COMMON_LOGGER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace daisy {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

const char* LogLevelToString(LogLevel level);

/// One extra key/value context field of a log record.
using LogField = std::pair<std::string, std::string>;

class Logger {
 public:
  static constexpr size_t kRingCapacity = 256;

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// The process-global logger every layer emits through.
  static Logger& Global();

  /// Formats and emits one record: to stderr when the level is kInfo or
  /// above and stderr emission is on, and always into the ring buffer.
  /// Thread-safe; formatting happens outside the lock.
  void Log(LogLevel level, const std::string& component,
           const std::string& message, const std::vector<LogField>& fields = {});

  /// Master switch for stderr emission — tests and benches silence it so
  /// expected transitions don't spam their output. Ring buffer unaffected.
  void set_stderr_enabled(bool enabled);

  /// The most recent rendered lines, oldest first, at most `max_lines`
  /// (0 = the full ring).
  std::vector<std::string> Tail(size_t max_lines = 0) const;

 private:
  mutable Mutex mu_;
  bool stderr_enabled_ DAISY_GUARDED_BY(mu_) = true;
  /// Fixed-capacity ring: next_ is the slot the next line lands in.
  std::vector<std::string> ring_ DAISY_GUARDED_BY(mu_);
  size_t next_ DAISY_GUARDED_BY(mu_) = 0;
  bool wrapped_ DAISY_GUARDED_BY(mu_) = false;
};

/// Convenience wrappers over Logger::Global().
void LogInfo(const std::string& component, const std::string& message,
             const std::vector<LogField>& fields = {});
void LogWarn(const std::string& component, const std::string& message,
             const std::vector<LogField>& fields = {});
void LogError(const std::string& component, const std::string& message,
              const std::vector<LogField>& fields = {});

}  // namespace daisy

#endif  // DAISY_COMMON_LOGGER_H_
