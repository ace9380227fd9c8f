#include "common/logger.h"

#include <chrono>
#include <cstdio>

namespace daisy {

namespace {

/// Microseconds since the first use of the logger in this process — a
/// monotonic offset (steady clock), immune to wall-clock adjustment.
uint64_t MonotonicMicros() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void AppendJsonEscaped(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendJsonField(const std::string& key, const std::string& value,
                     std::string* out) {
  *out += ",\"";
  AppendJsonEscaped(key, out);
  *out += "\":\"";
  AppendJsonEscaped(value, out);
  *out += '"';
}

}  // namespace

const char* LogLevelToString(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

Logger& Logger::Global() {
  static Logger* const logger = new Logger();
  return *logger;
}

void Logger::Log(LogLevel level, const std::string& component,
                 const std::string& message,
                 const std::vector<LogField>& fields) {
  std::string line = "{\"ts_us\":";
  line += std::to_string(MonotonicMicros());
  line += ",\"level\":\"";
  line += LogLevelToString(level);
  line += "\",\"component\":\"";
  AppendJsonEscaped(component, &line);
  line += "\",\"msg\":\"";
  AppendJsonEscaped(message, &line);
  line += '"';
  for (const LogField& field : fields) {
    AppendJsonField(field.first, field.second, &line);
  }
  line += '}';

  bool to_stderr;
  {
    MutexLock lock(&mu_);
    to_stderr = stderr_enabled_ && level >= LogLevel::kInfo;
    if (ring_.size() < kRingCapacity) {
      ring_.push_back(line);
    } else {
      ring_[next_] = line;
      wrapped_ = true;
    }
    next_ = (next_ + 1) % kRingCapacity;
  }
  if (to_stderr) {
    // The single sanctioned stderr write in the tree (see the daisy_lint
    // raw-stderr rule). One fprintf call per record keeps lines whole
    // under concurrent emission (stderr is unbuffered + atomic per call).
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

void Logger::set_stderr_enabled(bool enabled) {
  MutexLock lock(&mu_);
  stderr_enabled_ = enabled;
}

std::vector<std::string> Logger::Tail(size_t max_lines) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  // Oldest-first: a wrapped ring starts at next_, an unwrapped one at 0.
  const size_t count = wrapped_ ? kRingCapacity : ring_.size();
  const size_t begin = wrapped_ ? next_ : 0;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ring_[(begin + i) % kRingCapacity]);
  }
  if (max_lines != 0 && out.size() > max_lines) {
    out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(max_lines));
  }
  return out;
}

void LogInfo(const std::string& component, const std::string& message,
             const std::vector<LogField>& fields) {
  Logger::Global().Log(LogLevel::kInfo, component, message, fields);
}
void LogWarn(const std::string& component, const std::string& message,
             const std::vector<LogField>& fields) {
  Logger::Global().Log(LogLevel::kWarn, component, message, fields);
}
void LogError(const std::string& component, const std::string& message,
              const std::vector<LogField>& fields) {
  Logger::Global().Log(LogLevel::kError, component, message, fields);
}

}  // namespace daisy
