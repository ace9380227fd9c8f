// daisyd — the Daisy network service. Hosts one DaisyEngine behind the
// socket server (src/server/): sessions speak the CRC-framed wire
// protocol, reads scale under the engine's shared lock, writes commit
// through the group-commit WAL before they are acked.
//
// Usage:
//   daisyd --listen unix:/tmp/daisy.sock [--listen tcp:127.0.0.1:7437]
//          [--data-dir DIR]
//          [--table NAME:col:type,col:type]... [--csv NAME=FILE]...
//          [--rule "TEXT@TABLE"]...
//          [--workers N] [--backlog N]
//          [--metrics-dump PATH]
//
// --metrics-dump writes the final Prometheus text exposition page of the
// process metrics registry to PATH on clean shutdown (SIGTERM/SIGINT) —
// the scrape-vs-dump lifecycle of docs/architecture.md: live scraping via
// the Metrics wire message, a last page for post-mortems via the dump.
//
// Startup resolves the engine in this order:
//   1. --data-dir holding a snapshot  -> DaisyEngine::Open (warm recovery:
//      coverage, repairs and provenance are restored, the WAL replayed).
//   2. otherwise                      -> bootstrap from --table/--csv/--rule,
//      then EnablePersistence(--data-dir) when a data dir was given.
//
// Numeric flags (--workers 1..1024, --backlog 1..65535, the TCP port
// 0..65535, 0 = kernel-assigned) must be plain decimal integers in range;
// anything else prints the usage text and exits with status 2.
//
// The environment override DAISY_OPTIMIZER applies on top of defaults; a
// malformed value is ignored with a structured-log warning.
//
// Once serving, prints exactly one readiness line to stdout:
//   daisyd ready unix=<path> tcp_port=<port|-1>
// (the multi-process smoke test waits for it), then blocks until
// SIGTERM/SIGINT and shuts down cleanly — in-flight queries are cut via
// cancel-on-disconnect, acked writes are already fsync-durable.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/csv.h"
#include "common/logger.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "persist/io_util.h"
#include "server/server.h"

namespace {

using daisy::ConstraintSet;
using daisy::Database;
using daisy::DaisyEngine;
using daisy::DaisyOptions;
using daisy::Result;
using daisy::Schema;
using daisy::Status;
using daisy::Table;
using daisy::Value;
using daisy::ValueType;
using daisy::server::DaisyServer;
using daisy::server::ServerOptions;

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Usage(const char* argv0) {
  // daisy-lint: allow(raw-stderr) CLI usage text, not engine logging
  std::fprintf(
      stderr,
      "usage: %s --listen unix:PATH|tcp:HOST:PORT [--listen ...]\n"
      "          [--data-dir DIR] [--table NAME:col:type,...]\n"
      "          [--csv NAME=FILE] [--rule \"TEXT@TABLE\"]\n"
      "          [--workers N] [--backlog N] [--metrics-dump PATH]\n",
      argv0);
  return 2;
}

/// Strictly parses the value of a numeric flag into `*out`. False, after
/// naming the flag and the bad value, when the value is missing, not a
/// plain decimal integer, or outside [lo, hi].
bool ParseNumericFlag(const char* flag, const char* value, uint64_t lo,
                      uint64_t hi, uint64_t* out) {
  if (value == nullptr) return false;
  Result<uint64_t> n = daisy::ParseUintInRange(value, lo, hi);
  if (!n.ok()) {
    // daisy-lint: allow(raw-stderr) flag-parse diagnostic before logger use
    std::fprintf(stderr, "%s: %s\n", flag, n.status().message().c_str());
    return false;
  }
  *out = n.value();
  return true;
}

struct TableSpec {
  std::string name;
  Schema schema;
};

Result<ValueType> ParseType(const std::string& t) {
  if (t == "int") return ValueType::kInt;
  if (t == "double") return ValueType::kDouble;
  if (t == "string") return ValueType::kString;
  return Status::InvalidArgument("unknown column type '" + t +
                                 "' (want int|double|string)");
}

/// "cities:zip:int,city:string" -> name + schema.
Result<TableSpec> ParseTableSpec(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument("bad --table spec: " + spec);
  }
  TableSpec out;
  out.name = spec.substr(0, colon);
  std::vector<daisy::Column> columns;
  std::string rest = spec.substr(colon + 1);
  size_t start = 0;
  while (start <= rest.size()) {
    size_t comma = rest.find(',', start);
    if (comma == std::string::npos) comma = rest.size();
    const std::string field = rest.substr(start, comma - start);
    const size_t sep = field.find(':');
    if (sep == std::string::npos || sep == 0 || sep + 1 >= field.size()) {
      return Status::InvalidArgument("bad column '" + field +
                                     "' in --table spec (want name:type)");
    }
    daisy::Column col;
    col.name = field.substr(0, sep);
    auto type = ParseType(field.substr(sep + 1));
    if (!type.ok()) return type.status();
    col.type = type.value();
    columns.push_back(std::move(col));
    start = comma + 1;
  }
  if (columns.empty()) {
    return Status::InvalidArgument("--table spec has no columns: " + spec);
  }
  out.schema = Schema(std::move(columns));
  return out;
}

Result<Value> CoerceField(const std::string& field, ValueType type) {
  switch (type) {
    case ValueType::kInt: {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(field.c_str(), &end, 10);
      if (errno != 0 || end == field.c_str() || *end != '\0') {
        return Status::ParseError("not an int: '" + field + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case ValueType::kDouble: {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(field.c_str(), &end);
      if (errno != 0 || end == field.c_str() || *end != '\0') {
        return Status::ParseError("not a double: '" + field + "'");
      }
      return Value(v);
    }
    default:
      return Value(field);
  }
}

Status LoadCsvInto(Table* table, const std::string& path) {
  DAISY_ASSIGN_OR_RETURN(auto rows, daisy::ReadCsvFile(path));
  for (const std::vector<std::string>& fields : rows) {
    if (fields.size() != table->schema().num_columns()) {
      return Status::InvalidArgument(
          path + ": row has " + std::to_string(fields.size()) +
          " fields, schema has " +
          std::to_string(table->schema().num_columns()));
    }
    std::vector<Value> values;
    values.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      DAISY_ASSIGN_OR_RETURN(
          Value v, CoerceField(fields[c], table->schema().column(c).type));
      values.push_back(std::move(v));
    }
    DAISY_RETURN_IF_ERROR(table->AppendRow(std::move(values)));
  }
  return Status::OK();
}

bool DirHasSnapshot(const std::string& dir) {
  Result<std::vector<std::string>> entries = daisy::persist::ListDirectory(dir);
  if (!entries.ok()) return false;
  for (const std::string& name : entries.value()) {
    if (name.rfind("snapshot-", 0) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions server_options;
  server_options.worker_threads = 8;
  std::string data_dir;
  std::string metrics_dump_path;
  std::vector<std::string> table_specs;
  std::vector<std::pair<std::string, std::string>> csv_specs;  // table, file
  std::vector<std::string> rule_specs;                         // text@table

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      if (spec.rfind("unix:", 0) == 0) {
        server_options.unix_path = spec.substr(5);
      } else if (spec.rfind("tcp:", 0) == 0) {
        const std::string hostport = spec.substr(4);
        const size_t colon = hostport.rfind(':');
        if (colon == std::string::npos) return Usage(argv[0]);
        uint64_t port = 0;  // 0 = kernel-assigned
        if (!ParseNumericFlag("--listen port",
                              hostport.c_str() + colon + 1, 0, 65535,
                              &port)) {
          return Usage(argv[0]);
        }
        server_options.tcp_host = hostport.substr(0, colon);
        server_options.tcp_port = static_cast<int>(port);
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--data-dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      data_dir = v;
    } else if (arg == "--table") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      table_specs.push_back(v);
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage(argv[0]);
      csv_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--rule") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      rule_specs.push_back(v);
    } else if (arg == "--workers") {
      uint64_t n = 0;
      if (!ParseNumericFlag("--workers", next(), 1, 1024, &n)) {
        return Usage(argv[0]);
      }
      server_options.worker_threads = static_cast<size_t>(n);
    } else if (arg == "--backlog") {
      uint64_t n = 0;
      if (!ParseNumericFlag("--backlog", next(), 1, 65535, &n)) {
        return Usage(argv[0]);
      }
      server_options.accept_backlog = static_cast<size_t>(n);
    } else if (arg == "--metrics-dump") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      metrics_dump_path = v;
    } else {
      // daisy-lint: allow(raw-stderr) flag-parse diagnostic before logger use
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (server_options.unix_path.empty() && server_options.tcp_host.empty()) {
    // daisy-lint: allow(raw-stderr) flag-parse diagnostic before logger use
    std::fprintf(stderr, "at least one --listen is required\n");
    return Usage(argv[0]);
  }

  DaisyOptions options;
  daisy::ApplyEnvOverrides(&options);

  Database db;
  std::unique_ptr<DaisyEngine> owned_engine;
  DaisyEngine* engine = nullptr;

  if (!data_dir.empty() && DirHasSnapshot(data_dir)) {
    // Warm recovery: snapshot + WAL replay restore the full cleaning
    // investment of the previous run.
    Result<std::unique_ptr<DaisyEngine>> opened =
        DaisyEngine::Open(data_dir, &db, options);
    if (!opened.ok()) {
      daisy::LogError("daisyd", "recovery failed",
                      {{"data_dir", data_dir},
                       {"status", opened.status().ToString()}});
      return 1;
    }
    owned_engine = std::move(opened).value();
    engine = owned_engine.get();
    daisy::LogInfo("daisyd", "warm recovery complete",
                   {{"data_dir", data_dir}});
  } else {
    for (const std::string& spec : table_specs) {
      Result<TableSpec> parsed = ParseTableSpec(spec);
      if (!parsed.ok()) {
        daisy::LogError("daisyd", "bad --table spec",
                        {{"status", parsed.status().ToString()}});
        return 1;
      }
      Table table(parsed.value().name, parsed.value().schema);
      for (const auto& csv : csv_specs) {
        if (csv.first != parsed.value().name) continue;
        if (Status st = LoadCsvInto(&table, csv.second); !st.ok()) {
          daisy::LogError("daisyd", "CSV load failed",
                          {{"file", csv.second},
                           {"status", st.ToString()}});
          return 1;
        }
      }
      if (Status st = db.AddTable(std::move(table)); !st.ok()) {
        daisy::LogError("daisyd", "adding table failed",
                        {{"status", st.ToString()}});
        return 1;
      }
    }
    ConstraintSet rules;
    for (const std::string& spec : rule_specs) {
      const size_t at = spec.rfind('@');
      if (at == std::string::npos) {
        daisy::LogError("daisyd", "--rule wants \"TEXT@TABLE\"",
                        {{"spec", spec}});
        return 1;
      }
      const std::string text = spec.substr(0, at);
      const std::string table_name = spec.substr(at + 1);
      Result<const Table*> table =
          static_cast<const Database&>(db).GetTable(table_name);
      if (!table.ok()) {
        daisy::LogError("daisyd", "rule table unknown",
                        {{"table", table_name}});
        return 1;
      }
      if (Status st =
              rules.AddFromText(text, table_name, table.value()->schema());
          !st.ok()) {
        daisy::LogError("daisyd", "adding rule failed",
                        {{"status", st.ToString()}});
        return 1;
      }
    }
    owned_engine = std::make_unique<DaisyEngine>(&db, std::move(rules),
                                                 options);
    engine = owned_engine.get();
    if (Status st = engine->Prepare(); !st.ok()) {
      daisy::LogError("daisyd", "prepare failed",
                      {{"status", st.ToString()}});
      return 1;
    }
    if (!data_dir.empty()) {
      if (Status st = engine->EnablePersistence(data_dir); !st.ok()) {
        daisy::LogError("daisyd", "enabling persistence failed",
                        {{"data_dir", data_dir},
                         {"status", st.ToString()}});
        return 1;
      }
    }
  }

  DaisyServer server(engine, server_options);
  if (Status st = server.Start(); !st.ok()) {
    daisy::LogError("daisyd", "server start failed",
                    {{"status", st.ToString()}});
    return 1;
  }

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("daisyd ready unix=%s tcp_port=%d\n",
              server_options.unix_path.empty()
                  ? "-"
                  : server_options.unix_path.c_str(),
              server.tcp_port());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  daisy::LogInfo(
      "daisyd", "shutting down",
      {{"sessions_served", std::to_string(server.sessions_served())}});
  server.Stop();

  if (!metrics_dump_path.empty()) {
    const std::string page = daisy::MetricsRegistry::Global().RenderPrometheus();
    if (Status st = daisy::persist::WriteFileAtomic(metrics_dump_path, page);
        !st.ok()) {
      daisy::LogError("daisyd", "metrics dump failed",
                      {{"path", metrics_dump_path},
                       {"status", st.ToString()}});
      return 1;
    }
    daisy::LogInfo("daisyd", "metrics dumped",
                   {{"path", metrics_dump_path}});
  }
  return 0;
}
