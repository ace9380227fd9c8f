// daisy-cli — interactive / one-shot client for daisyd.
//
// Usage:
//   daisy-cli --connect unix:/tmp/daisy.sock [-e "SELECT ..."]
//   daisy-cli --connect tcp:127.0.0.1:7437             (REPL on stdin)
//
// One statement per line. Plain SQL runs as a streamed query; dot-commands
// cover the rest of the protocol:
//   .schema               table catalog
//   .health               engine health machine state
//   .metrics              Prometheus text page from the server's registry
//   .analyze SELECT ...   remote EXPLAIN ANALYZE
//   .append TABLE v1,v2   ingest one row (fields coerced by column type)
//   .delete TABLE id,...  tombstone rows by id
//   .cleanall             clean every remaining dirty tuple
//   .checkpoint           snapshot + WAL rotation
//   .timeout MS           per-query timeout for following queries (-1 off)
//   .limit N              per-query row limit (0 off)
//   .quit
//
// Exit status: 0 on success; 1 when a statement failed (one-shot mode) or
// the connection was lost; 2 on a usage error, such as a TCP port outside
// 1..65535.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "server/client.h"

namespace {

using daisy::Result;
using daisy::Status;
using daisy::Value;
using daisy::server::DaisyClient;

int Usage(const char* argv0) {
  // daisy-lint: allow(raw-stderr) CLI usage text, not engine logging
  std::fprintf(stderr,
               "usage: %s --connect unix:PATH|tcp:HOST:PORT [-e STMT]\n",
               argv0);
  return 2;
}

struct CliState {
  int64_t timeout_ms = -1;
  uint64_t row_limit = 0;
};

void PrintRows(const DaisyClient::QueryResult& result) {
  for (size_t i = 0; i < result.header.names.size(); ++i) {
    std::printf(i == 0 ? "%s" : " | %s", result.header.names[i].c_str());
  }
  if (!result.header.names.empty()) std::printf("\n");
  for (const std::vector<Value>& row : result.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      std::printf(i == 0 ? "%s" : " | %s", row[i].ToString().c_str());
    }
    std::printf("\n");
  }
  std::printf("(%llu rows, epoch %llu, %s%s)\n",
              static_cast<unsigned long long>(result.done.total_rows),
              static_cast<unsigned long long>(result.done.epoch),
              result.done.read_path ? "read path" : "writer path",
              result.done.termination == 0
                  ? ""
                  : (", cut: " + result.done.cut_node).c_str());
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Coerces a textual field: int if it parses fully as one, double next,
/// string otherwise. daisyd validates against the real schema server-side.
Value CoerceLoose(const std::string& field) {
  errno = 0;
  char* end = nullptr;
  const long long i = std::strtoll(field.c_str(), &end, 10);
  if (errno == 0 && end != field.c_str() && *end == '\0') {
    return Value(static_cast<int64_t>(i));
  }
  errno = 0;
  const double d = std::strtod(field.c_str(), &end);
  if (errno == 0 && end != field.c_str() && *end == '\0') return Value(d);
  return Value(field);
}

/// Executes one statement. Returns OK even for statement-level failures
/// (they are printed); a non-OK return means the connection is unusable.
Status RunStatement(DaisyClient* client, CliState* state,
                    const std::string& line, bool* failed) {
  *failed = false;
  auto report = [&](const Status& s) {
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      *failed = true;
    }
  };

  if (line == ".quit" || line == ".exit") {
    return Status::NotFound("quit");
  }
  if (line == ".schema") {
    Result<daisy::server::SchemaInfoMsg> schema = client->Schema();
    if (!schema.ok()) {
      report(schema.status());
      return schema.status().code() == daisy::StatusCode::kIOError
                 ? schema.status()
                 : Status::OK();
    }
    for (const auto& t : schema.value().tables) {
      std::printf("%s (%llu rows):", t.name.c_str(),
                  static_cast<unsigned long long>(t.num_rows));
      for (size_t i = 0; i < t.columns.size(); ++i) {
        std::printf(" %s", t.columns[i].c_str());
      }
      std::printf("\n");
    }
    return Status::OK();
  }
  if (line == ".health") {
    Result<daisy::server::HealthInfoMsg> health = client->Health();
    if (!health.ok()) {
      report(health.status());
      return Status::OK();
    }
    static const char* kStates[] = {"healthy", "degraded-read-only",
                                    "failed"};
    const uint8_t s = health.value().state;
    std::printf("state: %s\n", s < 3 ? kStates[s] : "unknown");
    if (!health.value().cause.empty()) {
      std::printf("cause: %s\n", health.value().cause.c_str());
    }
    return Status::OK();
  }
  if (line == ".metrics") {
    Result<std::string> page = client->Metrics();
    if (!page.ok()) {
      report(page.status());
      return Status::OK();
    }
    std::printf("%s", page.value().c_str());
    return Status::OK();
  }
  if (line.rfind(".analyze ", 0) == 0) {
    Result<std::string> text =
        client->ExplainAnalyze(line.substr(9), state->timeout_ms);
    if (text.ok()) {
      std::printf("%s\n", text.value().c_str());
    } else {
      report(text.status());
    }
    return Status::OK();
  }
  if (line.rfind(".append ", 0) == 0) {
    const std::string rest = line.substr(8);
    const size_t space = rest.find(' ');
    if (space == std::string::npos) {
      report(Status::InvalidArgument(".append TABLE v1,v2,..."));
      return Status::OK();
    }
    std::vector<Value> row;
    for (const std::string& f : SplitCommas(rest.substr(space + 1))) {
      row.push_back(CoerceLoose(f));
    }
    Result<uint64_t> n =
        client->Append(rest.substr(0, space), {std::move(row)});
    if (n.ok()) {
      std::printf("appended %llu row(s), durable\n",
                  static_cast<unsigned long long>(n.value()));
    } else {
      report(n.status());
    }
    return Status::OK();
  }
  if (line.rfind(".delete ", 0) == 0) {
    const std::string rest = line.substr(8);
    const size_t space = rest.find(' ');
    if (space == std::string::npos) {
      report(Status::InvalidArgument(".delete TABLE id,id,..."));
      return Status::OK();
    }
    std::vector<uint64_t> ids;
    for (const std::string& f : SplitCommas(rest.substr(space + 1))) {
      ids.push_back(std::strtoull(f.c_str(), nullptr, 10));
    }
    Result<uint64_t> n =
        client->Delete(rest.substr(0, space), std::move(ids));
    if (n.ok()) {
      std::printf("deleted %llu row(s), durable\n",
                  static_cast<unsigned long long>(n.value()));
    } else {
      report(n.status());
    }
    return Status::OK();
  }
  if (line == ".cleanall") {
    report(client->CleanAll());
    return Status::OK();
  }
  if (line == ".checkpoint") {
    report(client->Checkpoint());
    return Status::OK();
  }
  if (line.rfind(".timeout ", 0) == 0) {
    state->timeout_ms = std::atoll(line.c_str() + 9);
    return Status::OK();
  }
  if (line.rfind(".limit ", 0) == 0) {
    state->row_limit =
        static_cast<uint64_t>(std::strtoull(line.c_str() + 7, nullptr, 10));
    return Status::OK();
  }
  if (!line.empty() && line[0] == '.') {
    report(Status::InvalidArgument("unknown command: " + line));
    return Status::OK();
  }

  Result<DaisyClient::QueryResult> result =
      client->Query(line, state->timeout_ms, state->row_limit);
  if (!result.ok()) {
    report(result.status());
    // An IOError means the stream itself died; anything else is a
    // statement-level failure on a healthy connection.
    if (result.status().code() == daisy::StatusCode::kIOError) {
      return result.status();
    }
    return Status::OK();
  }
  PrintRows(result.value());
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string connect;
  std::string one_shot;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      connect = argv[++i];
    } else if (arg == "-e" && i + 1 < argc) {
      one_shot = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (connect.empty()) return Usage(argv[0]);

  // tcp:HOST:PORT — a port that is not a plain decimal in 1..65535 is a
  // usage error, never a silently wrong port.
  std::string tcp_host;
  int tcp_port = 0;
  if (connect.rfind("tcp:", 0) == 0) {
    const std::string hostport = connect.substr(4);
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos) return Usage(argv[0]);
    Result<uint64_t> port =
        daisy::ParseUintInRange(hostport.substr(colon + 1), 1, 65535);
    if (!port.ok()) {
      // daisy-lint: allow(raw-stderr) CLI flag diagnostic, not engine logging
      std::fprintf(stderr, "--connect port: %s\n",
                   port.status().message().c_str());
      return Usage(argv[0]);
    }
    tcp_host = hostport.substr(0, colon);
    tcp_port = static_cast<int>(port.value());
  }

  Result<std::unique_ptr<DaisyClient>> client =
      [&]() -> Result<std::unique_ptr<DaisyClient>> {
    if (connect.rfind("unix:", 0) == 0) {
      return DaisyClient::ConnectUnix(connect.substr(5));
    }
    if (tcp_port != 0) {
      return DaisyClient::ConnectTcp(tcp_host, tcp_port);
    }
    return Status::InvalidArgument("bad --connect spec: " + connect);
  }();
  if (!client.ok()) {
    // daisy-lint: allow(raw-stderr) CLI connect diagnostic, not engine logging
    std::fprintf(stderr, "daisy-cli: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  CliState state;
  if (!one_shot.empty()) {
    bool failed = false;
    const Status s =
        RunStatement(client.value().get(), &state, one_shot, &failed);
    return (!s.ok() || failed) ? 1 : 0;
  }

  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), stdin) != nullptr) {
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    bool failed = false;
    const Status s = RunStatement(client.value().get(), &state, line, &failed);
    if (!s.ok()) {
      return s.message() == "quit" ? 0 : 1;
    }
  }
  return 0;
}
