#include "system.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/csv.h"
#include "common/metrics.h"
#include "query/parser.h"
#include "server/client.h"

namespace perfbench {

using daisy::Result;
using daisy::Status;
using daisy::Value;

double MicrosSince(Clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

void RowHasher::Add(const Value& v) {
  h_ ^= static_cast<uint64_t>(v.Hash());
  h_ = (h_ ^ (h_ >> 30)) * 0xbf58476d1ce4e5b9ull;
  h_ = (h_ ^ (h_ >> 27)) * 0x94d049bb133111ebull;
}

uint64_t RowChecksum(const std::vector<Value>& row) {
  RowHasher h;
  for (const Value& v : row) h.Add(v);
  return h.Finish();
}

// ------------------------------------------------------------------ daisyd --

namespace {

class RemoteConn : public Conn {
 public:
  explicit RemoteConn(std::unique_ptr<daisy::server::DaisyClient> client)
      : client_(std::move(client)) {}

  Result<QueryOutcome> Query(const std::string& sql) override {
    const auto t0 = Clock::now();
    Result<daisy::server::DaisyClient::QueryResult> r = client_->Query(sql);
    const double elapsed_us = MicrosSince(t0);
    DAISY_ASSIGN_OR_RETURN(auto result, std::move(r));
    QueryOutcome out;
    out.elapsed_ms = elapsed_us / 1e3;
    out.rows = result.rows.size();
    for (const auto& row : result.rows) out.checksum += RowChecksum(row);
    out.errors_fixed = result.done.errors_fixed;
    out.read_path = result.done.read_path;
    return out;
  }
  Status Append(const std::string& table,
                std::vector<std::vector<Value>> rows) override {
    return client_->Append(table, std::move(rows)).status();
  }
  Status Checkpoint() override { return client_->Checkpoint(); }
  Status CleanAll() override { return client_->CleanAll(); }

 private:
  std::unique_ptr<daisy::server::DaisyClient> client_;
};

}  // namespace

Result<std::unique_ptr<Daisyd>> Daisyd::Start(const std::string& binary,
                                              const Inputs& inputs,
                                              const std::string& dir,
                                              size_t workers) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir " + dir + ": " + ec.message());
  std::unique_ptr<Daisyd> d(new Daisyd());
  d->socket_ = dir + "/daisyd.sock";
  d->data_dir_ = dir + "/data";
  const std::string log = dir + "/daisyd.log";

  std::vector<std::string> args = {binary,          "--listen",
                                   "unix:" + d->socket_, "--data-dir",
                                   d->data_dir_,    "--workers",
                                   std::to_string(workers)};
  for (const TableFile& t : inputs.tables) {
    args.insert(args.end(), {"--table", t.table_spec, "--csv",
                             t.name + "=" + t.path});
  }
  for (const std::string& r : inputs.rules) {
    args.insert(args.end(), {"--rule", r});
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int ready_pipe[2];
  if (::pipe(ready_pipe) != 0) return Status::IOError("pipe failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(ready_pipe[0]);
    ::close(ready_pipe[1]);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    // Child: die with the benchmark, stdout to the readiness pipe, the
    // structured log to a file.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    ::dup2(ready_pipe[1], STDOUT_FILENO);
    const int logfd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (logfd >= 0) ::dup2(logfd, STDERR_FILENO);
    ::close(ready_pipe[0]);
    ::close(ready_pipe[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  d->pid_ = pid;
  ::close(ready_pipe[1]);

  // Wait for the readiness line; the first start in a checkout also pays
  // page-cache misses, so allow minutes.
  std::string out;
  const auto deadline = Clock::now() + std::chrono::seconds(170);
  bool ready = false;
  while (!ready && Clock::now() < deadline) {
    pollfd p{ready_pipe[0], POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t n = ::read(ready_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the child exited
    out.append(buf, static_cast<size_t>(n));
    ready = out.find("daisyd ready") != std::string::npos &&
            out.find('\n') != std::string::npos;
  }
  ::close(ready_pipe[0]);
  if (!ready) {
    return Status::Internal("daisyd did not become ready (see " + log + ")");
  }
  return d;
}

Daisyd::~Daisyd() { (void)Stop(); }

bool Daisyd::Stop() {
  bool clean = true;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    pid_t got = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while ((got = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (got == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      clean = false;
    } else {
      clean = got == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    pid_ = -1;
  }
  std::error_code ec;
  std::filesystem::remove(socket_, ec);
  std::filesystem::remove_all(data_dir_, ec);
  return clean;
}

Result<std::unique_ptr<Conn>> Daisyd::Connect() {
  DAISY_ASSIGN_OR_RETURN(auto client,
                         daisy::server::DaisyClient::ConnectUnix(socket_));
  return std::unique_ptr<Conn>(new RemoteConn(std::move(client)));
}

Result<std::string> Daisyd::Scrape() {
  DAISY_ASSIGN_OR_RETURN(auto client,
                         daisy::server::DaisyClient::ConnectUnix(socket_));
  return client->Metrics();
}

double Daisyd::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------- in-process --

namespace {

/// Mirrors daisyd's --csv loading so both systems hold the same bits.
Status LoadCsv(daisy::Table* table, const std::string& path) {
  DAISY_ASSIGN_OR_RETURN(auto rows, daisy::ReadCsvFile(path));
  for (const std::vector<std::string>& fields : rows) {
    std::vector<Value> values;
    for (size_t c = 0; c < fields.size(); ++c) {
      switch (table->schema().column(c).type) {
        case daisy::ValueType::kInt:
          values.emplace_back(
              static_cast<int64_t>(std::strtoll(fields[c].c_str(), nullptr, 10)));
          break;
        case daisy::ValueType::kDouble:
          values.emplace_back(std::strtod(fields[c].c_str(), nullptr));
          break;
        default:
          values.emplace_back(fields[c]);
      }
    }
    DAISY_RETURN_IF_ERROR(table->AppendRow(std::move(values)));
  }
  return Status::OK();
}

}  // namespace

class LocalConn : public Conn {
 public:
  explicit LocalConn(LocalEngine* owner) : owner_(owner) {}
  ~LocalConn() override {
    owner_->Merge(std::move(spans_), paths_, operator_rows_, result_rows_,
                  unparsed_);
  }

  Result<QueryOutcome> Query(const std::string& sql) override {
    daisy::DaisyEngine& e = *owner_->engine_;
    if (!owner_->traced_) {
      const int root = Open("op.query", -1);
      Result<daisy::QueryReport> report = e.Query(sql);
      Close(root);
      DAISY_ASSIGN_OR_RETURN(daisy::QueryReport r, std::move(report));
      QueryOutcome out;
      out.elapsed_ms = (spans_[root].end_us - spans_[root].start_us) / 1e3;
      const daisy::Table& t = r.output.result;
      out.rows = t.num_rows();
      for (size_t i = 0; i < t.num_rows(); ++i) {
        RowHasher h;
        for (size_t c = 0; c < t.num_columns(); ++c) {
          h.Add(t.cell(i, c).MostProbable());
        }
        out.checksum += h.Finish();
      }
      out.errors_fixed = r.errors_fixed;
      out.read_path = r.read_path;
      out.switched_to_full = r.switched_to_full;
      out.tuples_scanned = r.tuples_scanned;
      out.extra_tuples = r.extra_tuples;
      return out;
    }

    // Traced: parse, plan (Explain, issued before the op) and the engine
    // call (ExplainAnalyze: the same side effects as Query, plus the
    // per-operator trace the plan spans are built from).
    static daisy::Counter* const reads =
        daisy::MetricsRegistry::Global().GetCounter(
            "daisy_engine_queries_total{path=\"read\"}");
    static daisy::Counter* const writes =
        daisy::MetricsRegistry::Global().GetCounter(
            "daisy_engine_queries_total{path=\"write\"}");
    const int root = Open("op.query", -1);
    const int parse = Open("query.parse", root);
    Result<daisy::SelectStmt> stmt = daisy::ParseQuery(sql);
    Close(parse);
    if (!stmt.ok()) return stmt.status();
    const int plan = Open("plan.plan", root);
    Result<std::string> explained = e.Explain(sql);
    Close(plan);
    if (!explained.ok()) return explained.status();
    const uint64_t reads0 = reads->Value(), writes0 = writes->Value();
    const int engine = Open("clean.engine", root);
    Result<std::string> analyzed = e.ExplainAnalyze(sql);
    Close(engine);
    const uint64_t dr = reads->Value() - reads0, dw = writes->Value() - writes0;
    Close(root);
    if (!analyzed.ok()) return analyzed.status();

    QueryOutcome out;
    out.elapsed_ms = (spans_[root].end_us - spans_[root].start_us) / 1e3;
    out.read_path = dw == 0;
    // Other connections' queries move the shared counters too; record the
    // path only when exactly one of them moved.
    if ((dr == 0) != (dw == 0)) paths_[op_] = dw > 0 ? 1 : 0;
    std::vector<TraceNode> nodes;
    if (ParseTraceSection(analyzed.value(), &nodes)) {
      for (const TraceNode& n : nodes) operator_rows_ += n.rows;
      result_rows_ += nodes.front().rows;
      out.rows = nodes.front().rows;
      AppendTraceSpans(nodes, engine, spans_[engine].start_us, op_, &spans_);
    } else {
      ++unparsed_;
    }
    return out;
  }

  Status Append(const std::string& table,
                std::vector<std::vector<Value>> rows) override {
    const int root = Open("op.append", -1);
    const int engine = Open("clean.engine_append", root);
    Status st = owner_->engine_->AppendRows(table, std::move(rows)).status();
    Close(engine);
    Close(root);
    return st;
  }

  Status Checkpoint() override {
    const int root = Open("op.checkpoint", -1);
    const int persist = Open("persist.checkpoint", root);
    Status st = owner_->engine_->Checkpoint();
    Close(persist);
    Close(root);
    return st;
  }

  Status CleanAll() override { return owner_->engine_->CleanAllRemaining(); }

 private:
  /// Starts a span; a root starts a new operation. Untraced engines keep
  /// only the roots (the op's engine call), so the two runs' op times
  /// compare; a child span is then a no-op returning -1.
  int Open(const char* name, int parent) {
    if (parent < 0) {
      op_ = owner_->next_op_.fetch_add(1);
    } else if (!owner_->traced_) {
      return -1;
    }
    Span s;
    s.name = name;
    s.parent = parent;
    s.start_us = MicrosSince(owner_->epoch_);
    s.op = op_;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
  }
  void Close(int span) {
    if (span >= 0) spans_[span].end_us = MicrosSince(owner_->epoch_);
  }

  LocalEngine* owner_;
  std::vector<Span> spans_;
  std::map<uint32_t, int> paths_;
  uint32_t op_ = 0;
  uint64_t operator_rows_ = 0;
  uint64_t result_rows_ = 0;
  size_t unparsed_ = 0;
};

Result<std::unique_ptr<LocalEngine>> LocalEngine::Start(
    const Inputs& inputs, const std::string& data_dir, bool traced) {
  std::unique_ptr<LocalEngine> le(new LocalEngine());
  le->traced_ = traced;
  le->data_dir_ = data_dir;
  for (const TableFile& f : inputs.tables) {
    daisy::Table table(f.name, f.schema);
    DAISY_RETURN_IF_ERROR(LoadCsv(&table, f.path));
    DAISY_RETURN_IF_ERROR(le->db_.AddTable(std::move(table)));
  }
  daisy::ConstraintSet rules;
  for (const std::string& spec : inputs.rules) {
    const size_t at = spec.rfind('@');
    const std::string table = spec.substr(at + 1);
    DAISY_ASSIGN_OR_RETURN(const daisy::Table* t,
                           static_cast<const daisy::Database&>(le->db_)
                               .GetTable(table));
    DAISY_RETURN_IF_ERROR(
        rules.AddFromText(spec.substr(0, at), table, t->schema()));
  }
  daisy::DaisyOptions options;
  daisy::ApplyEnvOverrides(&options);  // as daisyd does
  le->engine_ = std::make_unique<daisy::DaisyEngine>(&le->db_,
                                                     std::move(rules), options);
  DAISY_RETURN_IF_ERROR(le->engine_->Prepare());
  DAISY_RETURN_IF_ERROR(le->engine_->EnablePersistence(data_dir));
  return le;
}

LocalEngine::~LocalEngine() {
  engine_.reset();
  std::error_code ec;
  std::filesystem::remove_all(data_dir_, ec);
}

Result<std::unique_ptr<Conn>> LocalEngine::Connect() {
  return std::unique_ptr<Conn>(new LocalConn(this));
}

Result<std::string> LocalEngine::Scrape() {
  return daisy::MetricsRegistry::Global().RenderPrometheus();
}

void LocalEngine::Merge(std::vector<Span> spans,
                        const std::map<uint32_t, int>& paths,
                        uint64_t operator_rows, uint64_t result_rows,
                        size_t unparsed) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  const int base = static_cast<int>(trace_.spans.size());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent += base;
    trace_.spans.push_back(std::move(s));
  }
  trace_.query_path.insert(paths.begin(), paths.end());
  trace_.operator_rows += operator_rows;
  trace_.result_rows += result_rows;
  trace_.unparsed_traces += unparsed;
}

}  // namespace perfbench
