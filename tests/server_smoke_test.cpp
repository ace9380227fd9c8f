// Multi-process smoke test for the daisyd service: spawns the real daisyd
// binary (path baked in via DAISY_DAISYD_PATH), drives it with concurrent
// ingest + cleaning-query clients over the wire, and asserts the service
// contract across restarts:
//
//   * graceful restart (SIGTERM): every acked operation and the full
//     cleaning investment survive — the same query serves identical
//     answers before and after warm recovery;
//   * crash mid-write (SIGKILL): zero acked-but-lost operations. The
//     recovered table holds a superset of the acked keys (an op whose
//     WAL record landed but whose ack never reached the client may
//     legitimately reappear) and no duplicates.
//   * observability: a live `.metrics` scrape returns a Prometheus text
//     page spanning the engine, persist, and server metric families, and
//     `daisyd --metrics-dump PATH` writes the final page on SIGTERM.
//
// Runs under the `server` CTest label.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "persist_test_util.h"
#include "server/client.h"

#ifndef DAISY_DAISYD_PATH
#define DAISY_DAISYD_PATH "daisyd"
#endif
#ifndef DAISY_CLI_PATH
#define DAISY_CLI_PATH "daisy-cli"
#endif

namespace daisy {
namespace {

using server::DaisyClient;
using testutil::TempDir;

/// A running daisyd child with its stdout piped for readiness detection.
class DaisydProcess {
 public:
  ~DaisydProcess() { Terminate(SIGKILL); }

  /// fork/exec daisyd with `args` (binary path and argv[0] added here).
  void Start(const std::vector<std::string>& args) {
    int pipefd[2];
    ASSERT_EQ(::pipe(pipefd), 0);
    pid_ = ::fork();
    ASSERT_GE(pid_, 0);
    if (pid_ == 0) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(DAISY_DAISYD_PATH));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(DAISY_DAISYD_PATH, argv.data());
      ::_exit(127);
    }
    ::close(pipefd[1]);
    stdout_fd_ = pipefd[0];
    ::fcntl(stdout_fd_, F_SETFL, O_NONBLOCK);
  }

  /// Blocks until the "daisyd ready" line appears on the child's stdout.
  void AwaitReady() {
    std::string buffer;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) > 0) {
        char chunk[256];
        const ssize_t n = ::read(stdout_fd_, chunk, sizeof(chunk));
        if (n > 0) buffer.append(chunk, static_cast<size_t>(n));
        if (n == 0) break;  // child exited
      }
      if (buffer.find("daisyd ready") != std::string::npos) return;
    }
    FAIL() << "daisyd did not become ready; stdout so far: " << buffer;
  }

  /// Sends `sig` and reaps the child. Returns the wait status.
  int Terminate(int sig) {
    if (pid_ < 0) return 0;
    ::kill(pid_, sig);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    }
    return status;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// fork/execs `binary` with `args`, its stdout and stderr on one pipe, and
/// waits up to 30 s for it to exit (then SIGKILLs it). Returns the wait
/// status; `*output` receives everything the child printed.
int RunToExit(const char* binary, const std::vector<std::string>& args,
              std::string* output) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::dup2(pipefd[1], STDERR_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{pipefd[0], POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char chunk[256];
    const ssize_t n = ::read(pipefd[0], chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF: the child exited (or closed its output)
    output->append(chunk, static_cast<size_t>(n));
  }
  ::close(pipefd[0]);
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) == 0) {
    // Still running past the deadline (e.g. serving on a wrong port).
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  return status;
}

class ServerSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sock_ = tmp_.Sub("daisy.sock");
    data_dir_ = tmp_.Sub("data");
    const std::string csv = tmp_.Sub("cities.csv");
    ASSERT_TRUE(WriteCsvFile(csv, {{"9001", "Los Angeles"},
                                   {"9001", "San Francisco"},
                                   {"9001", "Los Angeles"},
                                   {"10001", "San Francisco"},
                                   {"10001", "New York"}})
                    .ok());
    bootstrap_args_ = {"--listen", "unix:" + sock_,
                       "--data-dir", data_dir_,
                       "--table", "cities:zip:int,city:string",
                       "--csv", "cities=" + csv,
                       "--table", "plain:k:int",
                       "--rule", "phi: FD zip -> city@cities"};
    // A restart recovers everything from the data dir; bootstrap flags
    // would be ignored (and the bootstrap path would refuse a non-empty
    // persistence dir), so the recovery invocation omits them.
    recovery_args_ = {"--listen", "unix:" + sock_, "--data-dir", data_dir_};
  }

  Result<std::unique_ptr<DaisyClient>> Connect() {
    // The socket file exists before "daisyd ready", but retry anyway to
    // absorb scheduler hiccups on loaded CI machines — generously, since
    // sanitizer-instrumented runs slow daisyd by an order of magnitude.
    Result<std::unique_ptr<DaisyClient>> client =
        Status::Internal("never connected");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      client = DaisyClient::ConnectUnix(sock_);
      if (client.ok()) return client;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return client;
  }

  /// Sorted textual rows of the paper's cleaning query.
  std::vector<std::string> CleaningAnswer(DaisyClient* client) {
    auto result = client->Query(
        "SELECT zip, city FROM cities WHERE city = 'Los Angeles'");
    EXPECT_TRUE(result.ok()) << result.status();
    std::vector<std::string> rows;
    if (!result.ok()) return rows;
    for (const std::vector<Value>& row : result.value().rows) {
      std::string flat;
      for (const Value& v : row) flat += v.ToString() + "|";
      rows.push_back(flat);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  /// All k values currently in `plain`.
  std::multiset<int64_t> PlainKeys(DaisyClient* client) {
    auto result = client->Query("SELECT k FROM plain");
    EXPECT_TRUE(result.ok()) << result.status();
    std::multiset<int64_t> keys;
    if (!result.ok()) return keys;
    for (const std::vector<Value>& row : result.value().rows) {
      keys.insert(row[0].as_int());
    }
    return keys;
  }

  TempDir tmp_;
  std::string sock_;
  std::string data_dir_;
  std::vector<std::string> bootstrap_args_;
  std::vector<std::string> recovery_args_;
};

TEST_F(ServerSmokeTest, ConcurrentWorkloadSurvivesGracefulRestart) {
  DaisydProcess daisyd;
  daisyd.Start(bootstrap_args_);
  if (HasFatalFailure()) return;
  daisyd.AwaitReady();
  if (HasFatalFailure()) return;

  // Concurrent ingest clients + cleaning-query clients.
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kOpsPerClient = 15;
  std::atomic<int> failures{0};
  std::mutex acked_mu;
  std::vector<int64_t> acked;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        const int64_t key = w * 1000 + i;
        auto n = client.value()->Append("plain", {{Value(key)}});
        if (n.ok()) {
          std::lock_guard<std::mutex> lk(acked_mu);
          acked.push_back(key);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        auto result = client.value()->Query(
            "SELECT zip, city FROM cities WHERE city = 'Los Angeles'");
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(acked.size(), static_cast<size_t>(kWriters * kOpsPerClient));

  std::vector<std::string> answer_before;
  {
    auto client = Connect();
    ASSERT_TRUE(client.ok()) << client.status();
    answer_before = CleaningAnswer(client.value().get());
  }

  // Graceful shutdown: SIGTERM, clean exit.
  const int status = daisyd.Terminate(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status)) << "daisyd did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Warm recovery must serve identical answers and all acked keys.
  DaisydProcess recovered;
  recovered.Start(recovery_args_);
  if (HasFatalFailure()) return;
  recovered.AwaitReady();
  if (HasFatalFailure()) return;

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ(CleaningAnswer(client.value().get()), answer_before);
  const std::multiset<int64_t> keys = PlainKeys(client.value().get());
  EXPECT_EQ(keys.size(), acked.size());
  for (int64_t key : acked) {
    EXPECT_EQ(keys.count(key), 1u) << "acked key " << key << " lost";
  }
  const int status2 = recovered.Terminate(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status2));
}

TEST_F(ServerSmokeTest, KillMidWriteLosesNoAckedOps) {
  DaisydProcess daisyd;
  daisyd.Start(bootstrap_args_);
  if (HasFatalFailure()) return;
  daisyd.AwaitReady();
  if (HasFatalFailure()) return;

  // Writers append until the server dies under them.
  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<int64_t> acked;
  std::vector<int64_t> attempted;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto client = Connect();
      if (!client.ok()) return;
      for (int i = 0; !stop.load() && i < 100000; ++i) {
        const int64_t key = w * 1000000 + i;
        {
          std::lock_guard<std::mutex> lk(mu);
          attempted.push_back(key);
        }
        auto n = client.value()->Append("plain", {{Value(key)}});
        if (!n.ok()) break;  // server died mid-write
        std::lock_guard<std::mutex> lk(mu);
        acked.push_back(key);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  ::kill(daisyd.pid(), SIGKILL);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  daisyd.Terminate(SIGKILL);  // reap
  ASSERT_FALSE(acked.empty()) << "no append acked before the kill";

  // Recovery: the WAL's acked prefix must be intact.
  DaisydProcess recovered;
  recovered.Start(recovery_args_);
  if (HasFatalFailure()) return;
  recovered.AwaitReady();
  if (HasFatalFailure()) return;

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const std::multiset<int64_t> keys = PlainKeys(client.value().get());

  // Zero acked-but-lost, no duplicates, nothing invented.
  for (int64_t key : acked) {
    ASSERT_EQ(keys.count(key), 1u) << "acked key " << key << " lost";
  }
  const std::set<int64_t> attempted_set(attempted.begin(), attempted.end());
  for (int64_t key : keys) {
    ASSERT_EQ(attempted_set.count(key), 1u)
        << "recovered key " << key << " was never attempted";
    ASSERT_EQ(keys.count(key), 1u) << "key " << key << " duplicated";
  }
  EXPECT_GE(keys.size(), acked.size());

  // The real CLI binary against the recovered server: one-shot query.
  const pid_t cli = ::fork();
  ASSERT_GE(cli, 0);
  if (cli == 0) {
    const std::string connect = "unix:" + sock_;
    ::execl(DAISY_CLI_PATH, DAISY_CLI_PATH, "--connect", connect.c_str(),
            "-e", "SELECT zip, city FROM cities WHERE city = 'Los Angeles'",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int cli_status = 0;
  ::waitpid(cli, &cli_status, 0);
  EXPECT_TRUE(WIFEXITED(cli_status));
  EXPECT_EQ(WEXITSTATUS(cli_status), 0) << "daisy-cli one-shot failed";

  recovered.Terminate(SIGTERM);
}

TEST_F(ServerSmokeTest, MetricsScrapeSpansLayersAndDumpsOnSigterm) {
  const std::string dump_path = tmp_.Sub("final_metrics.prom");
  std::vector<std::string> args = bootstrap_args_;
  args.push_back("--metrics-dump");
  args.push_back(dump_path);

  DaisydProcess daisyd;
  daisyd.Start(args);
  if (HasFatalFailure()) return;
  daisyd.AwaitReady();
  if (HasFatalFailure()) return;

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();

  // Touch all three layers so their instrument families exist: a query
  // (engine), an append (engine write + WAL), and the connection itself
  // (server).
  ASSERT_TRUE(
      client.value()->Query("SELECT zip, city FROM cities").ok());
  ASSERT_TRUE(client.value()->Append("plain", {{Value(42)}}).ok());

  Result<std::string> page = client.value()->Metrics();
  ASSERT_TRUE(page.ok()) << page.status();
  for (const char* family :
       {"# TYPE ", "daisy_engine_queries_total",
        "daisy_engine_rows_appended_total", "daisy_persist_wal_fsyncs_total",
        "daisy_server_connections_total",
        "daisy_server_request_latency_us_bucket"}) {
    EXPECT_NE(page.value().find(family), std::string::npos)
        << "scrape missing " << family << "; page:\n" << page.value();
  }

  // The real CLI's .metrics dot-command against the same server.
  const pid_t cli = ::fork();
  ASSERT_GE(cli, 0);
  if (cli == 0) {
    const std::string connect = "unix:" + sock_;
    ::execl(DAISY_CLI_PATH, DAISY_CLI_PATH, "--connect", connect.c_str(),
            "-e", ".metrics", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int cli_status = 0;
  ::waitpid(cli, &cli_status, 0);
  EXPECT_TRUE(WIFEXITED(cli_status));
  EXPECT_EQ(WEXITSTATUS(cli_status), 0) << "daisy-cli .metrics failed";

  // SIGTERM: clean exit writes the final page to --metrics-dump.
  const int status = daisyd.Terminate(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  Result<std::string> dumped = persist::ReadFileFully(dump_path);
  ASSERT_TRUE(dumped.ok()) << dumped.status();
  for (const char* family :
       {"daisy_engine_queries_total", "daisy_persist_wal_fsyncs_total",
        "daisy_server_connections_total"}) {
    EXPECT_NE(dumped.value().find(family), std::string::npos)
        << "dump missing " << family << "; page:\n" << dumped.value();
  }
}

// Numeric flags come from outside the process: a negative worker count or
// an out-of-range port is a usage error (exit status 2, usage text), never
// a crash, a thread storm or a silently wrong port.
TEST_F(ServerSmokeTest, MalformedNumericFlagsExitWithUsage) {
  const std::vector<std::vector<std::string>> bad_daisyd = {
      {"--listen", "unix:" + sock_, "--workers", "-1"},
      {"--listen", "unix:" + sock_, "--workers", "0"},
      {"--listen", "unix:" + sock_, "--backlog", "4x"},
      {"--listen", "tcp:127.0.0.1:70000"},
      {"--listen", "tcp:127.0.0.1:abc"},
  };
  for (const std::vector<std::string>& args : bad_daisyd) {
    std::string flags;
    for (const std::string& a : args) flags += a + " ";
    SCOPED_TRACE("daisyd " + flags);
    std::string output;
    const int status = RunToExit(DAISY_DAISYD_PATH, args, &output);
    ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal; output: " << output;
    EXPECT_EQ(WEXITSTATUS(status), 2) << output;
    EXPECT_NE(output.find("usage:"), std::string::npos) << output;
    EXPECT_EQ(output.find("daisyd ready"), std::string::npos) << output;
  }

  std::string output;
  const int status = RunToExit(
      DAISY_CLI_PATH, {"--connect", "tcp:127.0.0.1:70000", "-e", ".health"},
      &output);
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal; output: " << output;
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("usage:"), std::string::npos) << output;
}

}  // namespace
}  // namespace daisy
