// In-process tests for the daisyd service layer: DaisyServer + DaisyClient
// over a unix socket. Covers the handshake, result streaming, per-query
// limits (timeout / row limit / cancel-on-disconnect), durable acked
// writes through the group-commit WAL, statement-level error recovery,
// the bounded-accept-queue admission gate, and version negotiation.
//
// The multi-process variant (real daisyd binary, SIGKILL, warm recovery)
// lives in server_smoke_test.cpp.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "persist_test_util.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace daisy {
namespace {

using server::DaisyClient;
using server::DaisyServer;
using server::kRowsPerBatch;
using server::ServerOptions;
using testutil::TempDir;

/// cities (FD zip -> city, dirty) + plain (rule-free append target).
void BuildCatalog(Database* db, ConstraintSet* rules) {
  Table cities("cities", Schema({{"zip", ValueType::kInt},
                                 {"city", ValueType::kString}}));
  struct {
    int zip;
    const char* city;
  } rows[] = {{9001, "Los Angeles"},
              {9001, "San Francisco"},
              {9001, "Los Angeles"},
              {10001, "San Francisco"},
              {10001, "New York"}};
  for (const auto& r : rows) {
    ASSERT_TRUE(cities.AppendRow({Value(r.zip), Value(r.city)}).ok());
  }
  Table plain("plain", Schema({{"k", ValueType::kInt}}));
  const Schema& schema = cities.schema();
  ASSERT_TRUE(rules->AddFromText("phi: FD zip -> city", "cities", schema).ok());
  ASSERT_TRUE(db->AddTable(std::move(cities)).ok());
  ASSERT_TRUE(db->AddTable(std::move(plain)).ok());
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ConstraintSet rules;
    BuildCatalog(&db_, &rules);
    if (HasFatalFailure()) return;
    engine_ = std::make_unique<DaisyEngine>(&db_, std::move(rules),
                                            DaisyOptions{});
    ASSERT_TRUE(engine_->Prepare().ok());
  }

  void StartServer(ServerOptions options = {}) {
    options.unix_path = tmp_.Sub("daisy.sock");
    server_ = std::make_unique<DaisyServer>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Result<std::unique_ptr<DaisyClient>> Connect() {
    return DaisyClient::ConnectUnix(tmp_.Sub("daisy.sock"));
  }

  TempDir tmp_;
  Database db_;
  std::unique_ptr<DaisyEngine> engine_;
  std::unique_ptr<DaisyServer> server_;
};

TEST_F(ServerTest, HandshakeAndSchema) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_GT(client.value()->session_id(), 0u);
  EXPECT_EQ(client.value()->banner(), "daisyd");

  auto schema = client.value()->Schema();
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema.value().tables.size(), 2u);
  EXPECT_EQ(schema.value().tables[0].name, "cities");
  EXPECT_EQ(schema.value().tables[0].num_rows, 5u);
  ASSERT_EQ(schema.value().tables[0].columns.size(), 2u);
  EXPECT_EQ(schema.value().tables[0].columns[0], "zip");
  EXPECT_EQ(schema.value().tables[0].types[0],
            static_cast<uint8_t>(ValueType::kInt));
  EXPECT_EQ(schema.value().tables[1].name, "plain");
}

/// One statement of a wire differential, with its per-query limits.
struct WireCase {
  std::string sql;
  int64_t timeout_ms = -1;
  uint64_t row_limit = 0;
};

/// Runs `c` embedded on `reference` and through `client`, and holds the
/// streamed reply to the in-process one: the header names and types, every
/// row in order as MostProbable() of the result cells, and every QueryDone
/// field. Both engines must have run the same statements before. Returns
/// the reference output.
QueryOutput ExpectWireMatchesEmbedded(DaisyEngine* reference,
                                      DaisyClient* client, const WireCase& c) {
  SCOPED_TRACE(c.sql + " timeout_ms=" + std::to_string(c.timeout_ms) +
               " row_limit=" + std::to_string(c.row_limit));
  QueryLimits limits;
  limits.timeout_ms = c.timeout_ms;
  limits.row_limit = c.row_limit;
  Result<QueryReport> expected = reference->Query(c.sql, limits);
  EXPECT_TRUE(expected.ok()) << expected.status();
  auto got = client->Query(c.sql, c.timeout_ms, c.row_limit);
  EXPECT_TRUE(got.ok()) << got.status();
  if (!expected.ok() || !got.ok()) return QueryOutput{};
  const QueryReport& want = expected.value();
  const Table& table = want.output.result;
  const DaisyClient::QueryResult& result = got.value();

  EXPECT_EQ(result.header.names.size(), table.num_columns());
  EXPECT_EQ(result.header.types.size(), table.num_columns());
  for (size_t c = 0; c < table.num_columns() &&
                     c < result.header.names.size() &&
                     c < result.header.types.size();
       ++c) {
    EXPECT_EQ(result.header.names[c], table.schema().column(c).name);
    EXPECT_EQ(result.header.types[c],
              static_cast<uint8_t>(table.schema().column(c).type));
  }
  EXPECT_EQ(result.rows.size(), table.num_rows());
  for (size_t r = 0; r < table.num_rows() && r < result.rows.size(); ++r) {
    EXPECT_EQ(result.rows[r].size(), table.num_columns()) << "row " << r;
    for (size_t col = 0;
         col < table.num_columns() && col < result.rows[r].size(); ++col) {
      const Value& v = table.cell(r, col).MostProbable();
      EXPECT_TRUE(result.rows[r][col] == v)
          << "row " << r << " col " << col << ": wire "
          << result.rows[r][col].ToString() << ", embedded " << v.ToString();
    }
  }
  EXPECT_EQ(result.done.total_rows, table.num_rows());
  EXPECT_EQ(result.done.epoch, want.epoch);
  EXPECT_EQ(result.done.termination, static_cast<uint8_t>(want.termination));
  EXPECT_EQ(result.done.read_path, want.read_path);
  EXPECT_EQ(result.done.cut_node, want.cut_node);
  EXPECT_EQ(result.done.errors_fixed, want.errors_fixed);
  EXPECT_EQ(result.done.rules_applied, want.rules_applied);
  EXPECT_EQ(result.done.tuples_scanned, want.tuples_scanned);
  return want.output;
}

TEST(WireFormatTest, RowBatchPayloadLayoutIsPinned) {
  // The streamed result path encodes rows one value at a time; its
  // payload must keep the message's layout byte for byte: type byte, u64
  // row count, then per row a u64 cell count and the values.
  const std::vector<std::vector<Value>> rows = {
      {Value(int64_t{7}), Value("x"), Value(2.5)},
      {Value::Null(), Value(""), Value(-0.0)}};
  BinaryWriter want;
  want.WriteU8(static_cast<uint8_t>(server::MessageType::kRowBatch));
  want.WriteU64(rows.size());
  for (const std::vector<Value>& row : rows) {
    want.WriteU64(row.size());
    for (const Value& v : row) want.WriteValue(v);
  }
  server::RowBatchMsg msg;
  msg.rows = rows;
  EXPECT_EQ(msg.Encode(), want.buffer());

  server::RowBatchWriter writer;
  for (int round = 0; round < 2; ++round) {  // Finish starts afresh
    for (const std::vector<Value>& row : rows) {
      writer.BeginRow(row.size());
      for (const Value& v : row) writer.AddValue(v);
    }
    EXPECT_EQ(writer.rows(), rows.size());
    EXPECT_EQ(writer.Finish(), want.buffer());
    EXPECT_EQ(writer.rows(), 0u);
  }
}

TEST_F(ServerTest, QueryStreamsCleanedRowsMatchingEmbeddedEngine) {
  // Reference: the same catalog executed embedded.
  Database ref_db;
  ConstraintSet ref_rules;
  BuildCatalog(&ref_db, &ref_rules);
  DaisyEngine reference(&ref_db, std::move(ref_rules), DaisyOptions{});
  ASSERT_TRUE(reference.Prepare().ok());

  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const QueryOutput want = ExpectWireMatchesEmbedded(
      &reference, client.value().get(),
      {"SELECT zip, city FROM cities WHERE city = 'Los Angeles'"});
  EXPECT_GT(want.result.num_rows(), 0u);
  EXPECT_GT(want.result.CountProbabilisticCells(), 0u);
}

/// emp(id, dept, city, salary) with FD dept -> city broken in about a fifth
/// of its rows, and offices(city, floor) keyed by the FD's right-hand side,
/// so a join on city probes the candidate sets the repairs leave.
void BuildDirtyCatalog(uint64_t seed, Database* db, ConstraintSet* rules) {
  const char* const kCities[] = {"Athens", "Berlin", "Cairo",
                                 "Denver", "Essen", "Fez"};
  Rng rng(seed);
  Table emp("emp", Schema({{"id", ValueType::kInt},
                           {"dept", ValueType::kInt},
                           {"city", ValueType::kString},
                           {"salary", ValueType::kDouble}}));
  for (int64_t i = 0; i < 60; ++i) {
    const int64_t dept = i % 12;
    const char* city = rng.Bernoulli(0.2) ? kCities[rng.UniformInt(0, 5)]
                                          : kCities[dept % 6];
    ASSERT_TRUE(emp.AppendRow({Value(i), Value(dept), Value(city),
                               Value(rng.UniformDouble(1000.0, 2000.0))})
                    .ok());
  }
  Table offices("offices", Schema({{"city", ValueType::kString},
                                   {"floor", ValueType::kInt}}));
  for (int64_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(offices.AppendRow({Value(kCities[c]), Value(c)}).ok());
  }
  ASSERT_TRUE(
      rules->AddFromText("fd: FD dept -> city", "emp", emp.schema()).ok());
  ASSERT_TRUE(db->AddTable(std::move(emp)).ok());
  ASSERT_TRUE(db->AddTable(std::move(offices)).ok());
}

TEST(ServerWireDifferentialTest, RowsAndDoneMatchEmbeddedQueryOnDirtyData) {
  // Every result shape a client can receive, on seeded dirty data, against
  // an embedded engine that runs the same statements in the same order.
  const std::vector<WireCase> cases = {
      // Relaxed projection: repaired cells carry candidates.
      {"SELECT id, dept, city FROM emp WHERE dept < 6"},
      // Join on the repaired (probabilistic) key.
      {"SELECT emp.id, emp.city, offices.floor FROM emp, offices "
       "WHERE emp.city = offices.city AND emp.dept < 9"},
      // Self-join: a cartesian step over one table, many batches.
      {"SELECT emp.id, emp.city FROM emp, emp"},
      // Grouped aggregate over most-probable values.
      {"SELECT city, COUNT(*), AVG(salary) FROM emp GROUP BY city"},
      // Row limits on a projection and on an aggregate.
      {"SELECT id, city FROM emp", -1, 7},
      {"SELECT dept, SUM(salary) FROM emp GROUP BY dept", -1, 3},
      // Cut at the first boundary: a 0-column header and no rows.
      {"SELECT id, city FROM emp WHERE dept > 8", 0, 0},
      // Empty result.
      {"SELECT id, city FROM emp WHERE dept > 100"},
  };
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database ref_db, srv_db;
    ConstraintSet ref_rules, srv_rules;
    BuildDirtyCatalog(seed, &ref_db, &ref_rules);
    BuildDirtyCatalog(seed, &srv_db, &srv_rules);
    ASSERT_FALSE(HasFatalFailure());
    DaisyEngine reference(&ref_db, std::move(ref_rules), DaisyOptions{});
    DaisyEngine served(&srv_db, std::move(srv_rules), DaisyOptions{});
    ASSERT_TRUE(reference.Prepare().ok());
    ASSERT_TRUE(served.Prepare().ok());
    TempDir tmp;
    ServerOptions options;
    options.unix_path = tmp.Sub("daisy.sock");
    DaisyServer server(&served, options);
    ASSERT_TRUE(server.Start().ok());
    auto client = DaisyClient::ConnectUnix(options.unix_path);
    ASSERT_TRUE(client.ok()) << client.status();

    std::vector<QueryOutput> outs;
    for (const WireCase& c : cases) {
      outs.push_back(ExpectWireMatchesEmbedded(&reference,
                                               client.value().get(), c));
    }
    // The shapes are real: candidates reach the output and the join,
    // batches split, limits and the cut took effect, the last is empty.
    EXPECT_GT(outs[0].result.CountProbabilisticCells(), 0u);
    EXPECT_GT(outs[1].result.CountProbabilisticCells(), 0u);
    EXPECT_GT(outs[2].result.num_rows(), kRowsPerBatch);
    EXPECT_GT(outs[3].result.num_rows(), 1u);
    EXPECT_EQ(outs[4].result.num_rows(), 7u);
    EXPECT_EQ(outs[5].result.num_rows(), 3u);
    EXPECT_EQ(outs[6].result.num_columns(), 0u);
    EXPECT_EQ(outs[7].result.num_rows(), 0u);
    EXPECT_EQ(outs[7].result.num_columns(), 2u);
    server.Stop();
  }
}

TEST_F(ServerTest, RowLimitTruncatesStream) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto result = client.value()->Query("SELECT zip, city FROM cities",
                                      /*timeout_ms=*/-1, /*row_limit=*/2);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().done.termination,
            static_cast<uint8_t>(QueryTermination::kRowLimit));
}

TEST_F(ServerTest, ZeroTimeoutCutsAtFirstBoundary) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto result = client.value()->Query("SELECT zip, city FROM cities",
                                      /*timeout_ms=*/0);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().done.termination,
            static_cast<uint8_t>(QueryTermination::kTimeout));
  EXPECT_FALSE(result.value().done.cut_node.empty());
}

TEST_F(ServerTest, RequestLatencyNestsInsideClientTime) {
  // The server starts a request's clock after reading its frame and stops
  // it just before writing the last reply frame, so every observed
  // interval lies inside the client's round trip and the sums compare
  // directly. Teardown after the reply (the result, the sink) is outside.
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const std::string name = "daisy_server_request_latency_us{type=\"Query\"}";
  auto observed = [&name] {
    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::Global().TakeSnapshot();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? MetricsRegistry::HistogramSnapshot{}
                                       : it->second;
  };
  const MetricsRegistry::HistogramSnapshot before = observed();
  constexpr uint64_t kQueries = 24;
  double client_us = 0;
  for (uint64_t i = 0; i < kQueries; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto result = client.value()->Query("SELECT zip, city FROM cities");
    client_us += std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  const MetricsRegistry::HistogramSnapshot after = observed();
  EXPECT_EQ(after.count - before.count, kQueries);
  EXPECT_LE(static_cast<double>(after.sum - before.sum), client_us);
}

TEST_F(ServerTest, AckedAppendIsWalDurableAndVisible) {
  ASSERT_TRUE(engine_->EnablePersistence(tmp_.Sub("data")).ok());
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();

  const testutil::WalCounts before = testutil::WalCounts::Now();
  auto n = client.value()->Append("plain", {{Value(7)}, {Value(8)}});
  ASSERT_TRUE(n.ok()) << n.status();
  EXPECT_EQ(n.value(), 2u);

  // The ack implies the WAL record is fsync'd (group commit acks after
  // durability) — the WAL counters must show it.
  const testutil::WalCounts delta = testutil::WalCounts::Now() - before;
  EXPECT_EQ(delta.records, 1u);
  EXPECT_EQ(delta.fsyncs, 1u);

  auto rows = client.value()->Query("SELECT k FROM plain");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.value().rows.size(), 2u);
}

TEST_F(ServerTest, ConcurrentClientsShareGroupCommitBatches) {
  ASSERT_TRUE(engine_->EnablePersistence(tmp_.Sub("data")).ok());
  ServerOptions options;
  options.worker_threads = 8;
  StartServer(options);

  const testutil::WalCounts before = testutil::WalCounts::Now();
  constexpr int kClients = 6;
  constexpr int kAppendsPerClient = 20;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t, &failures] {
      auto client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kAppendsPerClient; ++i) {
        auto n = client.value()->Append(
            "plain", {{Value(static_cast<int64_t>(t * 1000 + i))}});
        if (!n.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const testutil::WalCounts delta = testutil::WalCounts::Now() - before;
  EXPECT_EQ(delta.records, static_cast<uint64_t>(kClients * kAppendsPerClient));
  EXPECT_LE(delta.fsyncs, delta.records);

  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto rows = client.value()->Query("SELECT k FROM plain");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.value().rows.size(),
            static_cast<size_t>(kClients * kAppendsPerClient));
}

TEST_F(ServerTest, StatementErrorKeepsSessionUsable) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();

  auto bad = client.value()->Query("SELEKT nonsense");
  EXPECT_FALSE(bad.ok());

  auto bad_table = client.value()->Append("no_such_table", {{Value(1)}});
  EXPECT_FALSE(bad_table.ok());

  // Same connection still serves statements.
  auto good = client.value()->Query("SELECT k FROM plain");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good.value().rows.size(), 0u);
}

TEST_F(ServerTest, FullAcceptQueueBouncesWithResourceExhausted) {
  ServerOptions options;
  options.worker_threads = 1;
  options.accept_backlog = 1;
  StartServer(options);

  // Occupies the only worker; its session stays open.
  auto held = Connect();
  ASSERT_TRUE(held.ok()) << held.status();

  // Fills the single accept-queue slot: connect() succeeds but no worker
  // picks the connection up, so its handshake read blocks server-side.
  // Raw connect (no handshake) keeps this test deterministic.
  auto queued_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(queued_fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, tmp_.Sub("daisy.sock").c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(queued_fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // Give the accept thread time to enqueue the raw connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The next connection must be bounced with a clean retryable error.
  auto bounced = Connect();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted)
      << bounced.status();

  ::close(queued_fd);
}

TEST_F(ServerTest, AbandonedConnectionEndsSession) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  const uint64_t before = server_->sessions_served();
  client.value()->Abandon();
  // The watchdog (20ms poll) flags the hangup and the session ends.
  for (int i = 0; i < 200 && server_->sessions_served() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server_->sessions_served(), before);
}

TEST_F(ServerTest, VersionMismatchRejected) {
  StartServer();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, tmp_.Sub("daisy.sock").c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  server::HelloMsg hello;
  hello.version = 99;
  ASSERT_TRUE(server::WriteFrame(fd, hello.Encode()).ok());
  auto reply = server::ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto err = server::ErrorMsg::Decode(reply.value());
  ASSERT_TRUE(err.ok()) << err.status();
  EXPECT_EQ(err.value().ToStatus().code(), StatusCode::kInvalidArgument);
  ::close(fd);
}

TEST_F(ServerTest, RemoteExplainAnalyzeRendersTree) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto text = client.value()->ExplainAnalyze(
      "SELECT zip, city FROM cities WHERE city = 'Los Angeles'");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text.value().find("Scan"), std::string::npos);
}

TEST_F(ServerTest, StopCutsInFlightSessions) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  server_->Stop();
  // The socket was shut down server-side: the next statement fails with
  // an I/O error instead of hanging.
  auto result = client.value()->Query("SELECT k FROM plain");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace daisy
