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
#include "persist_test_util.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"

namespace daisy {
namespace {

using server::DaisyClient;
using server::DaisyServer;
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

TEST_F(ServerTest, QueryStreamsCleanedRowsMatchingEmbeddedEngine) {
  // Reference: the same catalog executed embedded.
  Database ref_db;
  ConstraintSet ref_rules;
  BuildCatalog(&ref_db, &ref_rules);
  DaisyEngine reference(&ref_db, std::move(ref_rules), DaisyOptions{});
  ASSERT_TRUE(reference.Prepare().ok());
  const std::string sql =
      "SELECT zip, city FROM cities WHERE city = 'Los Angeles'";
  auto expected = reference.Query(sql);
  ASSERT_TRUE(expected.ok());

  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status();
  auto result = client.value()->Query(sql);
  ASSERT_TRUE(result.ok()) << result.status();

  const Table& want = expected.value().output.result;
  ASSERT_EQ(result.value().rows.size(), want.num_rows());
  ASSERT_EQ(result.value().header.names.size(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    EXPECT_EQ(result.value().header.names[c], want.schema().column(c).name);
  }
  for (size_t r = 0; r < want.num_rows(); ++r) {
    for (size_t c = 0; c < want.num_columns(); ++c) {
      EXPECT_EQ(result.value().rows[r][c].ToString(),
                want.cell(r, c).MostProbable().ToString())
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(result.value().done.epoch, expected.value().epoch);
  EXPECT_GT(result.value().done.errors_fixed, 0u);
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
