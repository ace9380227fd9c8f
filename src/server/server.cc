#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "clean/daisy_engine.h"
#include "common/metrics.h"
#include "server/wire.h"
#include "storage/table.h"

namespace daisy {
namespace server {

namespace {

Status CloseOnError(int fd, Status s) {
  if (fd >= 0) ::close(fd);
  return s;
}

/// Cached instrument pointers for the server layer: one registry lookup
/// per process, relaxed atomic updates on the connection/request paths.
/// Request latency histograms are labelled by message type and resolved
/// lazily (a handful of types; the registry lookup is an uncontended
/// mutex + map probe, invisible next to a socket round trip).
struct ServerMetrics {
  static ServerMetrics& Get() {
    static ServerMetrics* const m = new ServerMetrics();
    return *m;
  }

  Counter* connections = nullptr;
  Counter* admission_rejections = nullptr;
  Gauge* inflight_sessions = nullptr;

  Histogram* RequestLatency(MessageType t) {
    return MetricsRegistry::Global().GetHistogram(
        std::string("daisy_server_request_latency_us{type=\"") +
            MessageTypeToString(t) + "\"}",
        /*first_bound=*/16, /*num_buckets=*/20,
        "Request handling latency by message type, microseconds.");
  }

 private:
  ServerMetrics() {
    MetricsRegistry& r = MetricsRegistry::Global();
    connections = r.GetCounter("daisy_server_connections_total",
                               "Connections accepted by the listeners.");
    admission_rejections =
        r.GetCounter("daisy_server_admission_rejections_total",
                     "Connections bounced by the full accept queue.");
    inflight_sessions = r.GetGauge("daisy_server_inflight_sessions",
                                   "Sessions currently being served.");
  }
};

/// Watchdog poll interval. Short enough that an abandoned query is cut
/// within a couple of plan boundary checks, long enough to stay invisible
/// in profiles.
constexpr auto kHangupPollInterval = std::chrono::milliseconds(20);

}  // namespace

DaisyServer::DaisyServer(DaisyEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

DaisyServer::~DaisyServer() { Stop(); }

Status DaisyServer::Start() {
  if (started_) return Status::Internal("server already started");
  if (options_.unix_path.empty() && options_.tcp_host.empty()) {
    return Status::InvalidArgument("no listener configured");
  }
  if (options_.worker_threads == 0) options_.worker_threads = 1;

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    // daisy-lint: allow(raw-io) stale socket file cleanup, not a data file
    ::unlink(options_.unix_path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return CloseOnError(fd, Status::IOError("bind " + options_.unix_path +
                                              ": " + std::strerror(errno)));
    }
    if (::listen(fd, 128) != 0) {
      return CloseOnError(
          fd, Status::IOError(std::string("listen: ") + std::strerror(errno)));
    }
    listen_fds_.push_back(fd);
  }

  if (!options_.tcp_host.empty()) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument("bad IPv4 listen address: " +
                                     options_.tcp_host);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IOError(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return CloseOnError(fd,
                          Status::IOError("bind " + options_.tcp_host + ":" +
                                          std::to_string(options_.tcp_port) +
                                          ": " + std::strerror(errno)));
    }
    if (::listen(fd, 128) != 0) {
      return CloseOnError(
          fd, Status::IOError(std::string("listen: ") + std::strerror(errno)));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
    listen_fds_.push_back(fd);
  }

  started_ = true;
  stopping_.store(false);
  for (int fd : listen_fds_) {
    accept_threads_.emplace_back([this, fd] { AcceptLoop(fd); });
  }
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void DaisyServer::Stop() {
  if (!started_) return;
  stopping_.store(true);

  // Unblock accept threads.
  for (int fd : listen_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  // Unblock serve loops stuck in ReadFrame and flip their watchdogs:
  // shutdown makes the pending read return 0, and an executing query sees
  // Session::disconnected at its next boundary check.
  {
    MutexLock lk(&conns_mu_);
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.NotifyAll();

  for (std::thread& t : accept_threads_) t.join();
  for (std::thread& t : workers_) t.join();
  accept_threads_.clear();
  workers_.clear();

  // Connections accepted but never served. Every producer/consumer thread
  // is joined, but lock anyway: the annotation contract on pending_fds_
  // has no "single-threaded again" escape, and an uncontended lock is free.
  {
    MutexLock lk(&queue_mu_);
    for (int fd : pending_fds_) ::close(fd);
    pending_fds_.clear();
  }

  // daisy-lint: allow(raw-io) removes the listener socket file, not data
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  listen_fds_.clear();
  started_ = false;
}

void DaisyServer::AcceptLoop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    ServerMetrics::Get().connections->Increment();
    bool admitted = false;
    {
      MutexLock lk(&queue_mu_);
      if (pending_fds_.size() < options_.accept_backlog) {
        pending_fds_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.NotifyOne();
    } else {
      // The outer admission gate: a full queue answers with one clean,
      // retryable error frame instead of letting connections pile up.
      ServerMetrics::Get().admission_rejections->Increment();
      SendError(fd, Status::ResourceExhausted(
                        "daisyd accept queue full, retry later"));
      ::close(fd);
    }
  }
}

void DaisyServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lk(&queue_mu_);
      // Explicit predicate loop: a lambda predicate would be analyzed
      // without the caller's lockset and flag the pending_fds_ read.
      while (!stopping_.load() && pending_fds_.empty()) {
        queue_cv_.Wait(&queue_mu_);
      }
      if (stopping_.load()) return;
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    ServeConnection(fd);
  }
}

void DaisyServer::ServeConnection(int fd) {
  {
    MutexLock lk(&conns_mu_);
    active_fds_.insert(fd);
  }
  ServerMetrics::Get().inflight_sessions->Increment();
  Session session;
  session.id = next_session_id_.fetch_add(1);
  session.fd = fd;

  // Hangup watchdog: MSG_PEEK never consumes, so it can share the socket
  // with the serve loop. recv() == 0 means the peer closed.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog([fd, &session, &watchdog_stop] {
    while (!watchdog_stop.load()) {
      char b;
      const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0) {
        session.disconnected.store(true);
        return;
      }
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != EINTR) {
        session.disconnected.store(true);
        return;
      }
      std::this_thread::sleep_for(kHangupPollInterval);
    }
  });

  bool handshaken = false;
  Result<std::string> first = ReadFrame(fd);
  if (first.ok()) {
    Result<HelloMsg> hello = HelloMsg::Decode(first.value());
    if (!hello.ok()) {
      SendError(fd, hello.status());
    } else if (hello.value().version != kProtocolVersion) {
      SendError(fd, Status::InvalidArgument(
                        "protocol version mismatch: client " +
                        std::to_string(hello.value().version) + ", server " +
                        std::to_string(kProtocolVersion)));
    } else {
      HelloAckMsg ack;
      ack.session_id = session.id;
      ack.banner = "daisyd";
      handshaken = WriteFrame(fd, ack.Encode()).ok();
    }
  }

  while (handshaken && !stopping_.load() && !session.disconnected.load()) {
    Result<std::string> frame = ReadFrame(fd);
    if (!frame.ok()) break;  // NotFound = clean hangup; IOError = poisoned
    if (!DispatchRequest(&session, frame.value())) break;
  }

  watchdog_stop.store(true);
  watchdog.join();
  {
    MutexLock lk(&conns_mu_);
    active_fds_.erase(fd);
  }
  ::close(fd);
  ServerMetrics::Get().inflight_sessions->Decrement();
  sessions_served_.fetch_add(1);
}

bool DaisyServer::DispatchRequest(Session* session,
                                  const std::string& payload) {
  Result<MessageType> type = PeekType(payload);
  if (!type.ok()) {
    SendError(session->fd, type.status());
    return false;
  }
  session->request_latency = ServerMetrics::Get().RequestLatency(type.value());
  session->request_timer.Restart();
  bool keep = false;
  switch (type.value()) {
    case MessageType::kQuery:
      keep = HandleQuery(session, payload);
      break;
    case MessageType::kAppend:
      keep = HandleAppend(session, payload);
      break;
    case MessageType::kDelete:
      keep = HandleDelete(session, payload);
      break;
    case MessageType::kCleanAll:
      keep = HandleSimple(session, +[](DaisyEngine* e) {
        return e->CleanAllRemaining();
      });
      break;
    case MessageType::kCheckpoint:
      keep = HandleSimple(session, +[](DaisyEngine* e) {
        return e->Checkpoint();
      });
      break;
    case MessageType::kHealth:
      keep = HandleHealth(session);
      break;
    case MessageType::kSchema:
      keep = HandleSchema(session);
      break;
    case MessageType::kMetrics:
      keep = HandleMetrics(session);
      break;
    case MessageType::kBye:
      keep = false;
      break;
    default:
      // A reply type (or garbage) from a client poisons the stream.
      SendError(session->fd,
                Status::InvalidArgument(
                    std::string("unexpected client frame type: ") +
                    MessageTypeToString(type.value())));
      return false;
  }
  // Handlers stop the clock at their last reply frame; this catches Bye
  // and replies cut short by a dead socket.
  StopRequestClock(session);
  return keep;
}

namespace {

// daisyd's result sink. It encodes each row's most-probable values into
// RowBatch payloads of kRowsPerBatch rows as the engine emits them, under
// the engine lock, so no result Table, lineage or per-row Value vector is
// built; HandleQuery sends the frames after the engine call returns, so a
// slow client never holds writers off.
class WireSink : public ResultSink {
 public:
  void Begin(const std::vector<Column>& columns, size_t rows) override {
    for (const Column& col : columns) {
      header_.names.push_back(col.name);
      header_.types.push_back(static_cast<uint8_t>(col.type));
    }
    batches_.reserve((rows + kRowsPerBatch - 1) / kRowsPerBatch);
  }

  void AddCells(const Cell* const* cells) override {
    const size_t n = header_.names.size();
    batch_.BeginRow(n);
    for (size_t c = 0; c < n; ++c) batch_.AddValue(cells[c]->MostProbable());
    EndRow();
  }

  void AddValues(const Value* values) override {
    const size_t n = header_.names.size();
    batch_.BeginRow(n);
    for (size_t c = 0; c < n; ++c) batch_.AddValue(values[c]);
    EndRow();
  }

  void Finish(JoinedRows /*lineage*/) override {
    if (batch_.rows() > 0) batches_.push_back(batch_.Finish());
  }

  /// Without a Begin call (a cut query) the header has no columns.
  const RowHeaderMsg& header() const { return header_; }
  const std::vector<std::string>& batches() const { return batches_; }
  uint64_t total_rows() const { return total_rows_; }

 private:
  void EndRow() {
    ++total_rows_;
    if (batch_.rows() == kRowsPerBatch) batches_.push_back(batch_.Finish());
  }

  RowHeaderMsg header_;
  RowBatchWriter batch_;
  std::vector<std::string> batches_;  ///< encoded RowBatch payloads
  uint64_t total_rows_ = 0;
};

}  // namespace

bool DaisyServer::HandleQuery(Session* session, const std::string& payload) {
  Result<QueryMsg> msg = QueryMsg::Decode(payload);
  if (!msg.ok()) {
    ReplyError(session, msg.status());
    return false;  // undecodable frame: poisoned stream
  }
  ++session->queries;

  QueryLimits limits;
  limits.timeout_ms = msg.value().timeout_ms;
  limits.row_limit = msg.value().row_limit;
  limits.cancel = &session->disconnected;

  if (msg.value().mode == QueryMode::kExplainAnalyze) {
    Result<std::string> text =
        engine_->ExplainAnalyze(msg.value().sql, limits);
    if (!text.ok()) return ReplyError(session, text.status());
    ExplainTextMsg reply;
    reply.text = std::move(text).value();
    return Reply(session, reply.Encode());
  }

  WireSink sink;
  Result<QueryReport> report = engine_->Query(msg.value().sql, limits, &sink);
  if (!report.ok()) return ReplyError(session, report.status());

  if (!WriteFrame(session->fd, sink.header().Encode()).ok()) return false;
  for (const std::string& batch : sink.batches()) {
    if (!WriteFrame(session->fd, batch).ok()) return false;
  }
  QueryDoneMsg done;
  done.total_rows = sink.total_rows();
  done.epoch = report.value().epoch;
  done.termination = static_cast<uint8_t>(report.value().termination);
  done.read_path = report.value().read_path;
  done.cut_node = report.value().cut_node;
  done.errors_fixed = report.value().errors_fixed;
  done.rules_applied = report.value().rules_applied;
  done.tuples_scanned = report.value().tuples_scanned;
  return Reply(session, done.Encode());
}

bool DaisyServer::HandleAppend(Session* session, const std::string& payload) {
  Result<AppendMsg> msg = AppendMsg::Decode(payload);
  if (!msg.ok()) {
    ReplyError(session, msg.status());
    return false;
  }
  ++session->writes;
  const size_t nrows = msg.value().rows.size();
  Result<TableDelta> delta =
      engine_->AppendRows(msg.value().table, std::move(msg.value().rows));
  if (!delta.ok()) return ReplyError(session, delta.status());
  AckMsg ack;
  ack.rows_affected = nrows;
  return Reply(session, ack.Encode());
}

bool DaisyServer::HandleDelete(Session* session, const std::string& payload) {
  Result<DeleteMsg> msg = DeleteMsg::Decode(payload);
  if (!msg.ok()) {
    ReplyError(session, msg.status());
    return false;
  }
  ++session->writes;
  std::vector<RowId> ids(msg.value().row_ids.begin(),
                         msg.value().row_ids.end());
  Result<TableDelta> delta = engine_->DeleteRows(msg.value().table, ids);
  if (!delta.ok()) return ReplyError(session, delta.status());
  AckMsg ack;
  ack.rows_affected = delta.value().deleted.size();
  return Reply(session, ack.Encode());
}

bool DaisyServer::HandleSimple(Session* session, Status (*op)(DaisyEngine*)) {
  ++session->writes;
  const Status s = op(engine_);
  if (!s.ok()) return ReplyError(session, s);
  AckMsg ack;
  return Reply(session, ack.Encode());
}

bool DaisyServer::HandleHealth(Session* session) {
  const EngineHealthInfo info = engine_->Health();
  HealthInfoMsg reply;
  reply.state = static_cast<uint8_t>(info.state);
  reply.cause = info.cause.ok() ? "" : info.cause.ToString();
  reply.recover_attempts = info.recover_attempts;
  return Reply(session, reply.Encode());
}

bool DaisyServer::HandleMetrics(Session* session) {
  MetricsTextMsg reply;
  reply.text = MetricsRegistry::Global().RenderPrometheus();
  return Reply(session, reply.Encode());
}

bool DaisyServer::HandleSchema(Session* session) {
  SchemaInfoMsg reply;
  for (const DaisyEngine::TableSummary& t : engine_->TableSummaries()) {
    SchemaInfoMsg::TableInfo info;
    info.name = t.name;
    info.num_rows = t.live_rows;
    for (const Column& col : t.schema.columns()) {
      info.columns.push_back(col.name);
      info.types.push_back(static_cast<uint8_t>(col.type));
    }
    reply.tables.push_back(std::move(info));
  }
  return Reply(session, reply.Encode());
}

bool DaisyServer::SendError(int fd, const Status& s) {
  return WriteFrame(fd, ErrorMsg::FromStatus(s).Encode()).ok();
}

void DaisyServer::StopRequestClock(Session* session) {
  if (session->request_latency == nullptr) return;
  session->request_latency->Observe(static_cast<uint64_t>(
      session->request_timer.ElapsedMillis() * 1000.0));
  session->request_latency = nullptr;
}

bool DaisyServer::Reply(Session* session, const std::string& payload) {
  StopRequestClock(session);
  return WriteFrame(session->fd, payload).ok();
}

bool DaisyServer::ReplyError(Session* session, const Status& s) {
  return Reply(session, ErrorMsg::FromStatus(s).Encode());
}

}  // namespace server
}  // namespace daisy
