#include "server/wire.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/binary_io.h"

namespace daisy {
namespace server {

namespace {

/// Reads exactly `len` bytes. `allow_clean_eof` maps an EOF before the
/// first byte to kNotFound (idle peer hangup) instead of kIOError.
Status ReadFully(int fd, void* buf, size_t len, bool allow_clean_eof) {
  char* out = static_cast<char*>(buf);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, out + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && allow_clean_eof) {
        return Status::NotFound("peer closed connection");
      }
      return Status::IOError("unexpected EOF mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFully(int fd, const void* buf, size_t len) {
  const char* in = static_cast<const char*>(buf);
  size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: a hung-up peer yields EPIPE instead of killing the
    // process with SIGPIPE. Non-socket fds (ENOTSOCK) fall back to write.
    ssize_t n = ::send(fd, in + sent, len - sent, MSG_NOSIGNAL);
    // daisy-lint: allow(raw-io) pipe/socketpair test fallback, not a file
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, in + sent, len - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

void EncodeRows(BinaryWriter* w, const std::vector<std::vector<Value>>& rows) {
  w->WriteU64(rows.size());
  for (const std::vector<Value>& row : rows) {
    w->WriteU64(row.size());
    for (const Value& v : row) w->WriteValue(v);
  }
}

Result<std::vector<std::vector<Value>>> DecodeRows(BinaryReader* r) {
  DAISY_ASSIGN_OR_RETURN(uint64_t nrows, r->ReadCount(1));
  std::vector<std::vector<Value>> rows;
  rows.reserve(nrows);
  for (uint64_t i = 0; i < nrows; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t ncells, r->ReadCount(1));
    std::vector<Value> row;
    row.reserve(ncells);
    for (uint64_t c = 0; c < ncells; ++c) {
      DAISY_ASSIGN_OR_RETURN(Value v, r->ReadValue());
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Skips the leading type byte and verifies it matches `expected`.
Result<BinaryReader> BodyReader(const std::string& payload,
                                MessageType expected) {
  BinaryReader r(payload);
  DAISY_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  if (type != static_cast<uint8_t>(expected)) {
    return Status::InvalidArgument(
        std::string("expected ") + MessageTypeToString(expected) +
        " frame, got type " + std::to_string(type));
  }
  return r;
}

}  // namespace

const char* MessageTypeToString(MessageType t) {
  switch (t) {
    case MessageType::kHello: return "Hello";
    case MessageType::kQuery: return "Query";
    case MessageType::kAppend: return "Append";
    case MessageType::kDelete: return "Delete";
    case MessageType::kCleanAll: return "CleanAll";
    case MessageType::kCheckpoint: return "Checkpoint";
    case MessageType::kHealth: return "Health";
    case MessageType::kSchema: return "Schema";
    case MessageType::kBye: return "Bye";
    case MessageType::kMetrics: return "Metrics";
    case MessageType::kHelloAck: return "HelloAck";
    case MessageType::kRowHeader: return "RowHeader";
    case MessageType::kRowBatch: return "RowBatch";
    case MessageType::kQueryDone: return "QueryDone";
    case MessageType::kExplainText: return "ExplainText";
    case MessageType::kAck: return "Ack";
    case MessageType::kHealthInfo: return "HealthInfo";
    case MessageType::kSchemaInfo: return "SchemaInfo";
    case MessageType::kMetricsText: return "MetricsText";
    case MessageType::kError: return "Error";
  }
  return "Unknown";
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload exceeds kMaxFrameBytes");
  }
  BinaryWriter header;
  header.WriteU32(static_cast<uint32_t>(payload.size()));
  header.WriteU32(Crc32(payload.data(), payload.size()));
  std::string wire = header.TakeBuffer();
  wire.append(payload);
  return WriteFully(fd, wire.data(), wire.size());
}

Result<std::string> ReadFrame(int fd) {
  char header[8];
  DAISY_RETURN_IF_ERROR(
      ReadFully(fd, header, sizeof(header), /*allow_clean_eof=*/true));
  BinaryReader r(header, sizeof(header));
  DAISY_ASSIGN_OR_RETURN(uint32_t len, r.ReadU32());
  DAISY_ASSIGN_OR_RETURN(uint32_t crc, r.ReadU32());
  if (len > kMaxFrameBytes) {
    return Status::IOError("frame length " + std::to_string(len) +
                           " exceeds limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    DAISY_RETURN_IF_ERROR(
        ReadFully(fd, &payload[0], len, /*allow_clean_eof=*/false));
  }
  if (Crc32(payload.data(), payload.size()) != crc) {
    return Status::IOError("frame CRC mismatch");
  }
  return payload;
}

Result<MessageType> PeekType(const std::string& payload) {
  BinaryReader r(payload);
  DAISY_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  return static_cast<MessageType>(type);
}

// --------------------------------------------------------------------------
// Hello / HelloAck
// --------------------------------------------------------------------------

std::string HelloMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kHello));
  w.WriteU32(version);
  return w.TakeBuffer();
}

Result<HelloMsg> HelloMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kHello));
  HelloMsg m;
  DAISY_ASSIGN_OR_RETURN(m.version, r.ReadU32());
  return m;
}

std::string HelloAckMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kHelloAck));
  w.WriteU32(version);
  w.WriteU64(session_id);
  w.WriteString(banner);
  return w.TakeBuffer();
}

Result<HelloAckMsg> HelloAckMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kHelloAck));
  HelloAckMsg m;
  DAISY_ASSIGN_OR_RETURN(m.version, r.ReadU32());
  DAISY_ASSIGN_OR_RETURN(m.session_id, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(m.banner, r.ReadString());
  return m;
}

// --------------------------------------------------------------------------
// Query
// --------------------------------------------------------------------------

std::string QueryMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kQuery));
  w.WriteString(sql);
  w.WriteI64(timeout_ms);
  w.WriteU64(row_limit);
  w.WriteU8(static_cast<uint8_t>(mode));
  return w.TakeBuffer();
}

Result<QueryMsg> QueryMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kQuery));
  QueryMsg m;
  DAISY_ASSIGN_OR_RETURN(m.sql, r.ReadString());
  DAISY_ASSIGN_OR_RETURN(m.timeout_ms, r.ReadI64());
  DAISY_ASSIGN_OR_RETURN(m.row_limit, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(uint8_t mode, r.ReadU8());
  if (mode > static_cast<uint8_t>(QueryMode::kExplainAnalyze)) {
    return Status::InvalidArgument("unknown query mode " +
                                   std::to_string(mode));
  }
  m.mode = static_cast<QueryMode>(mode);
  return m;
}

// --------------------------------------------------------------------------
// Append / Delete
// --------------------------------------------------------------------------

std::string AppendMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kAppend));
  w.WriteString(table);
  EncodeRows(&w, rows);
  return w.TakeBuffer();
}

Result<AppendMsg> AppendMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kAppend));
  AppendMsg m;
  DAISY_ASSIGN_OR_RETURN(m.table, r.ReadString());
  DAISY_ASSIGN_OR_RETURN(m.rows, DecodeRows(&r));
  return m;
}

std::string DeleteMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kDelete));
  w.WriteString(table);
  w.WriteU64(row_ids.size());
  for (uint64_t id : row_ids) w.WriteU64(id);
  return w.TakeBuffer();
}

Result<DeleteMsg> DeleteMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kDelete));
  DeleteMsg m;
  DAISY_ASSIGN_OR_RETURN(m.table, r.ReadString());
  DAISY_ASSIGN_OR_RETURN(uint64_t n, r.ReadCount(sizeof(uint64_t)));
  m.row_ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DAISY_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
    m.row_ids.push_back(id);
  }
  return m;
}

std::string EncodeEmpty(MessageType t) {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(t));
  return w.TakeBuffer();
}

// --------------------------------------------------------------------------
// Result stream
// --------------------------------------------------------------------------

std::string RowHeaderMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kRowHeader));
  w.WriteU64(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    w.WriteString(names[i]);
    w.WriteU8(i < types.size() ? types[i] : 0);
  }
  return w.TakeBuffer();
}

Result<RowHeaderMsg> RowHeaderMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kRowHeader));
  RowHeaderMsg m;
  DAISY_ASSIGN_OR_RETURN(uint64_t n, r.ReadCount(5));
  m.names.reserve(n);
  m.types.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    DAISY_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    DAISY_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
    m.names.push_back(std::move(name));
    m.types.push_back(type);
  }
  return m;
}

std::string RowBatchMsg::Encode() const {
  RowBatchWriter w;
  for (const std::vector<Value>& row : rows) {
    w.BeginRow(row.size());
    for (const Value& v : row) w.AddValue(v);
  }
  return w.Finish();
}

void RowBatchWriter::BeginRow(size_t ncells) {
  body_.WriteU64(ncells);
  ++rows_;
}

std::string RowBatchWriter::Finish() {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kRowBatch));
  w.WriteU64(rows_);
  std::string payload = w.TakeBuffer();
  payload += body_.buffer();
  body_ = BinaryWriter();
  rows_ = 0;
  return payload;
}

Result<RowBatchMsg> RowBatchMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kRowBatch));
  RowBatchMsg m;
  DAISY_ASSIGN_OR_RETURN(m.rows, DecodeRows(&r));
  return m;
}

std::string QueryDoneMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kQueryDone));
  w.WriteU64(total_rows);
  w.WriteU64(epoch);
  w.WriteU8(termination);
  w.WriteU8(read_path ? 1 : 0);
  w.WriteString(cut_node);
  w.WriteU64(errors_fixed);
  w.WriteU64(rules_applied);
  w.WriteU64(tuples_scanned);
  return w.TakeBuffer();
}

Result<QueryDoneMsg> QueryDoneMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kQueryDone));
  QueryDoneMsg m;
  DAISY_ASSIGN_OR_RETURN(m.total_rows, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(m.epoch, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(m.termination, r.ReadU8());
  DAISY_ASSIGN_OR_RETURN(uint8_t read_path, r.ReadU8());
  m.read_path = read_path != 0;
  DAISY_ASSIGN_OR_RETURN(m.cut_node, r.ReadString());
  DAISY_ASSIGN_OR_RETURN(m.errors_fixed, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(m.rules_applied, r.ReadU64());
  DAISY_ASSIGN_OR_RETURN(m.tuples_scanned, r.ReadU64());
  return m;
}

std::string ExplainTextMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kExplainText));
  w.WriteString(text);
  return w.TakeBuffer();
}

Result<ExplainTextMsg> ExplainTextMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kExplainText));
  ExplainTextMsg m;
  DAISY_ASSIGN_OR_RETURN(m.text, r.ReadString());
  return m;
}

std::string MetricsTextMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kMetricsText));
  w.WriteString(text);
  return w.TakeBuffer();
}

Result<MetricsTextMsg> MetricsTextMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kMetricsText));
  MetricsTextMsg m;
  DAISY_ASSIGN_OR_RETURN(m.text, r.ReadString());
  return m;
}

std::string AckMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kAck));
  w.WriteU64(rows_affected);
  return w.TakeBuffer();
}

Result<AckMsg> AckMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kAck));
  AckMsg m;
  DAISY_ASSIGN_OR_RETURN(m.rows_affected, r.ReadU64());
  return m;
}

std::string HealthInfoMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kHealthInfo));
  w.WriteU8(state);
  w.WriteString(cause);
  w.WriteU64(recover_attempts);
  return w.TakeBuffer();
}

Result<HealthInfoMsg> HealthInfoMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kHealthInfo));
  HealthInfoMsg m;
  DAISY_ASSIGN_OR_RETURN(m.state, r.ReadU8());
  DAISY_ASSIGN_OR_RETURN(m.cause, r.ReadString());
  DAISY_ASSIGN_OR_RETURN(m.recover_attempts, r.ReadU64());
  return m;
}

std::string SchemaInfoMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kSchemaInfo));
  w.WriteU64(tables.size());
  for (const TableInfo& t : tables) {
    w.WriteString(t.name);
    w.WriteU64(t.num_rows);
    w.WriteU64(t.columns.size());
    for (size_t i = 0; i < t.columns.size(); ++i) {
      w.WriteString(t.columns[i]);
      w.WriteU8(i < t.types.size() ? t.types[i] : 0);
    }
  }
  return w.TakeBuffer();
}

Result<SchemaInfoMsg> SchemaInfoMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kSchemaInfo));
  SchemaInfoMsg m;
  DAISY_ASSIGN_OR_RETURN(uint64_t ntables, r.ReadCount(1));
  m.tables.reserve(ntables);
  for (uint64_t i = 0; i < ntables; ++i) {
    TableInfo t;
    DAISY_ASSIGN_OR_RETURN(t.name, r.ReadString());
    DAISY_ASSIGN_OR_RETURN(t.num_rows, r.ReadU64());
    DAISY_ASSIGN_OR_RETURN(uint64_t ncols, r.ReadCount(5));
    t.columns.reserve(ncols);
    t.types.reserve(ncols);
    for (uint64_t c = 0; c < ncols; ++c) {
      DAISY_ASSIGN_OR_RETURN(std::string name, r.ReadString());
      DAISY_ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
      t.columns.push_back(std::move(name));
      t.types.push_back(type);
    }
    m.tables.push_back(std::move(t));
  }
  return m;
}

std::string ErrorMsg::Encode() const {
  BinaryWriter w;
  w.WriteU8(static_cast<uint8_t>(MessageType::kError));
  w.WriteU8(code);
  w.WriteString(message);
  return w.TakeBuffer();
}

Result<ErrorMsg> ErrorMsg::Decode(const std::string& payload) {
  DAISY_ASSIGN_OR_RETURN(BinaryReader r,
                         BodyReader(payload, MessageType::kError));
  ErrorMsg m;
  DAISY_ASSIGN_OR_RETURN(m.code, r.ReadU8());
  DAISY_ASSIGN_OR_RETURN(m.message, r.ReadString());
  return m;
}

ErrorMsg ErrorMsg::FromStatus(const Status& s) {
  ErrorMsg m;
  m.code = static_cast<uint8_t>(s.code());
  m.message = s.message();
  return m;
}

Status ErrorMsg::ToStatus() const {
  if (code == static_cast<uint8_t>(StatusCode::kOk)) return Status::OK();
  if (code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Status::Internal("unknown remote status code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace server
}  // namespace daisy
