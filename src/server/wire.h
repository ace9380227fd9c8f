// Wire protocol for the daisyd service layer.
//
// Every message travels in a frame shaped exactly like a WAL record:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// (little-endian, CRC-32 per common/binary_io.h). The payload is a one-byte
// message type followed by a type-specific body encoded with
// BinaryWriter/BinaryReader — the same bounds-checked substrate the
// persistence layer uses, so a truncated or corrupted request surfaces as a
// Status, never as undefined behaviour. A frame that fails its CRC or
// exceeds kMaxFrameBytes poisons the connection (the server replies with a
// final Error frame and closes); there is no resynchronisation.
//
// Conversation shape: the client opens with Hello and the server answers
// HelloAck (version negotiation + session id). After that the client sends
// one request at a time and reads replies until a terminal frame:
//
//   Query        -> RowHeader, RowBatch*, QueryDone   (row mode)
//                -> ExplainText                       (explain-analyze mode)
//                -> Error
//   Append/Delete/CleanAll/Checkpoint -> Ack | Error
//   Health       -> HealthInfo
//   Schema       -> SchemaInfo | Error
//   Metrics      -> MetricsText (Prometheus exposition page)
//   Bye          -> (server closes)
//
// Result rows stream in batches of kRowsPerBatch so a large result never
// materialises a single giant frame on either side.

#ifndef DAISY_SERVER_WIRE_H_
#define DAISY_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "common/value.h"

namespace daisy {
namespace server {

/// Protocol version spoken by this build. HelloAck echoes it; a client
/// whose Hello carries a different version is rejected with
/// kInvalidArgument before any statement is accepted.
constexpr uint32_t kProtocolVersion = 1;

/// Upper bound on a single frame's payload. Large enough for any batch the
/// server emits; small enough that a garbage length prefix fails fast
/// instead of driving a multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Result rows per RowBatch frame.
constexpr size_t kRowsPerBatch = 256;

enum class MessageType : uint8_t {
  // Requests (client -> server).
  kHello = 1,
  kQuery = 2,       ///< sql + per-query limits; mode row-stream or analyze
  kAppend = 3,      ///< table + rows of Values
  kDelete = 4,      ///< table + row ids
  kCleanAll = 5,
  kCheckpoint = 6,
  kHealth = 7,
  kSchema = 8,
  kBye = 9,
  kMetrics = 10,    ///< scrape the process metrics registry

  // Replies (server -> client).
  kHelloAck = 64,
  kRowHeader = 65,   ///< result schema: names + value types
  kRowBatch = 66,    ///< a run of result rows
  kQueryDone = 67,   ///< terminal: counters + termination cause
  kExplainText = 68, ///< terminal: rendered analyze tree
  kAck = 69,         ///< terminal: rows_affected for write ops
  kHealthInfo = 70,
  kSchemaInfo = 71,
  kMetricsText = 72, ///< terminal: Prometheus text exposition page
  kError = 127,      ///< terminal: StatusCode + message
};

const char* MessageTypeToString(MessageType t);

// ---------------------------------------------------------------------------
// Framing over a connected socket (or any byte-stream fd).
// ---------------------------------------------------------------------------

/// Writes one CRC frame around `payload`. Retries short writes/EINTR;
/// fails with kIOError on a closed peer.
Status WriteFrame(int fd, const std::string& payload);

/// Reads one full frame, validating length bound and CRC. A clean EOF
/// before any byte of the header yields kNotFound (peer hung up between
/// messages); EOF mid-frame, a CRC mismatch, or an oversized length all
/// yield kIOError.
Result<std::string> ReadFrame(int fd);

// ---------------------------------------------------------------------------
// Message bodies. Each struct has an Encode() producing a full payload
// (type byte included) and a static Decode() over the payload minus the
// leading type byte.
// ---------------------------------------------------------------------------

/// Peeks the leading type byte of a decoded payload.
Result<MessageType> PeekType(const std::string& payload);

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string Encode() const;
  static Result<HelloMsg> Decode(const std::string& payload);
};

struct HelloAckMsg {
  uint32_t version = kProtocolVersion;
  uint64_t session_id = 0;
  std::string banner;
  std::string Encode() const;
  static Result<HelloAckMsg> Decode(const std::string& payload);
};

enum class QueryMode : uint8_t {
  kRows = 0,           ///< stream RowHeader/RowBatch*/QueryDone
  kExplainAnalyze = 1, ///< execute and return the rendered tree
};

struct QueryMsg {
  std::string sql;
  int64_t timeout_ms = -1;  ///< negative = unlimited (ExecLimits semantics)
  uint64_t row_limit = 0;   ///< 0 = unlimited
  QueryMode mode = QueryMode::kRows;
  std::string Encode() const;
  static Result<QueryMsg> Decode(const std::string& payload);
};

struct AppendMsg {
  std::string table;
  std::vector<std::vector<Value>> rows;
  std::string Encode() const;
  static Result<AppendMsg> Decode(const std::string& payload);
};

struct DeleteMsg {
  std::string table;
  std::vector<uint64_t> row_ids;
  std::string Encode() const;
  static Result<DeleteMsg> Decode(const std::string& payload);
};

/// Body-less requests (CleanAll, Checkpoint, Health, Schema, Metrics, Bye).
std::string EncodeEmpty(MessageType t);

struct RowHeaderMsg {
  std::vector<std::string> names;
  std::vector<uint8_t> types;  ///< ValueType as u8, parallel to names
  std::string Encode() const;
  static Result<RowHeaderMsg> Decode(const std::string& payload);
};

struct RowBatchMsg {
  std::vector<std::vector<Value>> rows;
  std::string Encode() const;  ///< via RowBatchWriter
  static Result<RowBatchMsg> Decode(const std::string& payload);
};

/// Encodes a RowBatch payload one value at a time, with no row vectors:
/// the payload equals RowBatchMsg{rows}.Encode() for the same rows.
class RowBatchWriter {
 public:
  /// Starts a row; AddValue must follow `ncells` times.
  void BeginRow(size_t ncells);
  void AddValue(const Value& v) { body_.WriteValue(v); }
  size_t rows() const { return rows_; }
  /// The payload of the rows added since the last Finish; starts afresh.
  std::string Finish();

 private:
  BinaryWriter body_;  ///< the rows, without the type byte and row count
  size_t rows_ = 0;
};

struct QueryDoneMsg {
  uint64_t total_rows = 0;
  uint64_t epoch = 0;
  uint8_t termination = 0;  ///< QueryTermination as u8
  bool read_path = false;
  std::string cut_node;
  uint64_t errors_fixed = 0;
  uint64_t rules_applied = 0;
  uint64_t tuples_scanned = 0;
  std::string Encode() const;
  static Result<QueryDoneMsg> Decode(const std::string& payload);
};

struct ExplainTextMsg {
  std::string text;
  std::string Encode() const;
  static Result<ExplainTextMsg> Decode(const std::string& payload);
};

/// The Prometheus text exposition page of the process metrics registry
/// (common/metrics.h) — the reply to a Metrics request.
struct MetricsTextMsg {
  std::string text;
  std::string Encode() const;
  static Result<MetricsTextMsg> Decode(const std::string& payload);
};

struct AckMsg {
  uint64_t rows_affected = 0;
  std::string Encode() const;
  static Result<AckMsg> Decode(const std::string& payload);
};

struct HealthInfoMsg {
  uint8_t state = 0;  ///< EngineHealth as u8
  std::string cause;  ///< empty when healthy
  uint64_t recover_attempts = 0;
  std::string Encode() const;
  static Result<HealthInfoMsg> Decode(const std::string& payload);
};

struct SchemaInfoMsg {
  struct TableInfo {
    std::string name;
    uint64_t num_rows = 0;
    std::vector<std::string> columns;
    std::vector<uint8_t> types;  ///< ValueType as u8
  };
  std::vector<TableInfo> tables;
  std::string Encode() const;
  static Result<SchemaInfoMsg> Decode(const std::string& payload);
};

struct ErrorMsg {
  uint8_t code = 0;  ///< StatusCode as u8
  std::string message;
  std::string Encode() const;
  static Result<ErrorMsg> Decode(const std::string& payload);
  /// Round-trips a Status through the wire representation.
  static ErrorMsg FromStatus(const Status& s);
  Status ToStatus() const;
};

}  // namespace server
}  // namespace daisy

#endif  // DAISY_SERVER_WIRE_H_
