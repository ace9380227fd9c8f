// The write-ahead delta log: every durable engine mutation between
// snapshots, one record per operation, fsync'd in group-commit batches
// (framing in persist/format.h, batching in persist/group_commit.h).
//
// Records are *logical*: an append/delete batch carries the rows/ids, a
// writer query carries its statement, CleanAllRemaining and provenance
// imports carry markers/payloads. Recovery replays them through the
// engine's own ingest/query machinery in epoch order — by the engine's
// serial-equivalence contract (QueryReport::epoch) the replay reproduces
// repairs, coverage, counters, and provenance bit for bit, while the
// snapshot underneath keeps the replay cost proportional to the log, not
// the dataset.
//
// Torn-tail rule: a crash can leave at most one incomplete record at the
// end of the file. ReadWal stops at the first short or CRC-corrupt frame
// and reports the byte offset of the valid prefix; the recovery path
// truncates the tail away before appending new records. A record is never
// half-applied.

#ifndef DAISY_PERSIST_WAL_H_
#define DAISY_PERSIST_WAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "persist/env.h"
#include "query/ast.h"
#include "repair/provenance.h"
#include "storage/table.h"

namespace daisy {
namespace persist {

/// One decoded WAL record (tagged union over the operation kinds; the
/// fields beyond `type` are meaningful per kind — see persist/format.h).
struct WalRecord {
  uint8_t type = 0;
  std::string table;                     ///< append / delete / import
  std::vector<std::vector<Value>> rows;  ///< kWalAppendRows
  std::vector<RowId> ids;                ///< kWalDeleteRows
  SelectStmt stmt;                       ///< kWalQuery
  std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>
      provenance;                        ///< kWalImportProvenance
};

// Record encoders, one per operation kind (granular so the engine can
// encode from borrowed state — SelectStmt's expression tree is move-only).
std::string EncodeWalAppendRows(const std::string& table,
                                const std::vector<std::vector<Value>>& rows);
std::string EncodeWalDeleteRows(const std::string& table,
                                const std::vector<RowId>& ids);
std::string EncodeWalQuery(const SelectStmt& stmt);
std::string EncodeWalCleanAll();
std::string EncodeWalImportProvenance(
    const std::string& table,
    const std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>&
        records);

Result<WalRecord> DecodeWalRecord(const std::string& payload);

/// Append-side handle over one WAL file. AppendBatch writes all frames in
/// one write() followed by one fsync — when it returns OK every record
/// survives a crash in full. All file operations go through the given Env
/// (persist/env.h; null = Env::Default()). Durability counts go to the
/// `daisy_persist_wal_{records,batches,fsyncs}_total` registry counters.
///
/// Not thread-safe — callers serialize (the engine funnels every append
/// through the group-commit queue's single leader).
class WalWriter {
 public:
  /// Creates (or truncates) the file and writes + fsyncs the magic header.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   Env* env = nullptr);

  /// Opens an existing WAL whose valid prefix is `valid_bytes` long
  /// (from ReadWal), truncating any torn tail first.
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, uint64_t valid_bytes, Env* env = nullptr);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends every payload as its own framed record in one write() and
  /// issues a single Sync() for the whole batch. On OK, *all* records are
  /// durable; on failure none may be treated as durable (the file may hold
  /// a torn multi-record tail that ReadWal's prefix rule discards frame by
  /// frame). A batch of one is one Append and one Sync Env call, so a
  /// single-record commit has a fixed fault-schedule index.
  Status AppendBatch(const std::vector<std::string>& payloads);

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, std::unique_ptr<WritableFile> file)
      : path_(std::move(path)), file_(std::move(file)) {}

  std::string path_;
  std::unique_ptr<WritableFile> file_;
};

/// The decoded contents of one WAL file.
struct WalContents {
  std::vector<std::string> payloads;
  /// File offset of each record's frame, parallel to `payloads`, plus one
  /// final entry = the end of the valid prefix. The crash-injection tests
  /// cut the file at and between these boundaries.
  std::vector<uint64_t> record_offsets;
  uint64_t valid_bytes = 0;  ///< magic + every complete record
  bool torn_tail = false;    ///< trailing bytes were dropped
  /// False when the file is shorter than the magic header — a crash inside
  /// WalWriter::Create. The log is empty and must be recreated (not
  /// appended to) before use.
  bool header_valid = true;
};

/// Parses the log, applying the torn-tail rule. Fails only on a missing
/// file or a full-length header with the wrong magic (a foreign file) — a
/// mangled record region is reported as a (possibly empty) valid prefix
/// with torn_tail set, and a header torn by a crash mid-create comes back
/// as an empty log with header_valid=false.
Result<WalContents> ReadWal(const std::string& path, Env* env = nullptr);

}  // namespace persist
}  // namespace daisy

#endif  // DAISY_PERSIST_WAL_H_
