#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/metrics.h"
#include "persist/format.h"
#include "persist/io_util.h"
#include "persist/snapshot.h"

namespace daisy {
namespace persist {

namespace {

// ------------------------------------------------- statement round-trip --

void EncodeColumnRef(const ColumnRef& ref, BinaryWriter* w) {
  w->WriteString(ref.table);
  w->WriteString(ref.column);
}

Result<ColumnRef> DecodeColumnRef(BinaryReader* r) {
  ColumnRef ref;
  DAISY_ASSIGN_OR_RETURN(ref.table, r->ReadString());
  DAISY_ASSIGN_OR_RETURN(ref.column, r->ReadString());
  return ref;
}

void EncodeExpr(const Expr& e, BinaryWriter* w) {
  w->WriteU8(static_cast<uint8_t>(e.kind));
  if (e.kind == Expr::Kind::kCmp) {
    EncodeColumnRef(e.left, w);
    w->WriteU8(static_cast<uint8_t>(e.op));
    w->WriteU8(e.right_is_column ? 1 : 0);
    if (e.right_is_column) {
      EncodeColumnRef(e.right_col, w);
    } else {
      w->WriteValue(e.right_val);
    }
    return;
  }
  w->WriteU32(static_cast<uint32_t>(e.children.size()));
  for (const auto& child : e.children) EncodeExpr(*child, w);
}

Result<std::unique_ptr<Expr>> DecodeExpr(BinaryReader* r, int depth) {
  if (depth > 64) {
    return Status::ParseError("wal: WHERE tree deeper than 64 levels");
  }
  auto e = std::make_unique<Expr>();
  DAISY_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
  if (kind > static_cast<uint8_t>(Expr::Kind::kCmp)) {
    return Status::ParseError("wal: unknown expr kind " +
                              std::to_string(kind));
  }
  e->kind = static_cast<Expr::Kind>(kind);
  if (e->kind == Expr::Kind::kCmp) {
    DAISY_ASSIGN_OR_RETURN(e->left, DecodeColumnRef(r));
    DAISY_ASSIGN_OR_RETURN(uint8_t op, r->ReadU8());
    if (op > static_cast<uint8_t>(CompareOp::kGeq)) {
      return Status::ParseError("wal: unknown compare op " +
                                std::to_string(op));
    }
    e->op = static_cast<CompareOp>(op);
    DAISY_ASSIGN_OR_RETURN(uint8_t is_col, r->ReadU8());
    e->right_is_column = is_col != 0;
    if (e->right_is_column) {
      DAISY_ASSIGN_OR_RETURN(e->right_col, DecodeColumnRef(r));
    } else {
      DAISY_ASSIGN_OR_RETURN(e->right_val, r->ReadValue());
    }
    return e;
  }
  DAISY_ASSIGN_OR_RETURN(uint32_t nchildren, r->ReadU32());
  e->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    DAISY_ASSIGN_OR_RETURN(auto child, DecodeExpr(r, depth + 1));
    e->children.push_back(std::move(child));
  }
  return e;
}

void EncodeStmt(const SelectStmt& stmt, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(stmt.select_list.size()));
  for (const SelectItem& item : stmt.select_list) {
    w->WriteU8(item.star ? 1 : 0);
    EncodeColumnRef(item.col, w);
    w->WriteU8(static_cast<uint8_t>(item.agg));
    w->WriteString(item.alias);
  }
  w->WriteU32(static_cast<uint32_t>(stmt.tables.size()));
  for (const std::string& t : stmt.tables) w->WriteString(t);
  w->WriteU8(stmt.where != nullptr ? 1 : 0);
  if (stmt.where != nullptr) EncodeExpr(*stmt.where, w);
  w->WriteU32(static_cast<uint32_t>(stmt.group_by.size()));
  for (const ColumnRef& ref : stmt.group_by) EncodeColumnRef(ref, w);
}

Result<SelectStmt> DecodeStmt(BinaryReader* r) {
  SelectStmt stmt;
  DAISY_ASSIGN_OR_RETURN(uint32_t nitems, r->ReadU32());
  stmt.select_list.reserve(nitems);
  for (uint32_t i = 0; i < nitems; ++i) {
    SelectItem item;
    DAISY_ASSIGN_OR_RETURN(uint8_t star, r->ReadU8());
    item.star = star != 0;
    DAISY_ASSIGN_OR_RETURN(item.col, DecodeColumnRef(r));
    DAISY_ASSIGN_OR_RETURN(uint8_t agg, r->ReadU8());
    if (agg > static_cast<uint8_t>(AggFunc::kMax)) {
      return Status::ParseError("wal: unknown aggregate " +
                                std::to_string(agg));
    }
    item.agg = static_cast<AggFunc>(agg);
    DAISY_ASSIGN_OR_RETURN(item.alias, r->ReadString());
    stmt.select_list.push_back(std::move(item));
  }
  DAISY_ASSIGN_OR_RETURN(uint32_t ntables, r->ReadU32());
  stmt.tables.reserve(ntables);
  for (uint32_t i = 0; i < ntables; ++i) {
    DAISY_ASSIGN_OR_RETURN(std::string t, r->ReadString());
    stmt.tables.push_back(std::move(t));
  }
  DAISY_ASSIGN_OR_RETURN(uint8_t has_where, r->ReadU8());
  if (has_where != 0) {
    DAISY_ASSIGN_OR_RETURN(stmt.where, DecodeExpr(r, 0));
  }
  DAISY_ASSIGN_OR_RETURN(uint32_t ngroup, r->ReadU32());
  stmt.group_by.reserve(ngroup);
  for (uint32_t i = 0; i < ngroup; ++i) {
    DAISY_ASSIGN_OR_RETURN(ColumnRef ref, DecodeColumnRef(r));
    stmt.group_by.push_back(std::move(ref));
  }
  return stmt;
}

}  // namespace

std::string EncodeWalAppendRows(const std::string& table,
                                const std::vector<std::vector<Value>>& rows) {
  BinaryWriter w;
  w.WriteU8(kWalAppendRows);
  w.WriteString(table);
  w.WriteU64(rows.size());
  for (const std::vector<Value>& row : rows) {
    w.WriteU32(static_cast<uint32_t>(row.size()));
    for (const Value& v : row) w.WriteValue(v);
  }
  return w.TakeBuffer();
}

std::string EncodeWalDeleteRows(const std::string& table,
                                const std::vector<RowId>& ids) {
  BinaryWriter w;
  w.WriteU8(kWalDeleteRows);
  w.WriteString(table);
  w.WriteU64(ids.size());
  for (RowId id : ids) w.WriteU64(id);
  return w.TakeBuffer();
}

std::string EncodeWalQuery(const SelectStmt& stmt) {
  BinaryWriter w;
  w.WriteU8(kWalQuery);
  EncodeStmt(stmt, &w);
  return w.TakeBuffer();
}

std::string EncodeWalCleanAll() {
  BinaryWriter w;
  w.WriteU8(kWalCleanAll);
  return w.TakeBuffer();
}

std::string EncodeWalImportProvenance(
    const std::string& table,
    const std::map<ProvenanceStore::CellKey, std::vector<RepairRecord>>&
        records) {
  BinaryWriter w;
  w.WriteU8(kWalImportProvenance);
  w.WriteString(table);
  EncodeProvenanceRecords(records, &w);
  return w.TakeBuffer();
}

Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  BinaryReader r(payload);
  WalRecord record;
  DAISY_ASSIGN_OR_RETURN(record.type, r.ReadU8());
  switch (record.type) {
    case kWalAppendRows: {
      DAISY_ASSIGN_OR_RETURN(record.table, r.ReadString());
      DAISY_ASSIGN_OR_RETURN(uint64_t nrows, r.ReadCount(4));
      record.rows.reserve(nrows);
      for (uint64_t i = 0; i < nrows; ++i) {
        DAISY_ASSIGN_OR_RETURN(uint32_t nvals, r.ReadU32());
        std::vector<Value> row;
        row.reserve(nvals);
        for (uint32_t k = 0; k < nvals; ++k) {
          DAISY_ASSIGN_OR_RETURN(Value v, r.ReadValue());
          row.push_back(std::move(v));
        }
        record.rows.push_back(std::move(row));
      }
      break;
    }
    case kWalDeleteRows: {
      DAISY_ASSIGN_OR_RETURN(record.table, r.ReadString());
      DAISY_ASSIGN_OR_RETURN(uint64_t nids, r.ReadCount(8));
      record.ids.reserve(nids);
      for (uint64_t i = 0; i < nids; ++i) {
        DAISY_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
        record.ids.push_back(id);
      }
      break;
    }
    case kWalQuery: {
      DAISY_ASSIGN_OR_RETURN(record.stmt, DecodeStmt(&r));
      break;
    }
    case kWalCleanAll:
      break;
    case kWalImportProvenance: {
      DAISY_ASSIGN_OR_RETURN(record.table, r.ReadString());
      DAISY_ASSIGN_OR_RETURN(record.provenance, DecodeProvenanceRecords(&r));
      break;
    }
    default:
      return Status::ParseError("wal: unknown record type " +
                                std::to_string(record.type));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("wal: record has " +
                              std::to_string(r.remaining()) +
                              " trailing bytes");
  }
  return record;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     Env* env) {
  if (env == nullptr) env = Env::Default();
  DAISY_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(path, /*truncate=*/true));
  std::unique_ptr<WalWriter> writer(new WalWriter(path, std::move(file)));
  const std::string magic(kWalMagic, sizeof(kWalMagic));
  DAISY_RETURN_IF_ERROR(writer->file_->Append(magic));
  DAISY_RETURN_IF_ERROR(writer->file_->Sync());
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t valid_bytes, Env* env) {
  if (env == nullptr) env = Env::Default();
  DAISY_RETURN_IF_ERROR(TruncateFile(path, valid_bytes, env));
  DAISY_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(path, /*truncate=*/false));
  return std::unique_ptr<WalWriter>(new WalWriter(path, std::move(file)));
}

WalWriter::~WalWriter() = default;

namespace {

// Frame = u32 payload length + u32 crc + payload (persist/format.h).
Status AppendFramed(std::string* out, const std::string& payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::IOError("WAL record of " + std::to_string(payload.size()) +
                           " bytes exceeds the u32 frame limit");
  }
  BinaryWriter frame;
  frame.WriteU32(static_cast<uint32_t>(payload.size()));
  frame.WriteU32(Crc32(payload.data(), payload.size()));
  out->append(frame.TakeBuffer());
  out->append(payload);
  return Status::OK();
}

}  // namespace

namespace {

// Cached instrument pointers for the WAL commit path (one relaxed add per
// field per commit; the registry lookup happens once per process).
struct WalMetrics {
  Counter* records;
  Counter* batches;
  Counter* fsyncs;
  Histogram* batch_records;

  static WalMetrics& Get() {
    static WalMetrics* const m = new WalMetrics();
    return *m;
  }

  WalMetrics() {
    MetricsRegistry& r = MetricsRegistry::Global();
    records = r.GetCounter("daisy_persist_wal_records_total",
                           "WAL records appended (durable commits)");
    batches = r.GetCounter("daisy_persist_wal_batches_total",
                           "WAL frame writes (group-commit batches)");
    fsyncs = r.GetCounter("daisy_persist_wal_fsyncs_total",
                          "WAL fsyncs issued");
    batch_records = r.GetHistogram("daisy_persist_wal_batch_records",
                                   /*first_bound=*/1, /*num_buckets=*/10,
                                   "Records per committed WAL batch");
  }
};

}  // namespace

Status WalWriter::AppendBatch(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return Status::OK();
  std::string bytes;
  for (const std::string& payload : payloads) {
    DAISY_RETURN_IF_ERROR(AppendFramed(&bytes, payload));
  }
  DAISY_RETURN_IF_ERROR(file_->Append(bytes));
  DAISY_RETURN_IF_ERROR(file_->Sync());
  WalMetrics& m = WalMetrics::Get();
  m.records->Increment(payloads.size());
  m.batches->Increment();
  m.fsyncs->Increment();
  m.batch_records->Observe(payloads.size());
  return Status::OK();
}

Result<WalContents> ReadWal(const std::string& path, Env* env) {
  DAISY_ASSIGN_OR_RETURN(std::string bytes, ReadFileFully(path, env));
  if (bytes.size() < sizeof(kWalMagic)) {
    // Crash inside Create, before the magic was durable: an empty log
    // whose header must be rewritten.
    WalContents torn;
    torn.torn_tail = !bytes.empty();
    torn.header_valid = false;
    torn.record_offsets.push_back(0);
    return torn;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::ParseError("not a daisy WAL: " + path);
  }
  WalContents out;
  uint64_t off = sizeof(kWalMagic);
  while (off < bytes.size()) {
    // Frame = u32 length + u32 crc + payload. Anything short of a full,
    // checksum-valid frame is the torn tail of a crashed append: stop.
    if (bytes.size() - off < 8) {
      out.torn_tail = true;
      break;
    }
    BinaryReader frame(bytes.data() + off, 8);
    const uint32_t len = frame.ReadU32().value();
    const uint32_t crc = frame.ReadU32().value();
    if (bytes.size() - off - 8 < len) {
      out.torn_tail = true;
      break;
    }
    const char* payload = bytes.data() + off + 8;
    if (crc != Crc32(payload, len)) {
      out.torn_tail = true;
      break;
    }
    out.record_offsets.push_back(off);
    out.payloads.emplace_back(payload, len);
    off += 8 + len;
  }
  // On a torn tail the loop breaks before advancing `off`, so in both
  // exits `off` is exactly the end of the last complete record.
  out.valid_bytes = off;
  out.record_offsets.push_back(out.valid_bytes);
  return out;
}

}  // namespace persist
}  // namespace daisy
