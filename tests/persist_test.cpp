// Unit tests for the persistence layer: bounds-checked binary round-trips
// (including the hostile-value hardening set: NaN/±Inf doubles, embedded
// NULs, invalid UTF-8, empty-vs-null), snapshot section framing + CRC
// rejection, WAL torn-tail semantics, engine checkpoint/restore round
// trips, snapshot rotation, v3's shared candidate-set, source-list and
// row-set tables, and the per-version format-stability golden fixtures.
//
// Writing the fixture of a new format version (only after a deliberate
// format bump):
//   DAISY_REGEN_GOLDEN=1 ./persist_test --gtest_filter='GoldenV*'
// writes fresh files into tests/testdata/golden_v<kSnapshotVersion>/ —
// commit them together with the kSnapshotVersion change, beside the
// fixtures of every older version.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "cell_test_util.h"
#include "clean/daisy_engine.h"
#include "common/binary_io.h"
#include "persist/format.h"
#include "persist/io_util.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist_test_util.h"
#include "query/parser.h"
#include "storage/database.h"

namespace daisy {
namespace {

using testutil::ExpectEnginesEquivalent;
using testutil::ExpectTablesEqual;
using testutil::TempDir;
using testutil::ValueExactEq;
using testutil::WalCounts;

// ------------------------------------------------------------ binary io --

TEST(BinaryIo, IntegerAndStringRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-7);
  w.WriteI64(std::numeric_limits<int64_t>::min());
  w.WriteString("hello");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI32().value(), -7);
  EXPECT_EQ(r.ReadI64().value(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, TruncatedReadsFailInsteadOfOverrunning) {
  BinaryWriter w;
  w.WriteU64(42);
  for (size_t cut = 0; cut < 8; ++cut) {
    BinaryReader r(w.buffer().data(), cut);
    EXPECT_FALSE(r.ReadU64().ok()) << "cut at " << cut;
  }
  // A string whose length prefix promises more bytes than exist.
  BinaryWriter s;
  s.WriteU32(1000);
  BinaryReader r(s.buffer());
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BinaryIo, CorruptCountIsRejectedBeforeAllocation) {
  BinaryWriter w;
  w.WriteU64(std::numeric_limits<uint64_t>::max());  // absurd element count
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadCount(8).ok());
}

double BitCastDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t BitCastU64(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(BinaryIo, HostileValuesRoundTripBitExactly) {
  const std::vector<Value> values = {
      Value::Null(),
      Value(std::string("")),  // empty string: distinct from null
      Value(0),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()),
      Value(std::numeric_limits<double>::quiet_NaN()),
      Value(BitCastDouble(0x7FF0000000000001ULL)),  // signalling-ish NaN
      Value(std::numeric_limits<double>::infinity()),
      Value(-std::numeric_limits<double>::infinity()),
      Value(-0.0),
      Value(std::numeric_limits<double>::denorm_min()),
      Value(std::string("embedded\0nul", 12)),
      Value(std::string("\xff\xfe invalid utf8 \x80")),
      Value(std::string("quote'and\"and\nnewline,comma")),
  };
  BinaryWriter w;
  for (const Value& v : values) w.WriteValue(v);
  BinaryReader r(w.buffer());
  for (const Value& v : values) {
    Result<Value> back = r.ReadValue();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(ValueExactEq(v, back.value()))
        << v << " came back as " << back.value();
    if (v.is_double()) {
      EXPECT_EQ(BitCastU64(v.as_double_raw()),
                BitCastU64(back.value().as_double_raw()));
    }
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(BinaryIo, EmptyStringAndNullStayDistinct) {
  BinaryWriter w;
  w.WriteValue(Value::Null());
  w.WriteValue(Value(std::string("")));
  BinaryReader r(w.buffer());
  EXPECT_TRUE(r.ReadValue().value().is_null());
  Value empty = r.ReadValue().value();
  EXPECT_TRUE(empty.is_string());
  EXPECT_EQ(empty.as_string(), "");
}

TEST(BinaryIo, UnknownValueTagIsAnError) {
  BinaryWriter w;
  w.WriteU8(99);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadValue().ok());
}

// ---------------------------------------------------- snapshot sections --

// A table exercising every serialization edge: nulls vs empty strings,
// NaN/Inf doubles, int64 extremes, NUL/invalid-UTF-8 strings, candidates
// (point + range, NaN prob edge excluded — probabilities are engine
// produced), and a tombstone.
Table HostileTable() {
  Table t("hostile", Schema({{"s", ValueType::kString},
                             {"i", ValueType::kInt},
                             {"d", ValueType::kDouble}}));
  EXPECT_TRUE(t.AppendRow({Value(std::string("embedded\0nul", 12)),
                           Value(std::numeric_limits<int64_t>::min()),
                           Value(std::numeric_limits<double>::quiet_NaN())})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value(std::string("")), Value::Null(),
                           Value(-std::numeric_limits<double>::infinity())})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(),
                           Value(std::numeric_limits<int64_t>::max()),
                           Value(-0.0)})
                  .ok());
  EXPECT_TRUE(
      t.AppendRow({Value(std::string("\xff\x80 bad utf8")), Value(0),
                   Value(5.0)})
          .ok());
  EXPECT_TRUE(t.AppendRow({Value("doomed"), Value(1), Value(1.0)}).ok());
  // Candidates: a point set on (0, "s") and a range candidate on (3, "d").
  Cell& c0 = t.mutable_cell(0, 0);
  testutil::AddCandidate(&c0, {Value(std::string("fix\0a", 5)), 0.75, 0});
  testutil::AddCandidate(&c0, {Value(std::string("")), 0.25, 1});
  Cell& c3 = t.mutable_cell(3, 2);
  testutil::AddCandidate(&c3,
                         {Value(2000.0), 1.0, -1, CandidateKind::kLessThan});
  EXPECT_TRUE(t.DeleteRows({4}).ok());
  return t;
}

TEST(Snapshot, HostileTableRoundTrip) {
  TempDir dir;
  Table original = HostileTable();
  persist::EngineSnapshotView view;
  view.epoch = 17;
  view.tables.push_back(&original);
  const std::string path = dir.Sub("snap.dsnap");
  ASSERT_TRUE(persist::WriteSnapshot(path, view).ok());

  Result<persist::EngineSnapshot> snap = persist::ReadSnapshot(path);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_EQ(snap.value().epoch, 17u);
  ASSERT_EQ(snap.value().tables.size(), 1u);
  const Table& back = snap.value().tables[0];
  ExpectTablesEqual(original, back);
  EXPECT_EQ(back.append_version(), original.append_version());
  EXPECT_EQ(back.delta_generation(), original.delta_generation());
  EXPECT_FALSE(back.is_live(4));
  EXPECT_EQ(back.num_live_rows(), 4u);
}

TEST(Snapshot, CorruptionIsDetectedByCrc) {
  TempDir dir;
  Table original = HostileTable();
  persist::EngineSnapshotView view;
  view.tables.push_back(&original);
  const std::string path = dir.Sub("snap.dsnap");
  ASSERT_TRUE(persist::WriteSnapshot(path, view).ok());
  Result<std::string> bytes = persist::ReadFileFully(path);
  ASSERT_TRUE(bytes.ok());
  // Flip one payload byte somewhere past the header; every section is
  // CRC-protected, so any position must be caught.
  for (size_t pos : {size_t{40}, bytes.value().size() / 2,
                     bytes.value().size() - 10}) {
    std::string mangled = bytes.value();
    mangled[pos] = static_cast<char>(mangled[pos] ^ 0x40);
    const std::string mpath = dir.Sub("mangled.dsnap");
    ASSERT_TRUE(persist::WriteFileAtomic(mpath, mangled).ok());
    EXPECT_FALSE(persist::ReadSnapshot(mpath).ok()) << "flip at " << pos;
  }
  // Truncations anywhere must fail cleanly, never crash.
  for (size_t len = 0; len < bytes.value().size(); len += 97) {
    const std::string tpath = dir.Sub("truncated.dsnap");
    ASSERT_TRUE(
        persist::WriteFileAtomic(tpath, bytes.value().substr(0, len)).ok());
    EXPECT_FALSE(persist::ReadSnapshot(tpath).ok()) << "truncated to " << len;
  }
}

TEST(Snapshot, BadMagicAndVersionAreRejected) {
  TempDir dir;
  const std::string path = dir.Sub("bogus.dsnap");
  ASSERT_TRUE(persist::WriteFileAtomic(path, "not a snapshot at all").ok());
  EXPECT_FALSE(persist::ReadSnapshot(path).ok());
}

// ------------------------------------------------------------------ wal --

TEST(Wal, RecordsRoundTripAndSurviveReopen) {
  TempDir dir;
  const std::string path = dir.Sub("test.dwal");
  const std::string append = persist::EncodeWalAppendRows(
      "emp", {{Value(1), Value("x")}, {Value::Null(), Value(2.5)}});
  const std::string del = persist::EncodeWalDeleteRows("emp", {3, 7});
  SelectStmt stmt =
      ParseQuery("SELECT zip, COUNT(*) FROM emp WHERE city == 'LA' AND "
                 "salary > 10 GROUP BY zip")
          .ValueOrDie();
  const std::string query = persist::EncodeWalQuery(stmt);
  const std::string clean = persist::EncodeWalCleanAll();
  {
    auto writer = persist::WalWriter::Create(path).ValueOrDie();
    ASSERT_TRUE(writer->AppendBatch({append}).ok());
    ASSERT_TRUE(writer->AppendBatch({del}).ok());
  }
  {
    // Reopen-for-append continues where the valid prefix ends.
    Result<persist::WalContents> contents = persist::ReadWal(path);
    ASSERT_TRUE(contents.ok());
    auto writer =
        persist::WalWriter::OpenForAppend(path, contents.value().valid_bytes)
            .ValueOrDie();
    ASSERT_TRUE(writer->AppendBatch({query}).ok());
    ASSERT_TRUE(writer->AppendBatch({clean}).ok());
  }
  Result<persist::WalContents> contents = persist::ReadWal(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents.value().torn_tail);
  ASSERT_EQ(contents.value().payloads.size(), 4u);
  EXPECT_EQ(contents.value().payloads[0], append);
  EXPECT_EQ(contents.value().payloads[1], del);
  EXPECT_EQ(contents.value().payloads[2], query);
  EXPECT_EQ(contents.value().payloads[3], clean);

  persist::WalRecord r0 =
      persist::DecodeWalRecord(contents.value().payloads[0]).ValueOrDie();
  EXPECT_EQ(r0.type, persist::kWalAppendRows);
  EXPECT_EQ(r0.table, "emp");
  ASSERT_EQ(r0.rows.size(), 2u);
  EXPECT_TRUE(ValueExactEq(r0.rows[1][0], Value::Null()));
  persist::WalRecord r2 =
      persist::DecodeWalRecord(contents.value().payloads[2]).ValueOrDie();
  EXPECT_EQ(r2.type, persist::kWalQuery);
  EXPECT_EQ(r2.stmt.ToString(), stmt.ToString());
}

TEST(Wal, TornTailIsDroppedNeverHalfApplied) {
  TempDir dir;
  const std::string path = dir.Sub("torn.dwal");
  const std::string rec1 = persist::EncodeWalCleanAll();
  const std::string rec2 = persist::EncodeWalDeleteRows("emp", {1, 2, 3});
  {
    auto writer = persist::WalWriter::Create(path).ValueOrDie();
    ASSERT_TRUE(writer->AppendBatch({rec1}).ok());
    ASSERT_TRUE(writer->AppendBatch({rec2}).ok());
  }
  Result<std::string> bytes = persist::ReadFileFully(path);
  ASSERT_TRUE(bytes.ok());
  Result<persist::WalContents> full = persist::ReadWal(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().payloads.size(), 2u);
  const uint64_t second_start = full.value().record_offsets[1];

  // Cut at every byte inside the second record: exactly the first record
  // must survive; the tail is reported torn.
  for (uint64_t cut = second_start; cut < bytes.value().size(); ++cut) {
    const std::string cpath = dir.Sub("cut.dwal");
    ASSERT_TRUE(
        persist::WriteFileAtomic(cpath, bytes.value().substr(0, cut)).ok());
    Result<persist::WalContents> cutc = persist::ReadWal(cpath);
    ASSERT_TRUE(cutc.ok()) << "cut " << cut;
    EXPECT_EQ(cutc.value().payloads.size(), 1u) << "cut " << cut;
    EXPECT_EQ(cutc.value().torn_tail, cut != second_start) << "cut " << cut;
    EXPECT_EQ(cutc.value().valid_bytes, second_start) << "cut " << cut;
  }

  // A flipped byte inside the last record's payload is a torn tail too.
  std::string mangled = bytes.value();
  mangled[mangled.size() - 1] = static_cast<char>(mangled.back() ^ 0x01);
  const std::string mpath = dir.Sub("mangled.dwal");
  ASSERT_TRUE(persist::WriteFileAtomic(mpath, mangled).ok());
  Result<persist::WalContents> mc = persist::ReadWal(mpath);
  ASSERT_TRUE(mc.ok());
  EXPECT_TRUE(mc.value().torn_tail);
  EXPECT_EQ(mc.value().payloads.size(), 1u);
}

TEST(Wal, BadMagicIsRejected) {
  TempDir dir;
  const std::string path = dir.Sub("bad.dwal");
  ASSERT_TRUE(persist::WriteFileAtomic(path, "DEFINITELY NOT A WAL").ok());
  EXPECT_FALSE(persist::ReadWal(path).ok());
}

// ------------------------------------------------------ engine lifecycle --

Schema EmpSchema() {
  return Schema({{"zip", ValueType::kInt},
                 {"city", ValueType::kString},
                 {"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble}});
}

Table SeedEmpTable() {
  Table t("emp", EmpSchema());
  const char* cities[] = {"LA", "SF", "NY"};
  for (int i = 0; i < 24; ++i) {
    const int zip = i % 4;
    // zips 0 and 2 are dirty: two cities appear.
    const char* city = cities[(zip == 0 && i % 8 == 0) ? 1
                              : (zip == 2 && i % 12 == 2) ? 2
                                                          : zip % 3];
    const double salary = 1000.0 + 100.0 * i;
    const double tax = (i == 7 || i == 13) ? 0.9 : salary / 200000.0;
    EXPECT_TRUE(
        t.AppendRow({Value(zip), Value(city), Value(salary), Value(tax)})
            .ok());
  }
  return t;
}

ConstraintSet EmpRules() {
  ConstraintSet rules;
  const Schema schema = EmpSchema();
  EXPECT_TRUE(rules.AddFromText("phi: FD zip -> city", "emp", schema).ok());
  EXPECT_TRUE(rules
                  .AddFromText(
                      "psi: !(t1.salary < t2.salary & t1.tax > t2.tax)",
                      "emp", schema)
                  .ok());
  return rules;
}

const std::vector<std::string> kProbeQueries = {
    "SELECT * FROM emp WHERE zip == 0",
    "SELECT city FROM emp WHERE salary > 1500",
    "SELECT zip, COUNT(*) FROM emp GROUP BY zip",
    "SELECT * FROM emp WHERE tax > 0.5",
};

TEST(EnginePersistence, CheckpointRestartIsBitIdentical) {
  TempDir dir;
  // Durable engine: partial cleaning, then persistence, then more work.
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  ASSERT_TRUE(engine
                  .AppendRows("emp", {{Value(0), Value("LA"), Value(99000.0),
                                       Value(0.495)}})
                  .ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE salary > 2400").ok());
  ASSERT_TRUE(engine.DeleteRows("emp", {7}).ok());
  ASSERT_TRUE(engine.Query("SELECT city FROM emp WHERE zip == 2").ok());

  // Reference: same operations, no persistence, never restarted.
  Database ref_db;
  ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine reference(&ref_db, EmpRules());
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(reference
                  .AppendRows("emp", {{Value(0), Value("LA"), Value(99000.0),
                                       Value(0.495)}})
                  .ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE salary > 2400").ok());
  ASSERT_TRUE(reference.DeleteRows("emp", {7}).ok());
  ASSERT_TRUE(reference.Query("SELECT city FROM emp WHERE zip == 2").ok());

  // "Restart": recover from disk and compare everything observable.
  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> recovered =
      DaisyEngine::Open(dir.Sub("state"), &rec_db);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectEnginesEquivalent(recovered.value().get(), &reference, kProbeQueries);
}

TEST(EnginePersistence, RecoveredEngineStaysDurable) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());

  // First recovery, then *more* durable work on the recovered engine, then
  // a second recovery — the log must keep extending across restarts.
  Database db2;
  auto engine2 = DaisyEngine::Open(dir.Sub("state"), &db2).ValueOrDie();
  ASSERT_TRUE(engine2
                  ->AppendRows("emp", {{Value(2), Value("NY"), Value(50.0),
                                        Value(0.9)}})
                  .ok());
  ASSERT_TRUE(engine2->Query("SELECT * FROM emp WHERE zip == 2").ok());

  Database ref_db;
  ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine reference(&ref_db, EmpRules());
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(reference
                  .AppendRows("emp", {{Value(2), Value("NY"), Value(50.0),
                                       Value(0.9)}})
                  .ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 2").ok());

  Database db3;
  auto engine3 = DaisyEngine::Open(dir.Sub("state"), &db3).ValueOrDie();
  ExpectEnginesEquivalent(engine3.get(), &reference, kProbeQueries);
}

TEST(EnginePersistence, CheckpointRotatesAndCompacts) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  ASSERT_TRUE(engine.Checkpoint().ok());

  // Generation 1 is gone, generation 2 holds a snapshot + an empty WAL.
  Result<std::vector<std::string>> names =
      persist::ListDirectory(dir.Sub("state"));
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"snapshot-000002.dsnap",
                                                     "wal-000002.dwal"}));
  Result<persist::WalContents> wal =
      persist::ReadWal(dir.Sub("state") + "/wal-000002.dwal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal.value().payloads.empty());

  // Post-checkpoint operations land in the new WAL; recovery sees both.
  ASSERT_TRUE(engine.DeleteRows("emp", {3}).ok());

  Database ref_db;
  ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine reference(&ref_db, EmpRules());
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(reference.CleanAllRemaining().ok());
  ASSERT_TRUE(reference.DeleteRows("emp", {3}).ok());

  Database rec_db;
  auto recovered =
      DaisyEngine::Open(dir.Sub("state"), &rec_db).ValueOrDie();
  ExpectEnginesEquivalent(recovered.get(), &reference, kProbeQueries);
}

TEST(EnginePersistence, WarmRecoverySkipsRedetection) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  ASSERT_TRUE(engine.RuleFullyChecked("psi").ValueOrDie());

  Database rec_db;
  auto recovered = DaisyEngine::Open(dir.Sub("state"), &rec_db).ValueOrDie();
  // Coverage survived: both rules still fully checked, and a touching
  // query does zero detection work (the theta detector stays quiescent).
  EXPECT_TRUE(recovered->RuleFullyChecked("phi").ValueOrDie());
  EXPECT_TRUE(recovered->RuleFullyChecked("psi").ValueOrDie());
  QueryReport report =
      recovered->Query("SELECT * FROM emp WHERE salary > 1200").ValueOrDie();
  EXPECT_EQ(report.detect_ops, 0u);
  EXPECT_EQ(report.errors_fixed, 0u);
  EXPECT_TRUE(report.read_path);
}

TEST(EnginePersistence, EnableRefusesExistingStateDir) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());

  Database db2;
  ASSERT_TRUE(db2.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine2(&db2, EmpRules());
  ASSERT_TRUE(engine2.Prepare().ok());
  const Status st = engine2.EnablePersistence(dir.Sub("state"));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(EnginePersistence, TornWalHeaderRecoversAsEmptyLog) {
  // A crash inside WalWriter::Create (EnablePersistence or Checkpoint)
  // can leave the WAL file shorter than its magic header. Recovery must
  // treat that as an empty log against the snapshot, not a dead store.
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());

  const std::string wal_path = dir.Sub("state") + "/wal-000001.dwal";
  for (uint64_t cut : {uint64_t{0}, uint64_t{3}, uint64_t{7}}) {
    SCOPED_TRACE(cut);
    ASSERT_TRUE(persist::TruncateFile(wal_path, cut).ok());
    Database rec_db;
    Result<std::unique_ptr<DaisyEngine>> recovered =
        DaisyEngine::Open(dir.Sub("state"), &rec_db);
    ASSERT_TRUE(recovered.ok()) << recovered.status();

    Database ref_db;
    ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
    DaisyEngine reference(&ref_db, EmpRules());
    ASSERT_TRUE(reference.Prepare().ok());
    ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
    ExpectEnginesEquivalent(recovered.value().get(), &reference,
                            kProbeQueries);
  }
}

TEST(EnginePersistence, SemanticsOptionsAreAdoptedFromSnapshot) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyOptions custom;
  custom.mode = DaisyOptions::Mode::kIncremental;
  custom.accuracy_threshold = 0.25;
  custom.theta_partitions = 7;
  custom.optimizer = false;
  DaisyEngine engine(&db, EmpRules(), custom);
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());

  // Open with default options: the WAL must still replay under the
  // persisted semantics (incremental mode, threshold 0.25, 7 partitions,
  // optimizer off).
  Database rec_db;
  auto recovered = DaisyEngine::Open(dir.Sub("state"), &rec_db).ValueOrDie();
  EXPECT_EQ(recovered->options().mode, DaisyOptions::Mode::kIncremental);
  EXPECT_EQ(recovered->options().accuracy_threshold, 0.25);
  EXPECT_EQ(recovered->options().theta_partitions, 7u);
  EXPECT_FALSE(recovered->options().optimizer);

  Database ref_db;
  ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine reference(&ref_db, EmpRules(), custom);
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ExpectEnginesEquivalent(recovered.get(), &reference, kProbeQueries);
}

// Counter `name` in the process registry (0 when not yet registered).
uint64_t CounterValue(const std::string& name) {
  const MetricsRegistry::Snapshot snap =
      MetricsRegistry::Global().TakeSnapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// ExplainAnalyze runs Query's protocol: on a dirty plan it takes the writer
// path, one epoch slot and one WAL record, and replays as a Query; on a
// quiescent plan it is a shared-path read that logs nothing.
TEST(EnginePersistence, ExplainAnalyzeIsAWriterOpLikeQuery) {
  const std::string read_counter = "daisy_engine_queries_total{path=\"read\"}";
  const std::string write_counter =
      "daisy_engine_queries_total{path=\"write\"}";
  const std::string dirty = "SELECT * FROM emp WHERE zip == 0";
  const std::vector<std::vector<Value>> row = {
      {Value(0), Value("LA"), Value(99000.0), Value(0.495)}};
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());

  // Twin: the same operations with Query in place of ExplainAnalyze.
  Database twin_db;
  ASSERT_TRUE(twin_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine twin(&twin_db, EmpRules());
  ASSERT_TRUE(twin.Prepare().ok());
  EXPECT_EQ(twin.Query(dirty).ValueOrDie().epoch, 1u);
  EXPECT_EQ(twin.AppendRows("emp", row).ValueOrDie().engine_epoch, 2u);

  uint64_t reads = CounterValue(read_counter);
  uint64_t writes = CounterValue(write_counter);
  WalCounts wal = WalCounts::Now();
  ASSERT_TRUE(engine.ExplainAnalyze(dirty).ok());
  EXPECT_EQ(CounterValue(read_counter) - reads, 0u);
  EXPECT_EQ(CounterValue(write_counter) - writes, 1u);
  EXPECT_EQ((WalCounts::Now() - wal).records, 1u);
  // It owned slot 1, so the next writer gets slot 2.
  EXPECT_EQ(engine.AppendRows("emp", row).ValueOrDie().engine_epoch, 2u);

  // Fully cleaned, the plan is quiescent: a shared-path read, no record.
  ASSERT_TRUE(engine.CleanAllRemaining().ok());
  ASSERT_TRUE(twin.CleanAllRemaining().ok());
  reads = CounterValue(read_counter);
  writes = CounterValue(write_counter);
  wal = WalCounts::Now();
  ASSERT_TRUE(engine.ExplainAnalyze(dirty).ok());
  EXPECT_EQ(CounterValue(read_counter) - reads, 1u);
  EXPECT_EQ(CounterValue(write_counter) - writes, 0u);
  EXPECT_EQ((WalCounts::Now() - wal).records, 0u);
  ASSERT_TRUE(twin.Query(dirty).ok());

  Database rec_db;
  auto recovered = DaisyEngine::Open(dir.Sub("state"), &rec_db).ValueOrDie();
  ExpectEnginesEquivalent(recovered.get(), &twin, kProbeQueries);
}

// The meta section's two pruning bytes are fixed at 1: a snapshot with
// either at 0 (an engine that could still switch pruning off) is refused
// with a ParseError naming the field, even with a valid section CRC.
TEST(EnginePersistence, PruningOffSnapshotIsRejected) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  const std::vector<std::string> names =
      persist::ListDirectory(dir.Sub("state")).ValueOrDie();
  std::string snapshot;
  for (const std::string& name : names) {
    if (name.rfind("snapshot-", 0) == 0) snapshot = name;
  }
  ASSERT_FALSE(snapshot.empty());
  const std::string bytes =
      persist::ReadFileFully(dir.Sub("state/" + snapshot)).ValueOrDie();

  // magic(8) version(4), then the meta section: id(4) len(8) payload crc(4).
  // Payload: epoch u64, table and rule counts u32, mode u8, accuracy
  // threshold double, partitions u64, then the two pruning bytes.
  constexpr size_t kLenAt = 8 + 4 + 4;
  constexpr size_t kPayloadAt = kLenAt + 8;
  constexpr size_t kPruningAt = kPayloadAt + 8 + 4 + 4 + 1 + 8 + 8;
  uint64_t len = 0;
  std::memcpy(&len, bytes.data() + kLenAt, sizeof(len));
  // Each rejection names its field: the statistics byte, then theta's.
  const std::pair<size_t, const char*> kFields[] = {
      {kPruningAt, "statistics"}, {kPruningAt + 1, "theta"}};
  for (const auto& [at, field] : kFields) {
    std::string mangled = bytes;
    ASSERT_EQ(mangled[at], 1) << field;
    mangled[at] = 0;
    BinaryWriter crc;
    crc.WriteU32(Crc32(mangled.data() + kPayloadAt, len));
    mangled.replace(kPayloadAt + len, 4, crc.buffer());
    TempDir copy;
    for (const std::string& name : names) {
      testutil::CopyFileBytes(dir.Sub("state/" + name), copy.Sub(name));
    }
    ASSERT_TRUE(
        persist::WriteFileAtomic(copy.Sub(snapshot), mangled).ok());

    Database rec_db;
    Result<std::unique_ptr<DaisyEngine>> opened =
        DaisyEngine::Open(copy.path(), &rec_db);
    ASSERT_FALSE(opened.ok()) << field;
    EXPECT_EQ(opened.status().code(), StatusCode::kParseError) << field;
    const std::string message = opened.status().message();
    EXPECT_NE(message.find(std::string(field) + "_pruning"), std::string::npos)
        << message;
  }
}

// ------------------------------------------------- v3 shared sections --

// The sections of a snapshot file in order, as (id, payload).
std::vector<std::pair<uint32_t, std::string>> SplitSections(
    const std::string& bytes) {
  std::vector<std::pair<uint32_t, std::string>> sections;
  size_t off = sizeof(persist::kSnapshotMagic) + 4;
  while (off < bytes.size()) {
    BinaryReader frame(bytes.data() + off, bytes.size() - off);
    const uint32_t id = frame.ReadU32().ValueOrDie();
    const uint64_t len = frame.ReadU64().ValueOrDie();
    sections.emplace_back(id, bytes.substr(off + 12, len));
    off += 12 + len + 4;
  }
  return sections;
}

// Reframes `sections` behind the header of `bytes`, each with a valid CRC:
// a payload edit then reaches the decoder instead of the CRC check.
std::string JoinSections(
    const std::string& bytes,
    const std::vector<std::pair<uint32_t, std::string>>& sections) {
  std::string out = bytes.substr(0, sizeof(persist::kSnapshotMagic) + 4);
  for (const auto& [id, payload] : sections) {
    BinaryWriter w;
    w.WriteU32(id);
    w.WriteU64(payload.size());
    out += w.buffer();
    out += payload;
    BinaryWriter crc;
    crc.WriteU32(Crc32(payload.data(), payload.size()));
    out += crc.buffer();
  }
  return out;
}

// A general DC's coverage is kept once, by its detector; the op slot of
// its rule state is written from the detector's bits. A snapshot whose
// two bitmaps disagree is refused with a typed error instead of loading
// one of them silently.
TEST(EnginePersistence, DcOpSlotMustMatchDetectorCoverage) {
  TempDir dir;
  Database db;
  ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
  DaisyEngine engine(&db, EmpRules());
  ASSERT_TRUE(engine.Prepare().ok());
  ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE tax > 0.5").ok());
  ASSERT_TRUE(engine.EnablePersistence(dir.Sub("state")).ok());
  const std::string snapshot = "snapshot-000001.dsnap";
  const std::string bytes =
      persist::ReadFileFully(dir.Sub("state/" + snapshot)).ValueOrDie();

  // psi's rule state opens with its name, then the op-slot bitmap: the bit
  // count (one per row) and the packed bytes behind their length.
  const size_t rows = db.GetTable("emp").ValueOrDie()->num_rows();
  BinaryWriter head;
  head.WriteString("psi");
  head.WriteU64(rows);
  head.WriteU32(static_cast<uint32_t>((rows + 7) / 8));
  std::vector<std::pair<uint32_t, std::string>> sections =
      SplitSections(bytes);
  bool flipped = false;
  for (auto& [id, payload] : sections) {
    if (id != persist::kSectionRuleStates) continue;
    const size_t at = payload.find(head.buffer());
    ASSERT_NE(at, std::string::npos);
    payload[at + head.buffer().size()] ^= 1;  // row 0's op bit only
    flipped = true;
  }
  ASSERT_TRUE(flipped);

  TempDir copy;
  const std::vector<std::string> names =
      persist::ListDirectory(dir.Sub("state")).ValueOrDie();
  for (const std::string& name : names) {
    testutil::CopyFileBytes(dir.Sub("state/" + name), copy.Sub(name));
  }
  ASSERT_TRUE(persist::WriteFileAtomic(copy.Sub(snapshot),
                                       JoinSections(bytes, sections))
                  .ok());
  Database rec_db;
  Result<std::unique_ptr<DaisyEngine>> opened =
      DaisyEngine::Open(copy.path(), &rec_db);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("psi"), std::string::npos)
      << opened.status().message();

  // The snapshot as written loads.
  Database ok_db;
  EXPECT_TRUE(DaisyEngine::Open(dir.Sub("state"), &ok_db).ok());
}

// Asserts that handles equal in `a` are equal in `b` and vice versa,
// position by position, and returns the number of distinct non-null ones.
template <typename Ptr>
size_t ExpectSameSharing(const std::vector<Ptr>& a, const std::vector<Ptr>& b,
                         const char* what) {
  EXPECT_EQ(a.size(), b.size()) << what;
  std::map<const void*, const void*> forward;
  std::map<const void*, const void*> backward;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    EXPECT_EQ(a[i] == nullptr, b[i] == nullptr) << what << " " << i;
    if (a[i] == nullptr || b[i] == nullptr) continue;
    EXPECT_EQ(forward.emplace(a[i].get(), b[i].get()).first->second,
              b[i].get())
        << what << " " << i;
    EXPECT_EQ(backward.emplace(b[i].get(), a[i].get()).first->second,
              a[i].get())
        << what << " " << i;
  }
  return forward.size();
}

// The emp engine after a full clean: FD and DC records, shared FD sets.
struct CleanedEmp {
  Database db;
  std::unique_ptr<DaisyEngine> engine;
  CleanedEmp() {
    EXPECT_TRUE(db.AddTable(SeedEmpTable()).ok());
    engine = std::make_unique<DaisyEngine>(&db, EmpRules());
    EXPECT_TRUE(engine->Prepare().ok());
    EXPECT_TRUE(engine->CleanAllRemaining().ok());
  }
  const Table& table() { return *db.GetTable("emp").ValueOrDie(); }
  std::string Snapshot(TempDir* dir) {
    EXPECT_TRUE(engine->EnablePersistence(dir->Sub("state")).ok());
    return persist::ReadFileFully(dir->Sub("state/snapshot-000001.dsnap"))
        .ValueOrDie();
  }
};

TEST(SnapshotV3, RoundTripKeepsCellsRecordsAndSharing) {
  CleanedEmp emp;
  TempDir dir;
  const std::string bytes = emp.Snapshot(&dir);
  Result<persist::EngineSnapshot> snap =
      persist::ReadSnapshot(dir.Sub("state/snapshot-000001.dsnap"));
  ASSERT_TRUE(snap.ok()) << snap.status();
  ASSERT_EQ(snap.value().tables.size(), 1u);
  const Table& back = snap.value().tables[0];
  ExpectTablesEqual(emp.table(), back);

  std::vector<CandidateSetPtr> sets_a;
  std::vector<CandidateSetPtr> sets_b;
  for (RowId r = 0; r < back.num_rows(); ++r) {
    for (size_t c = 0; c < back.num_columns(); ++c) {
      sets_a.push_back(emp.table().cell(r, c).candidate_set());
      sets_b.push_back(back.cell(r, c).candidate_set());
    }
  }
  const size_t prob_cells = emp.table().CountProbabilisticCells();
  const size_t distinct_sets = ExpectSameSharing(sets_a, sets_b, "set");
  EXPECT_LT(distinct_sets, prob_cells);  // the FD group shares its set

  const ProvenanceStore& store = *emp.engine->provenance("emp");
  ProvenanceStore decoded;
  decoded.RestoreRecords(snap.value().provenance.at("emp"));
  testutil::ExpectProvenanceEqual(&store, &decoded, "emp");
  std::vector<SharedSources> sources_a;
  std::vector<SharedSources> sources_b;
  std::vector<SharedRows> rows_a;
  std::vector<SharedRows> rows_b;
  for (const auto* records : {&store.records(), &decoded.records()}) {
    const bool first = records == &store.records();
    for (const auto& [key, recs] : *records) {
      for (const RepairRecord& rec : recs) {
        (first ? sources_a : sources_b).push_back(rec.sources);
        (first ? rows_a : rows_b).push_back(rec.conflicting_rows);
      }
    }
  }
  EXPECT_LT(ExpectSameSharing(sources_a, sources_b, "sources"),
            sources_a.size());
  EXPECT_LT(ExpectSameSharing(rows_a, rows_b, "rows"), rows_a.size());
}

TEST(SnapshotV3, TruncatedSectionsAreParseErrors) {
  CleanedEmp emp;
  TempDir dir;
  const std::string bytes = emp.Snapshot(&dir);
  const auto sections = SplitSections(bytes);
  const std::string path = dir.Sub("cut.dsnap");
  size_t checked = 0;
  for (size_t i = 0; i < sections.size(); ++i) {
    if (sections[i].first != persist::kSectionTables &&
        sections[i].first != persist::kSectionProvenance) {
      continue;
    }
    // Every strict prefix of the payload, under a valid CRC.
    const std::string& payload = sections[i].second;
    for (size_t len = 0; len < payload.size(); ++len) {
      auto cut = sections;
      cut[i].second = payload.substr(0, len);
      ASSERT_TRUE(
          persist::WriteFileAtomic(path, JoinSections(bytes, cut)).ok());
      Result<persist::EngineSnapshot> snap = persist::ReadSnapshot(path);
      ASSERT_FALSE(snap.ok()) << "section " << sections[i].first << " cut to "
                              << len;
      EXPECT_EQ(snap.status().code(), StatusCode::kParseError)
          << snap.status();
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(SnapshotV3, OutOfRangeIndexesAndOverrunningCountsAreParseErrors) {
  CleanedEmp emp;
  TempDir dir;
  const std::string bytes = emp.Snapshot(&dir);
  const auto sections = SplitSections(bytes);
  const std::string path = dir.Sub("bad.dsnap");
  // Overwrites the u32 or u64 at `at` (from the end when negative) of
  // section `id`, and expects a ParseError naming `needle`.
  auto expect_rejected = [&](uint32_t id, long at, uint64_t value,
                             size_t width, const std::string& needle) {
    auto edited = sections;
    for (auto& [sid, payload] : edited) {
      if (sid != id) continue;
      const size_t pos = at < 0 ? payload.size() + at : static_cast<size_t>(at);
      BinaryWriter w;
      if (width == 4) {
        w.WriteU32(static_cast<uint32_t>(value));
      } else {
        w.WriteU64(value);
      }
      payload.replace(pos, width, w.buffer());
    }
    ASSERT_TRUE(
        persist::WriteFileAtomic(path, JoinSections(bytes, edited)).ok());
    Result<persist::EngineSnapshot> snap = persist::ReadSnapshot(path);
    ASSERT_FALSE(snap.ok()) << needle;
    EXPECT_EQ(snap.status().code(), StatusCode::kParseError) << needle;
    EXPECT_NE(snap.status().message().find(needle), std::string::npos)
        << snap.status().message();
  };
  // The tables section ends with the last probabilistic cell's set index;
  // the provenance section with the last record's two indexes.
  expect_rejected(persist::kSectionTables, -4, 1u << 20, 4,
                  "candidate set index");
  expect_rejected(persist::kSectionProvenance, -8, 1u << 20, 4,
                  "source list index");
  expect_rejected(persist::kSectionProvenance, -4, 1u << 20, 4,
                  "row set index");
  // Provenance payload: u32 table count, the table name, then the u64
  // source-list count.
  expect_rejected(persist::kSectionProvenance, 4 + 4 + 3, uint64_t{1} << 40,
                  8, "exceeds");
}

// -------------------------------------------------------- format golden --

// Each fixture pins one on-disk format: golden_vN holds a snapshot of
// version N plus its WAL, produced by the generator below at a commit
// whose kSnapshotVersion was N (DAISY_REGEN_GOLDEN=1 rewrites the current
// version's fixture only). Every fixture must keep loading — and keep
// meaning the same engine state — for as long as its version stays inside
// [kMinSnapshotVersion, kSnapshotVersion]. A v1 snapshot predates the
// optimizer flag, so it loads with optimizer = true (the engine default);
// v1 and v2 inline every candidate set, source list and row set.
// A failure here means a payload encoding changed without a version bump.
void ExpectGoldenFixtureLoads(uint32_t version) {
  const std::string fixture = std::string(DAISY_TESTDATA_DIR) +
                              "/golden_v" + std::to_string(version);
  if (const char* regen = std::getenv("DAISY_REGEN_GOLDEN");
      regen != nullptr && std::string(regen) == "1" &&
      version == persist::kSnapshotVersion) {
    ASSERT_TRUE(persist::EnsureDirectory(DAISY_TESTDATA_DIR).ok());
    TempDir::RemoveRecursively(fixture);
    Database db;
    ASSERT_TRUE(db.AddTable(SeedEmpTable()).ok());
    DaisyEngine engine(&db, EmpRules());
    ASSERT_TRUE(engine.Prepare().ok());
    ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE zip == 0").ok());
    ASSERT_TRUE(engine.EnablePersistence(fixture).ok());
    ASSERT_TRUE(engine
                    .AppendRows("emp", {{Value(0), Value("LA"),
                                         Value(99000.0), Value(0.495)}})
                    .ok());
    ASSERT_TRUE(engine.Query("SELECT * FROM emp WHERE salary > 2400").ok());
    ASSERT_TRUE(engine.DeleteRows("emp", {7}).ok());
    GTEST_SKIP() << "regenerated golden fixture at " << fixture;
  }
  const std::string snapshot =
      persist::ReadFileFully(fixture + "/snapshot-000001.dsnap").ValueOrDie();
  BinaryReader header(snapshot.data() + sizeof(persist::kSnapshotMagic), 4);
  ASSERT_EQ(header.ReadU32().ValueOrDie(), version);

  Database ref_db;
  ASSERT_TRUE(ref_db.AddTable(SeedEmpTable()).ok());
  DaisyEngine reference(&ref_db, EmpRules());
  ASSERT_TRUE(reference.Prepare().ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE zip == 0").ok());
  ASSERT_TRUE(reference
                  .AppendRows("emp", {{Value(0), Value("LA"), Value(99000.0),
                                       Value(0.495)}})
                  .ok());
  ASSERT_TRUE(reference.Query("SELECT * FROM emp WHERE salary > 2400").ok());
  ASSERT_TRUE(reference.DeleteRows("emp", {7}).ok());

  // Open a scratch copy, never the source-tree fixture itself — recovery
  // reopens the WAL for appending and must not dirty the checkout.
  TempDir scratch;
  ASSERT_TRUE(persist::EnsureDirectory(scratch.Sub("copy")).ok());
  Result<std::vector<std::string>> names = persist::ListDirectory(fixture);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : names.value()) {
    testutil::CopyFileBytes(fixture + "/" + name, scratch.Sub("copy/" + name));
  }
  Database rec_db2;
  Result<std::unique_ptr<DaisyEngine>> recovered2 =
      DaisyEngine::Open(scratch.Sub("copy"), &rec_db2);
  ASSERT_TRUE(recovered2.ok()) << recovered2.status();
  ExpectEnginesEquivalent(recovered2.value().get(), &reference,
                          kProbeQueries);
}

TEST(GoldenV1, FixtureKeepsLoading) { ExpectGoldenFixtureLoads(1); }

TEST(GoldenV2, FixtureKeepsLoading) { ExpectGoldenFixtureLoads(2); }

TEST(GoldenV3, FixtureKeepsLoading) { ExpectGoldenFixtureLoads(3); }

}  // namespace
}  // namespace daisy
