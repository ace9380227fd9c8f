// On-disk format constants of the persistence layer.
//
// A persistence directory holds one snapshot plus one write-ahead log per
// generation, named by a six-digit sequence number:
//
//   snapshot-000042.dsnap   full engine state as of some epoch
//   wal-000042.dwal         every durable operation committed since
//
// Checkpoint() writes snapshot-(N+1) (tmp file + rename, both fsync'd),
// starts wal-(N+1), and only then deletes generation N — so at every
// instant at least one complete (snapshot, wal) pair exists on disk.
//
// Snapshot layout:
//
//   [8]  magic "DSYSNAP\x01"
//   [4]  format version (u32 LE)
//   then a sequence of sections, each:
//   [4]  section id (u32 LE)       [8] payload length (u64 LE)
//   [.]  payload                   [4] CRC-32 of the payload
//   terminated by section id kSectionEnd with an empty payload.
//
// Every payload is encoded with common/binary_io.h (bounds-checked on
// read). A reader rejects the file on bad magic, unknown version, short
// section, or CRC mismatch — Open() then falls back to the previous
// generation if one survives.
//
// Since v3 shared objects are interned by identity: the table section
// writes each distinct candidate set once,
//
//   [8]  set count, then per set: [8] candidate count, the candidates
//   [8]  probabilistic cell count, then per cell:
//        [8] row  [4] column  [4] set index
//
// and the provenance section does the same per table for source lists and
// conflicting-row sets (a null handle is an empty entry):
//
//   [8]  source-list count, then per list: [8] count, the sources
//   [8]  row-set count, then per set: [8] count, the u64 row ids
//   [8]  cell count, then per cell: [8] row  [4] column  [4] record count,
//        per record: rule string, [4] pair tag, [4] source-list index,
//        [4] row-set index
//
// The decoder rebuilds the sharing: cells or records naming one index get
// one handle. An index past its table, or a count larger than the bytes
// left could hold, is a ParseError.
//
// WAL layout:
//
//   [8]  magic "DSYWAL\x01\x00"
//   then a sequence of records, each:
//   [4]  payload length (u32 LE)   [4] CRC-32 of the payload
//   [.]  payload (first byte = record type)
//
// Records are appended with a single write() and fsync'd before the
// mutating call returns, so a record is either durable in full or absent.
// On recovery the reader stops at the first incomplete or CRC-corrupt
// record (a torn tail from a crash mid-append), truncates it away, and
// never applies half a record.

#ifndef DAISY_PERSIST_FORMAT_H_
#define DAISY_PERSIST_FORMAT_H_

#include <cstdint>

namespace daisy {
namespace persist {

inline constexpr char kSnapshotMagic[8] = {'D', 'S', 'Y', 'S',
                                           'N', 'A', 'P', '\x01'};
inline constexpr char kWalMagic[8] = {'D', 'S', 'Y', 'W',
                                      'A', 'L', '\x01', '\x00'};

/// Bumped on any incompatible change to the section payload encodings.
/// Checked-in fixtures of every older version (tests/testdata/golden_v*)
/// pin backward compatibility in the test suite.
/// v2 appends the optimizer flag to the meta section; readers accept every
/// version in [kMinSnapshotVersion, kSnapshotVersion] and default fields a
/// version predates (v1 snapshots load with optimizer = true, the engine
/// default). The meta section of every version holds two bytes that once
/// recorded the statistics- and theta-join pruning switches; pruning is no
/// longer optional, so both are written as 1 and a reader rejects any other
/// value with a ParseError naming the field. v3 writes each distinct
/// candidate set, source list and conflicting-row set once (layout above);
/// v1 and v2 inline them per cell and per record. The WAL's
/// kWalImportProvenance payload keeps the per-record encoding: the WAL has
/// no version field.
inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr uint32_t kMinSnapshotVersion = 1;

// Section ids. New sections get fresh ids; ids are never reused.
inline constexpr uint32_t kSectionEnd = 0;
inline constexpr uint32_t kSectionMeta = 1;        ///< epoch, counts
inline constexpr uint32_t kSectionTables = 2;      ///< columnar table data
inline constexpr uint32_t kSectionConstraints = 3; ///< bound rule definitions
inline constexpr uint32_t kSectionRuleStates = 4;  ///< per-rule cleaning state
inline constexpr uint32_t kSectionProvenance = 5;  ///< per-table repair records

// WAL record types (first payload byte).
inline constexpr uint8_t kWalAppendRows = 1;
inline constexpr uint8_t kWalDeleteRows = 2;
inline constexpr uint8_t kWalQuery = 3;        ///< a writer query (repairs)
inline constexpr uint8_t kWalCleanAll = 4;     ///< CleanAllRemaining marker
inline constexpr uint8_t kWalImportProvenance = 5;

}  // namespace persist
}  // namespace daisy

#endif  // DAISY_PERSIST_FORMAT_H_
