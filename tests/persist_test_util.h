// Shared helpers for the persistence test suites: temp-dir lifecycle,
// file copying, and deep engine-equivalence assertions (tables, provenance,
// probe query outputs/counters, EXPLAIN text, per-rule coverage).

#ifndef DAISY_TESTS_PERSIST_TEST_UTIL_H_
#define DAISY_TESTS_PERSIST_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "clean/daisy_engine.h"
#include "common/metrics.h"
#include "persist/io_util.h"
#include "storage/table.h"

namespace daisy {
namespace testutil {

/// A fresh directory under /tmp, recursively removed on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/daisy_persist_XXXXXX";
    const char* dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr) << "mkdtemp failed: " << std::strerror(errno);
    path_ = dir == nullptr ? "" : dir;
  }
  ~TempDir() { RemoveRecursively(path_); }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

  static void RemoveRecursively(const std::string& dir) {
    if (dir.empty()) return;
    Result<std::vector<std::string>> entries = persist::ListDirectory(dir);
    if (entries.ok()) {
      for (const std::string& name : entries.value()) {
        const std::string child = dir + "/" + name;
        struct stat st;
        if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
          RemoveRecursively(child);
        } else {
          ::unlink(child.c_str());
        }
      }
    }
    ::rmdir(dir.c_str());
  }

 private:
  std::string path_;
};

/// The process registry's WAL commit counters
/// (`daisy_persist_wal_{records,batches,fsyncs}_total`). Tests take Now()
/// before a workload and subtract it afterwards; every WalWriter in the
/// process feeds the same counters.
struct WalCounts {
  uint64_t records = 0;
  uint64_t batches = 0;
  uint64_t fsyncs = 0;

  /// Reads through a snapshot, so a counter not yet registered reads 0
  /// and keeps the help text its first real registration gives it.
  static WalCounts Now() {
    const MetricsRegistry::Snapshot snap =
        MetricsRegistry::Global().TakeSnapshot();
    auto read = [&snap](const char* name) -> uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    WalCounts c;
    c.records = read("daisy_persist_wal_records_total");
    c.batches = read("daisy_persist_wal_batches_total");
    c.fsyncs = read("daisy_persist_wal_fsyncs_total");
    return c;
  }

  WalCounts operator-(const WalCounts& base) const {
    WalCounts d;
    d.records = records - base.records;
    d.batches = batches - base.batches;
    d.fsyncs = fsyncs - base.fsyncs;
    return d;
  }
};

inline void CopyFileBytes(const std::string& from, const std::string& to) {
  Result<std::string> bytes = persist::ReadFileFully(from);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  FILE* f = std::fopen(to.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.value().empty()) {
    ASSERT_EQ(std::fwrite(bytes.value().data(), 1, bytes.value().size(), f),
              bytes.value().size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// Exact value identity: type class AND content (doubles bitwise, so the
/// check is stricter than Value::Equals and total on NaN).
inline bool ValueExactEq(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.as_int() == b.as_int();
    case ValueType::kDouble: {
      uint64_t ab, bb;
      const double ad = a.as_double_raw(), bd = b.as_double_raw();
      std::memcpy(&ab, &ad, sizeof(ab));
      std::memcpy(&bb, &bd, sizeof(bb));
      return ab == bb;
    }
    case ValueType::kString:
      return a.as_string() == b.as_string();
  }
  return false;
}

inline void ExpectCellsEqual(const Cell& a, const Cell& b,
                             const std::string& where) {
  EXPECT_TRUE(ValueExactEq(a.original(), b.original()))
      << where << ": original " << a.original() << " vs " << b.original();
  ASSERT_EQ(a.candidates().size(), b.candidates().size()) << where;
  for (size_t i = 0; i < a.candidates().size(); ++i) {
    const Candidate& ca = a.candidates()[i];
    const Candidate& cb = b.candidates()[i];
    EXPECT_TRUE(ValueExactEq(ca.value, cb.value)) << where << " cand " << i;
    EXPECT_EQ(ca.prob, cb.prob) << where << " cand " << i;
    EXPECT_EQ(ca.pair_id, cb.pair_id) << where << " cand " << i;
    EXPECT_EQ(ca.kind, cb.kind) << where << " cand " << i;
  }
}

inline void ExpectTablesEqual(const Table& a, const Table& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_TRUE(a.schema().Equals(b.schema())) << a.name();
  ASSERT_EQ(a.num_rows(), b.num_rows()) << a.name();
  EXPECT_EQ(a.num_live_rows(), b.num_live_rows()) << a.name();
  EXPECT_EQ(a.deleted_rows_log(), b.deleted_rows_log()) << a.name();
  for (RowId r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.is_live(r), b.is_live(r)) << a.name() << " row " << r;
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ExpectCellsEqual(a.cell(r, c), b.cell(r, c),
                       a.name() + "[" + std::to_string(r) + "," +
                           std::to_string(c) + "]");
    }
  }
}

inline void ExpectProvenanceEqual(const ProvenanceStore* a,
                                  const ProvenanceStore* b,
                                  const std::string& table) {
  const bool a_empty = a == nullptr || a->records().empty();
  const bool b_empty = b == nullptr || b->records().empty();
  if (a_empty || b_empty) {
    EXPECT_EQ(a_empty, b_empty) << "provenance presence differs for " << table;
    return;
  }
  ASSERT_EQ(a->records().size(), b->records().size()) << table;
  auto ita = a->records().begin();
  auto itb = b->records().begin();
  for (; ita != a->records().end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first) << table;
    ASSERT_EQ(ita->second.size(), itb->second.size()) << table;
    for (size_t i = 0; i < ita->second.size(); ++i) {
      const RepairRecord& ra = ita->second[i];
      const RepairRecord& rb = itb->second[i];
      EXPECT_EQ(ra.rule, rb.rule);
      EXPECT_EQ(ra.pair_tag, rb.pair_tag);
      EXPECT_EQ(ra.conflicting(), rb.conflicting());
      const std::vector<CandidateSource>& sa = ra.source_list();
      const std::vector<CandidateSource>& sb = rb.source_list();
      ASSERT_EQ(sa.size(), sb.size());
      for (size_t s = 0; s < sa.size(); ++s) {
        EXPECT_TRUE(ValueExactEq(sa[s].value, sb[s].value));
        EXPECT_EQ(sa[s].count, sb[s].count);
        EXPECT_EQ(sa[s].kind, sb[s].kind);
      }
    }
  }
}

inline void ExpectReportsEqual(const QueryReport& a, const QueryReport& b,
                               const std::string& sql) {
  ExpectTablesEqual(a.output.result, b.output.result);
  EXPECT_EQ(a.extra_tuples, b.extra_tuples) << sql;
  EXPECT_EQ(a.errors_fixed, b.errors_fixed) << sql;
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned) << sql;
  EXPECT_EQ(a.detect_ops, b.detect_ops) << sql;
  EXPECT_EQ(a.rules_applied, b.rules_applied) << sql;
  EXPECT_EQ(a.rules_pruned, b.rules_pruned) << sql;
  EXPECT_EQ(a.delta_rows_checked, b.delta_rows_checked) << sql;
  EXPECT_EQ(a.switched_to_full, b.switched_to_full) << sql;
  EXPECT_EQ(a.used_dc_full_clean, b.used_dc_full_clean) << sql;
  EXPECT_EQ(a.min_estimated_accuracy, b.min_estimated_accuracy) << sql;
  EXPECT_EQ(a.epoch, b.epoch) << sql;
  EXPECT_EQ(a.read_path, b.read_path) << sql;
}

/// Full observable-equivalence check. `probe_queries` are executed on both
/// engines (in lockstep, so their own side effects stay symmetric) and
/// every output, counter, and EXPLAIN rendering must match; then the final
/// tables, per-rule coverage, and provenance stores are compared.
inline void ExpectEnginesEquivalent(
    DaisyEngine* recovered, DaisyEngine* reference,
    const std::vector<std::string>& probe_queries) {
  for (const std::string& sql : probe_queries) {
    Result<std::string> ea = recovered->Explain(sql);
    Result<std::string> eb = reference->Explain(sql);
    ASSERT_EQ(ea.ok(), eb.ok()) << sql;
    if (ea.ok()) EXPECT_EQ(ea.value(), eb.value()) << sql;
    Result<QueryReport> ra = recovered->Query(sql);
    Result<QueryReport> rb = reference->Query(sql);
    ASSERT_EQ(ra.ok(), rb.ok()) << sql << ": " << ra.status() << " vs "
                                << rb.status();
    if (ra.ok()) ExpectReportsEqual(ra.value(), rb.value(), sql);
  }
  for (const DenialConstraint& dc : recovered->constraints().all()) {
    Result<bool> fa = recovered->RuleFullyChecked(dc.name());
    Result<bool> fb = reference->RuleFullyChecked(dc.name());
    ASSERT_TRUE(fa.ok() && fb.ok()) << dc.name();
    EXPECT_EQ(fa.value(), fb.value()) << dc.name();
  }
  const std::vector<std::string> tables = recovered->database()->TableNames();
  EXPECT_EQ(tables, reference->database()->TableNames());
  for (const std::string& name : tables) {
    const Table* ta = recovered->database()->GetTable(name).value();
    const Table* tb = reference->database()->GetTable(name).value();
    ExpectTablesEqual(*ta, *tb);
    ExpectProvenanceEqual(recovered->provenance(name),
                          reference->provenance(name), name);
  }
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_PERSIST_TEST_UTIL_H_
