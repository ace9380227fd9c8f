// Recovery bench: cold re-clean vs warm restore.
//
// A 50k-row salary/tax relation under the order DC
// ¬(t1.salary < t2.salary ∧ t1.tax > t2.tax) plus an FD (zip -> city) is
// fully cleaned once and checkpointed. A process restart then has two
// options: the pre-persistence engine re-detects and re-repairs everything
// from scratch (cold), while DaisyEngine::Open restores the snapshot and
// resumes with detector coverage and repairs already warm. The bench
// reports both wall times plus the snapshot write cost and size, asserts
// the warm
// engine's cleaning state is identical to the cold one's (same repaired
// cells, rules fully checked, zero detection work on the next query), and
// emits BENCH_recovery.json. `snapshot_bytes` and `repaired_cells` are
// deterministic: the snapshot encodes each shared candidate set, source
// list and conflicting-row set once, so its size tracks the distinct
// repair distributions, not the repaired cells.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "persist/io_util.h"

using namespace daisy;
using namespace daisy::bench;

namespace {

constexpr size_t kRows = 50000;
constexpr double kErrorFraction = 0.001;

Schema EmpSchema() {
  return Schema({{"zip", ValueType::kInt},
                 {"city", ValueType::kString},
                 {"salary", ValueType::kDouble},
                 {"tax", ValueType::kDouble}});
}

Table BaseTable(uint64_t seed) {
  Rng rng(seed);
  Table t("emp", EmpSchema());
  t.Reserve(kRows);
  static const char* kCities[] = {"LA", "SF", "NY", "SEA"};
  for (size_t i = 0; i < kRows; ++i) {
    // Fine-grained zip domain: FD groups stay ~5 rows, so the dirty part
    // is ~kErrorFraction of the relation (not every group).
    const int64_t zip = rng.UniformInt(0, static_cast<int64_t>(kRows) / 5);
    const char* city = kCities[(rng.Bernoulli(0.001) ? zip + 1 : zip) % 4];
    const double salary = rng.UniformDouble(1000, 100000);
    double tax = salary / 200000.0;
    if (rng.Bernoulli(kErrorFraction)) tax += rng.UniformDouble(0.1, 0.5);
    CheckOk(t.AppendRow({Value(zip), Value(city), Value(salary), Value(tax)}),
            "append row");
  }
  return t;
}

ConstraintSet Rules() {
  ConstraintSet rules;
  const Schema schema = EmpSchema();
  CheckOk(rules.AddFromText("phi: FD zip -> city", "emp", schema), "phi");
  CheckOk(rules.AddFromText(
              "psi: !(t1.salary < t2.salary & t1.tax > t2.tax)", "emp",
              schema),
          "psi");
  return rules;
}

size_t RepairedCells(const DaisyEngine& engine) {
  const ProvenanceStore* prov =
      const_cast<DaisyEngine&>(engine).provenance("emp");
  return prov == nullptr ? 0 : prov->NumRepairedCells();
}

void AssertSameCleanState(DaisyEngine* warm, DaisyEngine* cold) {
  const Table* wt = warm->database()->GetTable("emp").value();
  const Table* ct = cold->database()->GetTable("emp").value();
  if (wt->CountProbabilisticCells() != ct->CountProbabilisticCells() ||
      wt->TotalCandidateWidth() != ct->TotalCandidateWidth() ||
      RepairedCells(*warm) != RepairedCells(*cold)) {
    std::fprintf(stderr,
                 "[bench] warm/cold cleaning state diverged: cells %zu vs "
                 "%zu, width %zu vs %zu, repaired %zu vs %zu\n",
                 wt->CountProbabilisticCells(), ct->CountProbabilisticCells(),
                 wt->TotalCandidateWidth(), ct->TotalCandidateWidth(),
                 RepairedCells(*warm), RepairedCells(*cold));
    std::exit(1);
  }
  for (RowId r = 0; r < wt->num_rows(); ++r) {
    for (size_t c = 0; c < wt->num_columns(); ++c) {
      if (!(wt->cell(r, c) == ct->cell(r, c))) {
        std::fprintf(stderr, "[bench] cell (%zu, %zu) diverged\n", r, c);
        std::exit(1);
      }
    }
  }
  for (const char* rule : {"phi", "psi"}) {
    if (!warm->RuleFullyChecked(rule).ValueOrDie() ||
        !cold->RuleFullyChecked(rule).ValueOrDie()) {
      std::fprintf(stderr, "[bench] rule %s not fully checked\n", rule);
      std::exit(1);
    }
  }
}

}  // namespace

int main() {
  WarmupHeap();
  BenchJsonWriter json("recovery");
  char tmpl[] = "/tmp/daisy_bench_recovery_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "[bench] mkdtemp failed\n");
    return 1;
  }
  const std::string state_dir = std::string(dir) + "/state";

  std::printf("# Recovery: cold re-clean vs warm restore (%zu rows)\n",
              kRows);

  // Initial session: clean everything, then persist.
  Database db;
  CheckOk(db.AddTable(BaseTable(7)), "add table");
  DaisyEngine engine(&db, Rules());
  CheckOk(engine.Prepare(), "prepare");
  Timer clean_timer;
  CheckOk(engine.CleanAllRemaining(), "initial clean");
  const double initial_clean_s = clean_timer.ElapsedSeconds();
  Timer snapshot_timer;
  CheckOk(engine.EnablePersistence(state_dir), "enable persistence");
  const double snapshot_s = snapshot_timer.ElapsedSeconds();
  const std::string snapshot_path = state_dir + "/snapshot-000001.dsnap";
  struct stat snapshot_stat;
  if (::stat(snapshot_path.c_str(), &snapshot_stat) != 0) {
    std::fprintf(stderr, "[bench] no snapshot at %s\n", snapshot_path.c_str());
    return 1;
  }
  const double snapshot_bytes = static_cast<double>(snapshot_stat.st_size);

  // Cold restart: what a restarted process paid before this layer —
  // rebuild from raw data and re-clean everything.
  Database cold_db;
  CheckOk(cold_db.AddTable(BaseTable(7)), "cold add table");
  DaisyEngine cold(&cold_db, Rules());
  Timer cold_timer;
  CheckOk(cold.Prepare(), "cold prepare");
  CheckOk(cold.CleanAllRemaining(), "cold re-clean");
  const double cold_s = cold_timer.ElapsedSeconds();

  // Warm restart: snapshot + WAL restore.
  Database warm_db;
  Timer warm_timer;
  auto warm = UnwrapOrDie(DaisyEngine::Open(state_dir, &warm_db), "open");
  const double warm_s = warm_timer.ElapsedSeconds();

  AssertSameCleanState(warm.get(), &cold);

  // The next query on the warm engine must do zero detection work.
  QueryReport report = UnwrapOrDie(
      warm->Query("SELECT * FROM emp WHERE salary > 50000"), "warm query");
  if (report.detect_ops != 0 || report.errors_fixed != 0) {
    std::fprintf(stderr, "[bench] warm engine re-detected (%zu ops)\n",
                 report.detect_ops);
    return 1;
  }

  std::printf("  %-18s %10.4f s\n", "initial_clean", initial_clean_s);
  std::printf("  %-18s %10.4f s\n", "snapshot_write", snapshot_s);
  std::printf("  %-18s %10.0f B\n", "snapshot_bytes", snapshot_bytes);
  std::printf("  %-18s %10.4f s\n", "cold_reclean", cold_s);
  std::printf("  %-18s %10.4f s\n", "warm_restore", warm_s);
  std::printf("  %-18s %9.1fx\n", "speedup",
              warm_s > 0 ? cold_s / warm_s : 0.0);

  BenchResult result;
  result.name = "restart_50k";
  result.wall_ms = warm_s * 1e3;
  result.counters = {
      {"initial_clean_ms", initial_clean_s * 1e3},
      {"snapshot_write_ms", snapshot_s * 1e3},
      {"snapshot_bytes", snapshot_bytes},
      {"cold_reclean_ms", cold_s * 1e3},
      {"warm_restore_ms", warm_s * 1e3},
      {"speedup", warm_s > 0 ? cold_s / warm_s : 0.0},
      {"repaired_cells", static_cast<double>(RepairedCells(*warm))},
  };
  result.config = {{"rows", std::to_string(kRows)},
                   {"error_fraction", std::to_string(kErrorFraction)},
                   {"rules", "phi(FD zip->city), psi(salary/tax DC)"}};
  json.Add(std::move(result));
  json.Finish();

  // Best-effort temp-dir cleanup; a leftover file cannot affect the
  // measurements already written out.
  (void)daisy::persist::RemoveFileIfExists(snapshot_path);
  (void)daisy::persist::RemoveFileIfExists(state_dir + "/wal-000001.dwal");
  ::rmdir(state_dir.c_str());
  ::rmdir(dir);
  return 0;
}
