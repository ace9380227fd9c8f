// Load generator: seeded SSB-shaped dirty tables written as CSV, the two
// FD rules, and each workload's fixed operation sequence. Every random
// choice derives from the run's --seed, so one seed gives one input.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "storage/schema.h"

namespace perfbench {

/// One workload's shape. Sizes were chosen on a 4-core machine so a round
/// of each workload takes a few seconds; see perfbench/README.md.
struct WorkloadSpec {
  std::string name;
  size_t lineorder_rows = 0;
  bool clean_at_setup = false;  ///< warm_serving: CleanAll before measuring
  size_t connections = 1;
  /// Nominal seconds of one round; --seconds / this = rounds per run.
  double nominal_round_s = 1;

  // explore_cold: the Q1 -> Q2 -> Q3 ladder over successive suppkey ranges.
  size_t ladder_queries = 0;
  // warm_serving: closed-loop random Q1/Q2/Q3 mix per connection.
  size_t queries_per_connection = 0;
  size_t warm_range_width = 0;
  // ingest_mixed: open-loop appender, closed-loop analyst, count-triggered
  // checkpoints.
  size_t appends = 0;
  size_t rows_per_append = 0;
  double appends_per_s = 0;
  size_t checkpoint_every = 0;
  size_t analyst_queries = 0;  ///< paced: query j after j*appends/this
};

/// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// Splits one run seed into independent per-purpose seeds.
uint64_t DeriveSeed(uint64_t seed, const std::string& purpose);

/// A table written to CSV, with its schema and the daisyd `--table` spec
/// that loads it.
struct TableFile {
  std::string name;
  std::string path;
  daisy::Schema schema;
  std::string table_spec;  ///< "name:col:type,..."
  size_t rows = 0;
};

/// The inputs of one run, all derived from the seed.
struct Inputs {
  std::vector<TableFile> tables;
  std::vector<std::string> rules;  ///< daisyd `--rule` specs, TEXT@TABLE
  /// Per connection, the queries it sends in order (ingest_mixed: the
  /// analyst's).
  std::vector<std::vector<std::string>> queries;
  /// ingest_mixed: the append batches, in schedule order. Row i of the
  /// whole stream carries linenumber kFirstAppendId + i.
  std::vector<std::vector<std::vector<daisy::Value>>> batches;
};

constexpr int64_t kFirstAppendId = 1000000;

/// Generates the tables into `dir` (which must exist) and the op sequences.
daisy::Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                                 const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
