#include "loadgen.h"

#include <cstdio>

#include "common/csv.h"
#include "common/rng.h"
#include "datagen/ssb.h"

namespace perfbench {

using daisy::Result;
using daisy::Status;
using daisy::Table;
using daisy::Value;
using daisy::ValueType;

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "explore_cold") {
    s.lineorder_rows = 20000;
    s.ladder_queries = 50;
    s.nominal_round_s = 4;
  } else if (name == "warm_serving") {
    s.lineorder_rows = 24000;
    s.clean_at_setup = true;
    s.connections = 4;
    s.queries_per_connection = 40;
    s.warm_range_width = 2;
    s.nominal_round_s = 4;
  } else if (name == "ingest_mixed") {
    s.lineorder_rows = 20000;
    s.connections = 3;
    s.appends = 56;
    s.rows_per_append = 10;
    s.appends_per_s = 3.5;
    s.checkpoint_every = 14;
    s.analyst_queries = 56;
    s.nominal_round_s = 16;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

uint64_t DeriveSeed(uint64_t seed, const std::string& purpose) {
  // FNV-1a over the purpose, folded into the seed, then a splitmix64
  // finalizer so nearby seeds give unrelated streams.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : purpose) h = (h ^ c) * 1099511628211ull;
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (h | 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr int kSuppkeys = 100;

const char* TypeName(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    default:
      return "string";
  }
}

/// Doubles are written with all 17 significant digits so daisyd's strtod
/// reads back the generated bits exactly.
std::string Field(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt:
      return std::to_string(v.as_int());
    case ValueType::kDouble: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_double_raw());
      return buf;
    }
    default:
      return v.ToString();
  }
}

Result<TableFile> WriteTable(const Table& t, const std::string& dir) {
  TableFile f;
  f.name = t.name();
  f.path = dir + "/" + t.name() + ".csv";
  f.schema = t.schema();
  f.rows = t.num_rows();
  f.table_spec = t.name() + ":";
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    if (c > 0) f.table_spec += ",";
    f.table_spec += t.schema().column(c).name + ":" +
                    TypeName(t.schema().column(c).type);
  }
  std::vector<std::vector<std::string>> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      rows[r].push_back(Field(t.cell(r, c).MostProbable()));
    }
  }
  DAISY_RETURN_IF_ERROR(daisy::WriteCsvFile(f.path, rows));
  return f;
}

std::string Q1(int lo, int hi) {
  char sql[512];
  std::snprintf(sql, sizeof(sql),
                "SELECT lineorder.orderkey, lineorder.suppkey, supplier.name "
                "FROM lineorder, supplier "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d",
                lo, hi);
  return sql;
}

std::string Q2(int lo, int hi) {
  char sql[768];
  std::snprintf(sql, sizeof(sql),
                "SELECT date.year, part.brand, SUM(lineorder.revenue) AS rev "
                "FROM lineorder, supplier, part, date "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.partkey = part.partkey AND "
                "lineorder.orderdate = date.datekey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d "
                "GROUP BY date.year, part.brand",
                lo, hi);
  return sql;
}

std::string Q3(int lo, int hi) {
  char sql[1024];
  std::snprintf(sql, sizeof(sql),
                "SELECT date.year, customer.nation, SUM(lineorder.revenue) "
                "AS rev FROM lineorder, supplier, part, date, customer "
                "WHERE lineorder.suppkey = supplier.suppkey AND "
                "lineorder.partkey = part.partkey AND "
                "lineorder.orderdate = date.datekey AND "
                "lineorder.custkey = customer.custkey AND "
                "lineorder.suppkey >= %d AND lineorder.suppkey <= %d "
                "GROUP BY date.year, customer.nation",
                lo, hi);
  return sql;
}

std::string Family(int family, int lo, int hi) {
  return family == 1 ? Q1(lo, hi) : family == 2 ? Q2(lo, hi) : Q3(lo, hi);
}

}  // namespace

Result<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                          const std::string& dir) {
  daisy::SsbConfig config;
  config.num_rows = spec.lineorder_rows;
  config.distinct_orderkeys = spec.lineorder_rows / 20;
  config.distinct_suppkeys = kSuppkeys;
  config.violating_fraction = 0.8;
  config.error_rate = 0.1;
  config.seed = DeriveSeed(seed, "lineorder");
  const Table lineorder = daisy::GenerateLineorder(config).dirty;

  Inputs in;
  const std::vector<Table> tables = {
      lineorder,
      daisy::GenerateSupplier(kSuppkeys * 5, kSuppkeys, 0.5, 0.3,
                              DeriveSeed(seed, "supplier"))
          .dirty,
      daisy::GeneratePart(config.distinct_partkeys, DeriveSeed(seed, "part")),
      daisy::GenerateDate(config.distinct_dates, DeriveSeed(seed, "date")),
      daisy::GenerateCustomer(config.distinct_custkeys,
                              DeriveSeed(seed, "customer"))};
  for (const Table& t : tables) {
    DAISY_ASSIGN_OR_RETURN(TableFile f, WriteTable(t, dir));
    in.tables.push_back(std::move(f));
  }
  in.rules = {"phi: FD orderkey -> suppkey@lineorder",
              "psi: FD address -> suppkey@supplier"};

  daisy::Rng rng(DeriveSeed(seed, "queries"));
  if (spec.ladder_queries > 0) {
    // Successive suppkey slices that together cover every supplier, each
    // asked as the next rung of Q1 -> Q2 -> Q3.
    std::vector<std::string> ladder;
    const int n = static_cast<int>(spec.ladder_queries);
    for (int i = 0; i < n; ++i) {
      const int lo = i * kSuppkeys / n;
      const int hi = (i + 1) * kSuppkeys / n - 1;
      ladder.push_back(Family(i % 3 + 1, lo, std::max(lo, hi)));
    }
    in.queries.push_back(std::move(ladder));
  }
  if (spec.queries_per_connection > 0) {
    const int w = static_cast<int>(spec.warm_range_width);
    for (size_t c = 0; c < spec.connections; ++c) {
      // The families rotate so every seed has the same Q1/Q2/Q3 shares;
      // only the slices are drawn from the seed.
      std::vector<std::string> mix;
      for (size_t q = 0; q < spec.queries_per_connection; ++q) {
        const int family = static_cast<int>((c + q) % 3) + 1;
        const int lo =
            w * static_cast<int>(rng.UniformInt(0, kSuppkeys / w - 1));
        mix.push_back(Family(family, lo, lo + w - 1));
      }
      in.queries.push_back(std::move(mix));
    }
  }
  if (spec.appends > 0) {
    const int64_t reach = kSuppkeys;
    // The analyst walks the suppkeys the appends land in, one per query,
    // every fourth query a Q2 and the rest Q1, so its median sits inside
    // one family's spread. The list is fixed: only the data varies with
    // the seed.
    std::vector<std::string> analyst;
    for (int j = 0; analyst.size() < spec.analyst_queries; ++j) {
      const int key = j % static_cast<int>(reach);
      analyst.push_back(Family(j % 4 == 3 ? 2 : 1, key, key));
    }
    in.queries.push_back(std::move(analyst));

    // New rows copy existing rows with an in-domain suppkey (so every
    // column stays in domain), carry a unique linenumber, and a fifth get
    // another suppkey, which breaks orderkey -> suppkey for their order.
    const size_t suppkey_col = lineorder.schema().ColumnIndex("suppkey").value();
    const size_t line_col = lineorder.schema().ColumnIndex("linenumber").value();
    std::vector<size_t> sources;
    for (size_t r = 0; r < lineorder.num_rows(); ++r) {
      const Value& v = lineorder.cell(r, suppkey_col).MostProbable();
      if (v.as_int() < reach) sources.push_back(r);
    }
    if (sources.empty()) return Status::Internal("no rows to copy appends from");
    daisy::Rng arng(DeriveSeed(seed, "appends"));
    int64_t next_id = kFirstAppendId;
    for (size_t b = 0; b < spec.appends; ++b) {
      std::vector<std::vector<Value>> batch;
      for (size_t i = 0; i < spec.rows_per_append; ++i) {
        const size_t src = sources[static_cast<size_t>(
            arng.UniformInt(0, static_cast<int64_t>(sources.size()) - 1))];
        std::vector<Value> row;
        for (size_t c = 0; c < lineorder.schema().num_columns(); ++c) {
          row.push_back(lineorder.cell(src, c).MostProbable());
        }
        row[line_col] = Value(next_id++);
        if (arng.Bernoulli(0.2)) {
          row[suppkey_col] = Value(arng.UniformInt(0, reach - 1));
        }
        batch.push_back(std::move(row));
      }
      in.batches.push_back(std::move(batch));
    }
  }
  return in;
}

}  // namespace perfbench
