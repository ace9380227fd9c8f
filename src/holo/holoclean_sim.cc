#include "holo/holoclean_sim.h"

#include <cmath>

#include <algorithm>
#include <unordered_map>

#include "detect/fd_delta.h"
#include "detect/theta_join.h"

namespace daisy {

HoloCleanSim::HoloCleanSim(const Table* table,
                           const ConstraintSet* constraints,
                           HoloOptions options)
    : table_(table), constraints_(constraints), options_(options) {}

Result<std::vector<std::pair<RowId, size_t>>>
HoloCleanSim::CollectDirtyCells() {
  std::vector<std::pair<RowId, size_t>> cells;
  std::vector<std::vector<bool>> seen(
      table_->num_rows(), std::vector<bool>(table_->num_columns(), false));
  auto add = [&](RowId r, size_t c) {
    if (!seen[r][c]) {
      seen[r][c] = true;
      cells.emplace_back(r, c);
    }
  };
  for (const DenialConstraint* dc : constraints_->ForTable(table_->name())) {
    if (dc->IsFd()) {
      const FdView& fd = dc->fd();
      for (const FdGroup& g : FdDeltaDetector(table_, dc).ViolatingGroups()) {
        for (RowId r : g.rows) add(r, fd.rhs);
      }
      continue;
    }
    ThetaJoinDetector detector(table_, dc, 16);
    for (const ViolationPair& v : detector.DetectAll()) {
      for (size_t col : dc->involved_columns()) {
        add(v.t1, col);
        add(v.t2, col);
      }
    }
  }
  stats_.dirty_cells = cells.size();
  return cells;
}

std::vector<Value> HoloCleanSim::GenerateDomain(RowId row, size_t col) {
  // One pass over the dataset per dirty cell: for every other attribute c'
  // of the row, collect the distribution of `col` values among tuples that
  // agree with the row on c'. Keep values whose co-occurrence probability
  // clears the threshold.
  ++stats_.dataset_passes;
  std::unordered_map<Value, double, ValueHash> score;
  const size_t num_cols = table_->num_columns();
  for (size_t other = 0; other < num_cols; ++other) {
    if (other == col) continue;
    const Value& anchor = table_->cell(row, other).original();
    std::unordered_map<Value, size_t, ValueHash> hist;
    size_t total = 0;
    for (RowId r = 0; r < table_->num_rows(); ++r) {
      if (!table_->is_live(r)) continue;
      if (!(table_->cell(r, other).original() == anchor)) continue;
      hist[table_->cell(r, col).original()] += 1;
      ++total;
    }
    if (total == 0) continue;
    for (const auto& [value, count] : hist) {
      const double p = static_cast<double>(count) / static_cast<double>(total);
      if (p >= options_.domain_threshold) {
        score[value] = std::max(score[value], p);
      }
    }
  }
  // Always include the current value.
  score[table_->cell(row, col).original()] =
      std::max(score[table_->cell(row, col).original()], 1e-9);

  std::vector<std::pair<Value, double>> ranked(score.begin(), score.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first.Compare(b.first) < 0;
  });
  std::vector<Value> domain;
  for (const auto& [value, _] : ranked) {
    if (domain.size() >= options_.max_domain) break;
    domain.push_back(value);
  }
  ++stats_.domains_generated;
  return domain;
}

Value HoloCleanSim::Infer(RowId row, size_t col,
                          const std::vector<Value>& domain) {
  // Naive-Bayes MAP: score(v) = Π_{c' != col} P(col = v | c' = t.c'),
  // with add-one smoothing; evaluated from co-occurrence counts. One pass
  // per (cell, other attribute) builds the full conditional histogram so
  // every domain value is scored from the same scan.
  const size_t num_cols = table_->num_columns();
  std::vector<double> log_score(domain.size(), 0.0);
  for (size_t other = 0; other < num_cols; ++other) {
    if (other == col) continue;
    const Value& anchor = table_->cell(row, other).original();
    std::unordered_map<Value, size_t, ValueHash> hist;
    size_t total = 0;
    for (RowId r = 0; r < table_->num_rows(); ++r) {
      if (!table_->is_live(r)) continue;
      if (!(table_->cell(r, other).original() == anchor)) continue;
      ++total;
      hist[table_->cell(r, col).original()] += 1;
    }
    ++stats_.cooccur_lookups;
    for (size_t i = 0; i < domain.size(); ++i) {
      auto it = hist.find(domain[i]);
      const double match = it == hist.end() ? 0.0 : static_cast<double>(it->second);
      log_score[i] += std::log((match + 1.0) / (static_cast<double>(total) + 2.0));
    }
  }
  // Ties keep the earlier (higher co-occurrence rank) value.
  Value best = table_->cell(row, col).original();
  bool first = true;
  double best_score = 0.0;
  for (size_t i = 0; i < domain.size(); ++i) {
    if (first || log_score[i] > best_score) {
      first = false;
      best_score = log_score[i];
      best = domain[i];
    }
  }
  return best;
}

Result<std::vector<CellRepair>> HoloCleanSim::Run() {
  DAISY_ASSIGN_OR_RETURN(auto cells, CollectDirtyCells());
  std::vector<CellRepair> out;
  out.reserve(cells.size());
  for (const auto& [row, col] : cells) {
    CellRepair repair;
    repair.row = row;
    repair.col = col;
    repair.domain = GenerateDomain(row, col);
    repair.chosen = Infer(row, col, repair.domain);
    out.push_back(std::move(repair));
  }
  return out;
}

Result<std::vector<CellRepair>> HoloCleanSim::InferWithDomains(
    const std::vector<std::pair<std::pair<RowId, size_t>,
                                std::vector<Value>>>& domains) {
  std::vector<CellRepair> out;
  out.reserve(domains.size());
  for (const auto& [cell, domain] : domains) {
    if (cell.first >= table_->num_rows() ||
        cell.second >= table_->num_columns()) {
      return Status::OutOfRange("domain cell out of range");
    }
    CellRepair repair;
    repair.row = cell.first;
    repair.col = cell.second;
    repair.domain = domain;
    repair.chosen = Infer(cell.first, cell.second, domain);
    out.push_back(std::move(repair));
  }
  return out;
}

}  // namespace daisy
