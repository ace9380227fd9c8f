// Test-side builders for cells' shared candidate sets. The engine installs
// whole derived sets (Table::SetCandidates, ProvenanceStore::RebuildCell);
// tests grow one candidate at a time.

#ifndef DAISY_TESTS_CELL_TEST_UTIL_H_
#define DAISY_TESTS_CELL_TEST_UTIL_H_

#include <utility>
#include <vector>

#include "storage/cell.h"

namespace daisy {
namespace testutil {

/// Points `cell` at a new set: its candidates plus `cand`.
inline void AddCandidate(Cell* cell, Candidate cand) {
  std::vector<Candidate> cands = cell->candidates();
  cands.push_back(std::move(cand));
  cell->set_candidates(MakeCandidateSet(std::move(cands)));
}

/// Points `cell` at a new set: its candidates rescaled to sum to 1.
inline void NormalizeCell(Cell* cell) {
  std::vector<Candidate> cands = cell->candidates();
  NormalizeCandidates(&cands);
  cell->set_candidates(MakeCandidateSet(std::move(cands)));
}

}  // namespace testutil
}  // namespace daisy

#endif  // DAISY_TESTS_CELL_TEST_UTIL_H_
