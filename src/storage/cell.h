// Probabilistic cells: attribute-level uncertainty (Suciu et al. [33]).
//
// A Cell carries its original (loaded) value plus, once a cleaning operator
// has repaired it, a set of weighted candidate values. Each candidate stores
// the identifier of the candidate pair / possible world it belongs to, so
// tuple-level instances ("pairs" in the paper, Example 2) can be
// reconstructed from attribute-level storage. Candidates can also be open
// ranges ("< 2000") produced by holistic DC repair (Example 5).

#ifndef DAISY_STORAGE_CELL_H_
#define DAISY_STORAGE_CELL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace daisy {

/// How a candidate constrains the repaired value.
enum class CandidateKind {
  kPoint,         ///< exactly this value
  kLessThan,      ///< any value < bound
  kLessEq,        ///< any value <= bound
  kGreaterThan,   ///< any value > bound
  kGreaterEq,     ///< any value >= bound
};

const char* CandidateKindToString(CandidateKind kind);

/// One possible repaired value of a cell, with its probability and the
/// candidate-pair (possible world) it belongs to. pair_id -1 marks a
/// candidate shared by all worlds.
struct Candidate {
  Value value;
  double prob = 1.0;
  int32_t pair_id = -1;
  CandidateKind kind = CandidateKind::kPoint;

  bool operator==(const Candidate& other) const {
    return value == other.value && prob == other.prob &&
           pair_id == other.pair_id && kind == other.kind;
  }
};

/// Rescales the candidates' probabilities to sum to 1 (no-op on an empty
/// set or when the total mass is zero).
void NormalizeCandidates(std::vector<Candidate>* cands);

/// A table cell: clean (single deterministic value) or probabilistic
/// (original value retained as provenance + candidate set).
class Cell {
 public:
  Cell() = default;
  /* implicit */ Cell(Value v) : original_(std::move(v)) {}

  /// The value as loaded, before any repair (provenance anchor).
  const Value& original() const { return original_; }

  /// True once a repair attached candidates.
  bool is_probabilistic() const { return !candidates_.empty(); }

  const std::vector<Candidate>& candidates() const { return candidates_; }

  /// Replaces the candidate set. Call Normalize() afterwards if the weights
  /// are raw frequencies.
  void set_candidates(std::vector<Candidate> cands) {
    candidates_ = std::move(cands);
  }
  void add_candidate(Candidate c) { candidates_.push_back(std::move(c)); }

  /// Drops candidates, reverting the cell to its clean original value.
  void ClearCandidates() { candidates_.clear(); }

  /// Rescales probabilities to sum to 1 (no-op on a clean cell or when the
  /// total mass is zero).
  void Normalize() { NormalizeCandidates(&candidates_); }

  /// The single most probable point candidate, or the original value for a
  /// clean cell. Range candidates are skipped (they have no point value).
  const Value& MostProbable() const;

  /// All distinct point values this cell may take (original if clean).
  std::vector<Value> PossibleValues() const;

  /// True if some possible value of this cell equals `v`.
  bool MayEqual(const Value& v) const;

  /// True if some possible value may satisfy `v_low <= value <= v_high`
  /// (null bounds mean unbounded). Ranges are checked against their bound.
  bool MayBeInRange(const Value& low, const Value& high) const;

  /// Number of candidate values (1 for a clean cell). This is the `p` term
  /// of the cost model's update cost.
  size_t width() const { return is_probabilistic() ? candidates_.size() : 1; }

  /// Debug / CSV rendering: "v" or "{v1:0.67|v2:0.33}".
  std::string ToString() const;

  bool operator==(const Cell& other) const {
    return original_ == other.original_ && candidates_ == other.candidates_;
  }

 private:
  Value original_;
  std::vector<Candidate> candidates_;
};

}  // namespace daisy

#endif  // DAISY_STORAGE_CELL_H_
