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
#include <memory>
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

/// An immutable candidate set. Cells hold it by shared handle, so every
/// cell repaired from one distribution — an FD lhs group's P(rhs | lhs) or
/// an rhs bucket's P(lhs | rhs) — points at one set, and copying a cell
/// into a result copies a pointer.
class CandidateSet {
 public:
  explicit CandidateSet(std::vector<Candidate> cands);

  const std::vector<Candidate>& candidates() const { return cands_; }
  size_t size() const { return cands_.size(); }

  /// The first strictly most probable point candidate, or null when the
  /// set holds ranges only. Computed once at construction.
  const Candidate* most_probable() const {
    return best_ < cands_.size() ? &cands_[best_] : nullptr;
  }

  bool operator==(const CandidateSet& other) const {
    return cands_ == other.cands_;
  }

 private:
  std::vector<Candidate> cands_;
  size_t best_;  ///< index of most_probable(), or cands_.size()
};

using CandidateSetPtr = std::shared_ptr<const CandidateSet>;

/// The shared set of `cands`, or null (a clean cell) when it is empty.
CandidateSetPtr MakeCandidateSet(std::vector<Candidate> cands);

/// A table cell: clean (single deterministic value) or probabilistic
/// (original value retained as provenance + a shared candidate set).
class Cell {
 public:
  Cell() = default;
  /* implicit */ Cell(Value v) : original_(std::move(v)) {}

  /// The value as loaded, before any repair (provenance anchor).
  const Value& original() const { return original_; }

  /// True once a repair attached candidates.
  bool is_probabilistic() const { return candidates_ != nullptr; }

  /// The candidates, empty for a clean cell.
  const std::vector<Candidate>& candidates() const;

  /// The shared candidate set, null for a clean cell.
  const CandidateSetPtr& candidate_set() const { return candidates_; }

  /// Installs a shared candidate set; null or an empty set reverts the
  /// cell to its clean original value.
  void set_candidates(CandidateSetPtr set) {
    candidates_ = set != nullptr && set->size() > 0 ? std::move(set)
                                                    : nullptr;
  }

  /// The single most probable point candidate, or the original value for a
  /// clean cell. Range candidates are skipped (they have no point value).
  /// O(1): the set caches its most probable candidate.
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
  size_t width() const { return is_probabilistic() ? candidates_->size() : 1; }

  /// Debug / CSV rendering: "v" or "{v1:0.67|v2:0.33}".
  std::string ToString() const;

  bool operator==(const Cell& other) const {
    if (!(original_ == other.original_)) return false;
    if (candidates_ == other.candidates_) return true;
    return candidates_ != nullptr && other.candidates_ != nullptr &&
           *candidates_ == *other.candidates_;
  }

 private:
  Value original_;
  CandidateSetPtr candidates_;  ///< null = clean
};

}  // namespace daisy

#endif  // DAISY_STORAGE_CELL_H_
