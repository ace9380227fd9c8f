// Denial constraints: ∀t1..tk ¬(p1 ∧ ... ∧ pm).
//
// A pair (or single tuple) *violates* the constraint when every atom is
// satisfied. Functional dependencies are the special case
// ¬(t1.X1==t2.X1 ∧ ... ∧ t1.Xn==t2.Xn ∧ t1.Y != t2.Y); Daisy treats them
// specially throughout (group-by detection, Algorithm-1 relaxation), so the
// class exposes an FD "view" when the atom structure matches.

#ifndef DAISY_CONSTRAINTS_DENIAL_CONSTRAINT_H_
#define DAISY_CONSTRAINTS_DENIAL_CONSTRAINT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraints/predicate.h"
#include "storage/table.h"

namespace daisy {

/// Functional-dependency view of a two-tuple equality DC: lhs -> rhs.
struct FdView {
  std::vector<size_t> lhs;  ///< column indices of X
  size_t rhs = 0;           ///< column index of Y
  std::vector<std::string> lhs_names;
  std::string rhs_name;
};

/// A bound denial constraint over a single table.
class DenialConstraint {
 public:
  DenialConstraint() = default;
  DenialConstraint(std::string name, std::string table, int num_tuples,
                   std::vector<PredicateAtom> atoms);

  const std::string& name() const { return name_; }
  const std::string& table() const { return table_; }
  /// 1 for single-tuple constraints, 2 for pairwise ones.
  int num_tuples() const { return num_tuples_; }
  const std::vector<PredicateAtom>& atoms() const { return atoms_; }

  /// True if this DC is a functional dependency (see file comment).
  bool IsFd() const { return fd_view_.has_value(); }
  /// Requires IsFd().
  const FdView& fd() const { return *fd_view_; }

  /// True if all atoms use only equality / inequality (==, !=) — FDs and
  /// their generalizations. Order-predicate DCs (<, >) take the theta-join
  /// detection path.
  bool IsEqualityOnly() const;

  /// Distinct column indices referenced by any atom.
  const std::vector<size_t>& involved_columns() const {
    return involved_columns_;
  }
  bool InvolvesColumn(size_t col) const;

  std::string ToString() const;

 private:
  void DetectFd();
  void ComputeInvolvedColumns();

  std::string name_;
  std::string table_;
  int num_tuples_ = 2;
  std::vector<PredicateAtom> atoms_;
  std::optional<FdView> fd_view_;
  std::vector<size_t> involved_columns_;
};

/// Parses a constraint definition bound to `schema`:
///   "name: !(t1.zip == t2.zip & t1.city != t2.city)"   (general DC)
///   "name: FD zip -> city"                              (FD shorthand)
///   "name: FD a, b -> c"                                (multi-attr lhs)
/// The leading "name:" is optional; a default name is synthesized.
Result<DenialConstraint> ParseConstraint(const std::string& text,
                                         const std::string& table,
                                         const Schema& schema);

}  // namespace daisy

#endif  // DAISY_CONSTRAINTS_DENIAL_CONSTRAINT_H_
